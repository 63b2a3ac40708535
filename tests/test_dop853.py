"""The in-house DOP853 stepper against scipy's ``solve_ivp(DOP853)``.

scipy is a test-only dependency: it is imported here as the reference the
stepper must reproduce (same right-hand-side calls, same grid, same
termination, values to 1e-10), and as the reference cubic Hermite for
``RadialProfile.mass_at``.  The package itself must not load it.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

import todalab
from todalab import dop853
from todalab.ode_engine import (
    BLOWUP_GUARD,
    ShootSpec,
    TerminationReason,
    _series_state,
    shoot,
)
from todalab.systems import SystemKind, Variant

from conftest import shot_of

SU3 = SystemKind(Variant.AFFINE_SU3)
SU4 = SystemKind(Variant.AFFINE_SU4)
PAIR = SystemKind(Variant.LIMIT_PAIR)
SINH = SystemKind(Variant.SINH_GORDON)


def in_place(f):
    """The in-place form fun(t, y, out) that ``integrate`` calls, of a
    right-hand side f(t, y) as ``solve_ivp`` calls it."""

    def fun(t, y, out):
        out[:] = f(t, y)

    return fun


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


oscillator = in_place(_oscillator)


def accelerate(t, x, out):
    """The oscillator's second-order block: v' = -x, with x' = v left to
    the stepper."""
    np.negative(x, out=out)


def below_half(t, y):
    return y[0] + 0.5


def scipy_shot(spec: ShootSpec):
    """The shot as the engine ran it through scipy: (reason, ts, ys, nfev)."""
    sk = spec.system
    n = sk.n_components
    t0, t1 = math.log(spec.r_start), math.log(spec.r_max)
    y0 = _series_state(spec)
    dt = math.log(10.0) / spec.samples_per_decade
    t_eval = np.arange(t0, t1, dt)
    if t1 - t_eval[-1] > 1e-12:
        t_eval = np.append(t_eval, t1)

    def rhs(t, y):
        u = y[:n]
        r2 = math.exp(2.0 * t)
        return np.concatenate(
            [y[n : 2 * n], -r2 * sk.rhs(u), r2 * np.exp(np.minimum(u, 600.0))]
        )

    def blow_up(t, y):
        return BLOWUP_GUARD - np.max(y[:n])

    def mass_overflow(t, y):
        return spec.mass_guard - np.sum(y[2 * n :])

    for ev in (blow_up, mass_overflow):
        ev.terminal, ev.direction = True, -1

    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(
            rhs, (t0, t1), y0, method="DOP853", rtol=spec.rel_tol,
            atol=spec.abs_tol, t_eval=t_eval, events=(blow_up, mass_overflow),
        )
    ts, ys = sol.t, sol.y
    if sol.status == 1:
        k = 0 if sol.t_events[0].size else 1
        te = sol.t_events[k][0]
        if ts.size == 0 or te > ts[-1] + 1e-12:
            ts = np.append(ts, te)
            ys = np.hstack([ys, sol.y_events[k].T])
        reason = (TerminationReason.COMPONENT_BLOW_UP, TerminationReason.MASS_OVERFLOW)[k]
    elif sol.status == 0:
        reason = TerminationReason.REACHED_R_MAX
    else:
        reason = TerminationReason.STEP_UNDERFLOW
    return reason, ts, ys, sol.nfev


CASES = {
    "su3": lambda: ShootSpec(SU3, (-28.0, -28.0, 28.0), r_max=1e3),
    "su4": lambda: ShootSpec(SU4, (-12.0, -12.0, 24.0), r_max=1e3),
    "limitpair_low": lambda: ShootSpec(PAIR, (2.0, -5.0), r_max=1e6),
    "limitpair_high": lambda: ShootSpec(PAIR, (2.0, 5.0), r_max=1e6),
    "sinh_gordon_blow_up": lambda: ShootSpec(SINH, (-160.0,)),
    "su4_zero": lambda: ShootSpec(SU4, (0.0, 0.0, 0.0), r_max=1e3),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_shot_agrees_with_scipy(name):
    spec = CASES[name]()
    prof = shot_of(spec)
    assert prof.spec == spec
    reason, ts, ys, nfev = scipy_shot(spec)
    n = spec.system.n_components

    assert prof.reason is reason
    assert len(prof.grid) == len(ts)
    assert prof.stats.nfev == nfev
    np.testing.assert_allclose(prof.values, ys[:n].T, rtol=0, atol=1e-10)
    r = np.exp(ts)
    np.testing.assert_allclose(prof.log_derivs, ys[n : 2 * n].T, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(
        prof.masses, np.maximum.accumulate(ys[2 * n :].T, axis=0), rtol=1e-10, atol=1e-10
    )
    assert prof.r_end == pytest.approx(float(r[-1]), rel=1e-12)


def whole_rhs(spec: ShootSpec):
    """The shot's right-hand side evaluated whole, all 3n columns per stage,
    with no quadrature block: the reference of ``shoot``'s split into the
    coupled (u, w) block and the mass quadrature."""
    sk = spec.system
    n = sk.n_components

    def fun(t, y, out):
        u = y[:n]
        r2 = math.exp(2.0 * t)
        out[:] = np.concatenate(
            [y[n : 2 * n], -r2 * sk.rhs(u), r2 * np.exp(np.minimum(u, 600.0))]
        )

    return fun


def w_rises(t, y):
    """A stop rule for the limit pair's states (6, m): some w_i = r u_i'
    above 1/2 at a sampled row, as when a component re-ignites."""
    return bool((y[2:4] > 0.5).any())


SPLIT_CASES = {
    "su3": (CASES["su3"], None),
    "su4": (CASES["su4"], None),
    "sinh_gordon_blow_up": (CASES["sinh_gordon_blow_up"], None),
    "limitpair_reignites": (lambda: ShootSpec(PAIR, (2.0, 5.0)), w_rises),
}


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_mass_quadrature_keeps_the_whole_rhs_bits(name, monkeypatch):
    """``shoot``'s run, with the masses as the stepper's quadrature block
    and (u, w) as its second-order block, is bit for bit the run of the
    whole right-hand side with both blocks of zero width: samples, end,
    event and every count."""
    make_spec, stop = SPLIT_CASES[name]
    spec = make_spec()
    runs = []
    real = dop853.integrate

    def recording(*args, **kwargs):
        runs.append((args, kwargs, real(*args, **kwargs)))
        return runs[-1][2]

    monkeypatch.setattr(dop853, "integrate", recording)
    shoot(spec, stop=stop)
    (args, kwargs, split), = runs
    assert kwargs["n_quad"] == kwargs["n_pos"] == spec.system.n_components

    kwargs = {k: v for k, v in kwargs.items() if k not in ("quad", "n_quad", "n_pos")}
    with np.errstate(over="ignore", invalid="ignore"):
        whole = real(whole_rhs(spec), *args[1:], **kwargs)

    assert split.status == whole.status and split.event == whole.event
    if stop:
        assert split.status == dop853.STOPPED
    assert split.t.tobytes() == whole.t.tobytes()
    assert split.y.tobytes() == whole.y.tobytes()
    got, want = split.stats, whole.stats
    assert (got.nfev, got.n_accepted, got.n_rejected) == \
        (want.nfev, want.n_accepted, want.n_rejected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_mass_exp_has_the_row_bits(n):
    """The quadrature evaluates e^{min(u, cap)} for a block of stage states
    in one call; each row must get the bits it gets alone, as each stage
    did.  A platform whose exp kernel depends on the array's length fails
    here."""
    rng = np.random.default_rng(20201103 + n)
    k = 100_000 // n + 1
    X = rng.uniform(-745.0, 710.0, (k, 3 * n))
    X[:3, :n] = [[np.inf], [-np.inf], [np.nan]]
    X[3:9, :n] = np.array([-745.0, -708.5, 0.0, 600.0, 709.78, 710.0])[:, None]
    block = np.exp(np.minimum(X[:, :n], 600.0))
    rows = np.array([np.exp(np.minimum(x[:n], 600.0)) for x in X])
    assert block.view(np.uint64).tobytes() == rows.view(np.uint64).tobytes()


@pytest.mark.parametrize("n_quad, message", [
    (-1, r"quadrature width -1 is outside \[0, 2\]"),
    (3, r"quadrature width 3 is outside \[0, 2\]"),
    (1, r"quadrature block of width 1 needs its quad"),
])
def test_a_quadrature_block_the_state_cannot_hold_is_refused(n_quad, message):
    with pytest.raises(ValueError, match=message):
        dop853.integrate(oscillator, 0.0, 1.0, np.array([0.0, 1.0]), 1e-10, 1e-12,
                         np.linspace(0.0, 1.0, 3), n_quad=n_quad)


@pytest.mark.parametrize("events", [(), (below_half,)], ids=["t_eval", "event"])
def test_a_second_order_block_keeps_the_first_order_bits(events):
    """The oscillator as (x, v), the stepper writing x' = v and ``fun``
    only v' = -x, is bit for bit its first-order run: samples, end, event
    and every count."""
    y0 = np.array([0.0, 1.0])
    t_eval = np.linspace(0.0, 10.0, 101)
    first, second = (
        dop853.integrate(fun, 0.0, 10.0, y0, 1e-10, 1e-12, t_eval, events=events, **kw)
        for fun, kw in ((oscillator, {}), (accelerate, {"n_pos": 1}))
    )
    assert second.status == first.status and second.event == first.event
    assert first.status == (dop853.EVENT if events else dop853.FINISHED)
    assert second.t.tobytes() == first.t.tobytes()
    assert second.y.tobytes() == first.y.tobytes()
    got, want = second.stats, first.stats
    assert (got.nfev, got.n_accepted, got.n_rejected) == \
        (want.nfev, want.n_accepted, want.n_rejected)


def chain_accel(x, out):
    """A nonlinear pendulum chain: x_i'' = -sin x_i plus springs to its
    neighbours."""
    np.negative(np.sin(x), out=out)
    out[:-1] += x[1:] - x[:-1]
    out[1:] += x[:-1] - x[1:]


def chain_whole(k, n_quad):
    """The chain as one first-order right-hand side (x, v, q), with
    q_j' = x_j^2 for the first ``n_quad`` positions."""

    def fun(t, y, out):
        out[:k] = y[k : 2 * k]
        chain_accel(y[:k], out[k : 2 * k])
        out[2 * k :] = y[:n_quad] ** 2

    return fun


def chain_quad(ts, ys, out):
    out[...] = ys[:, : out.shape[1]] ** 2


def chain_stop(t, y):
    return bool(t[-1] >= 7.0)


@pytest.mark.parametrize("k, n_quad, events, stop", [
    (2, 0, (), None),
    (3, 0, (below_half,), None),
    (2, 1, (), None),
    (3, 2, (below_half,), None),
    (2, 2, (), chain_stop),
], ids=["width2", "width3-event", "width2-quad1", "width3-quad2-event", "width2-quad2-stop"])
def test_a_wide_second_order_block_keeps_the_first_order_bits(k, n_quad, events, stop):
    """A chain of k coupled pendulums as (x, v), with and without a
    quadrature block behind it, is bit for bit the run of its whole
    first-order right-hand side: samples, end, event and every count."""
    rng = np.random.default_rng(k + 10 * n_quad)
    y0 = np.concatenate([rng.uniform(-0.4, 0.4, 2 * k), np.zeros(n_quad)])
    y0[0], y0[k] = 0.4, -0.8  # the first pendulum swings below -1/2
    t_eval = np.linspace(0.0, 20.0, 81)
    whole = dop853.integrate(chain_whole(k, n_quad), 0.0, 20.0, y0, 1e-10, 1e-12,
                             t_eval, events=events, stop=stop)
    split = dop853.integrate(lambda t, x, out: chain_accel(x, out), 0.0, 20.0, y0,
                             1e-10, 1e-12, t_eval, events=events, stop=stop,
                             n_quad=n_quad, n_pos=k,
                             **({"quad": chain_quad} if n_quad else {}))
    assert split.status == whole.status and split.event == whole.event
    assert whole.status == (dop853.EVENT if events else
                            dop853.STOPPED if stop else dop853.FINISHED)
    assert split.t.tobytes() == whole.t.tobytes()
    assert split.y.tobytes() == whole.y.tobytes()
    got, want = split.stats, whole.stats
    assert (got.nfev, got.n_accepted, got.n_rejected) == \
        (want.nfev, want.n_accepted, want.n_rejected)


def test_a_second_order_fun_reads_positions_and_writes_accelerations():
    """With a second-order block of width k, ``fun`` is called once per rhs
    evaluation with the k positions and a k-entry ``out``."""
    shapes = []

    def fun(t, x, out):
        shapes.append((x.shape, out.shape))
        chain_accel(x, out)

    y0 = np.array([0.3, -0.2, 0.1, 0.0, 0.5, -0.5, 0.0])
    sol = dop853.integrate(fun, 0.0, 5.0, y0, 1e-10, 1e-12, np.linspace(0.0, 5.0, 6),
                           quad=chain_quad, n_quad=1, n_pos=3)
    assert sol.status == dop853.FINISHED
    assert len(shapes) == sol.stats.nfev
    assert set(shapes) == {((3,), (3,))}


def _zero_quad(ts, ys, out):
    out[...] = 0.0


@pytest.mark.parametrize("n, n_quad, n_pos, m", [
    (3, 0, 1, 3),  # an odd leading block has no halves
    (5, 2, 1, 3),
    (4, 0, 1, 4),  # a nonzero width that is not half
    (4, 0, 4, 4),
    (4, 0, -2, 4),
    (6, 2, 1, 4),
])
def test_a_second_order_block_the_state_cannot_hold_is_refused(n, n_quad, n_pos, m):
    with pytest.raises(ValueError, match=rf"second-order width {n_pos} is neither 0 "
                                         rf"nor half of the {m} leading entries"):
        dop853.integrate(accelerate, 0.0, 1.0, np.zeros(n), 1e-10, 1e-12,
                         np.linspace(0.0, 1.0, 3), quad=_zero_quad, n_quad=n_quad,
                         n_pos=n_pos)


def test_each_event_is_read_once_per_accepted_step():
    """Every event is read at the start and once at the end of each
    accepted step, never on a rejected trial: y' = y^2 from y(0) = 1
    rejects steps on its way to the step floor at t = 1."""
    calls = [0, 0]

    def counted(i):
        def g(t, y):
            calls[i] += 1
            return 1.0
        return g

    with np.errstate(over="ignore", invalid="ignore"):
        sol = dop853.integrate(
            in_place(lambda t, y: y * y), 0.0, 2.0, np.array([1.0]), 1e-10, 1e-12,
            np.linspace(0.0, 2.0, 21), events=(counted(0), counted(1)),
        )
    st = sol.stats
    assert sol.status == dop853.STEP_UNDERFLOW and st.n_rejected > 0
    assert calls == [1 + st.n_accepted] * 2


def test_blow_up_case_fires_the_event():
    prof = shot_of(CASES["sinh_gordon_blow_up"]())
    assert prof.reason is TerminationReason.COMPONENT_BLOW_UP
    assert prof.values[-1, 0] == pytest.approx(BLOWUP_GUARD, abs=1e-8)


@pytest.mark.parametrize(
    "fixture", ["liouville_profile", "su3_ladder_profile", "su4_bubble_profile"]
)
def test_mass_at_matches_cubic_hermite_spline(fixture, request):
    """The direct Hermite equals the per-component CubicHermiteSpline it
    replaced, clipped into the bracketing node values."""
    p = request.getfixturevalue(fixture)
    tg = np.log(p.grid)
    dm = np.exp(np.minimum(p.values + 2.0 * tg[:, None], 600.0))
    splines = [
        CubicHermiteSpline(tg, p.masses[:, i], dm[:, i]) for i in range(p.n_components)
    ]
    rng = np.random.default_rng(20201103)
    for t in rng.uniform(tg[0], tg[-1], 200):
        r = math.exp(t)
        t = math.log(r)
        k = int(np.clip(np.searchsorted(tg, t), 1, len(tg) - 1))
        want = np.clip([float(f(t)) for f in splines], p.masses[k - 1], p.masses[k])
        np.testing.assert_allclose(p.mass_at(r), want, rtol=1e-12, atol=0)


def test_stats_count_every_call_and_step():
    """nfev is the true number of right-hand-side calls, dense-output stages
    included; accepted plus rejected steps account for the rest."""
    calls = [0]

    def fun(t, y, out):
        calls[0] += 1
        out[:] = np.array([y[1], -y[0]])

    def leaves_unit_disc(t, y):
        return 0.5 - y[0]

    sol = dop853.integrate(
        fun, 0.0, 10.0, np.array([0.0, 1.0]), 1e-10, 1e-12,
        np.linspace(0.0, 10.0, 11), events=(lambda t, y: 2.0, leaves_unit_disc),
    )
    st = sol.stats
    assert st.nfev == calls[0]
    dense_steps = (st.nfev - 2 - 12 * (st.n_accepted + st.n_rejected)) / 3
    assert dense_steps == int(dense_steps) and 1 <= dense_steps <= st.n_accepted
    assert sol.status == dop853.EVENT and sol.event == 1
    # y = sin t leaves y <= 0.5 at t = pi/6; the root is exact on the
    # interpolant, which is itself accurate to the tolerances
    assert sol.t[-1] == pytest.approx(math.pi / 6, abs=1e-9)
    assert sol.y[0, -1] == pytest.approx(0.5, abs=1e-14)
    assert list(sol.t[:-1]) == [0.0]
    assert st.message == "A termination event occurred."
    assert st.to_json_dict() == {
        "nfev": st.nfev, "n_accepted": st.n_accepted, "n_rejected": st.n_rejected
    }


def test_step_underflow_keeps_the_message():
    """y' = y^2, y(0) = 1 blows up at t = 1: the step floor ends the run."""
    with np.errstate(over="ignore", invalid="ignore"):
        sol = dop853.integrate(
            in_place(lambda t, y: y * y), 0.0, 2.0, np.array([1.0]), 1e-10, 1e-12,
            np.linspace(0.0, 2.0, 21),
        )
        ref = solve_ivp(
            lambda t, y: y * y, (0.0, 2.0), [1.0], method="DOP853",
            rtol=1e-10, atol=1e-12, t_eval=np.linspace(0.0, 2.0, 21),
        )
    assert sol.status == dop853.STEP_UNDERFLOW and ref.status == -1
    assert sol.stats.message == ref.message
    assert sol.stats.nfev == ref.nfev and sol.stats.n_rejected > 0
    np.testing.assert_allclose(sol.y, ref.y, rtol=1e-10)


def test_shoot_records_stats(liouville_profile):
    st = liouville_profile.stats
    assert st.n_accepted > 0 and st.nfev > 12 * st.n_accepted
    assert "end of the integration interval" in st.message


def test_import_loads_no_scipy():
    src = str(Path(todalab.__file__).resolve().parents[1])
    code = (
        "import sys, todalab, todalab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "[]"


def test_stop_ends_the_run_on_a_bit_equal_prefix():
    """A true ``stop`` ends the run after the samples it saw; those samples
    are the unstopped run's first ones, bit for bit, at fewer rhs calls."""
    t_eval = np.linspace(0.0, 10.0, 101)
    y0 = np.array([0.0, 1.0])
    full = dop853.integrate(oscillator, 0.0, 10.0, y0, 1e-10, 1e-12, t_eval)
    seen = []

    def negative(t, y):
        seen.append(t)
        return bool((y[0] < 0).any())

    sol = dop853.integrate(oscillator, 0.0, 10.0, y0, 1e-10, 1e-12, t_eval,
                           stop=negative)
    assert sol.status == dop853.STOPPED and full.status == dop853.FINISHED
    assert sol.stats.message == "The stop callable ended the integration at a sampled state."
    assert sol.event is None
    m = sol.t.size
    assert 0 < m < full.t.size
    # the hook saw every sample, and fired on the step holding the first
    # sample past t = pi, where sin t turns negative
    assert np.hstack(seen).tobytes() == sol.t.tobytes()
    assert not (sol.y[0, : m - seen[-1].size] < 0).any() and (seen[-1] > math.pi).any()
    assert sol.t.tobytes() == full.t[:m].tobytes()
    assert sol.y.tobytes() == np.ascontiguousarray(full.y[:, :m]).tobytes()
    assert sol.stats.nfev < full.stats.nfev
    assert sol.stats.n_accepted < full.stats.n_accepted


def test_stop_is_not_consulted_once_t1_is_reached():
    t_eval = np.linspace(0.0, 10.0, 101)
    seen = []

    def at_t1(t, y):
        seen.append(t)
        return t[-1] == 10.0

    sol = dop853.integrate(oscillator, 0.0, 10.0, np.array([0.0, 1.0]), 1e-10,
                           1e-12, t_eval, stop=at_t1)
    assert sol.status == dop853.FINISHED and sol.t[-1] == 10.0
    got = np.hstack(seen)
    assert 0 < got.size < sol.t.size and got.tobytes() == sol.t[: got.size].tobytes()


def test_stop_is_not_consulted_on_an_event_step():
    """g = 0 fires at the start, before the first step samples t0: the
    event ends the run although the hook would stop at any sample."""
    seen = []

    def always(t, y):
        seen.append(t)
        return True

    sol = dop853.integrate(oscillator, 0.0, 10.0, np.array([0.0, 1.0]), 1e-10,
                           1e-12, np.linspace(0.0, 10.0, 101),
                           events=(lambda t, y: 0.0,), stop=always)
    assert sol.status == dop853.EVENT and sol.event == 0 and sol.t[-1] == 0.0
    assert list(sol.t) == [0.0] and seen == []


def test_event_root_matches_scipy():
    """sin t = -1/2 at t = 7 pi / 6: the root lies within 8 eps (1 + |t|)
    of scipy's on the same dense output, on the side where g is still
    positive, and the state there is the dense output's."""

    def below_half(t, y):
        return y[0] + 0.5

    below_half.terminal, below_half.direction = True, -1
    y0 = np.array([0.0, 1.0])
    t_eval = np.linspace(0.0, 10.0, 101)
    sol = dop853.integrate(oscillator, 0.0, 10.0, y0, 1e-10, 1e-12, t_eval,
                           events=(below_half,))
    ref = solve_ivp(_oscillator, (0.0, 10.0), y0, method="DOP853", rtol=1e-10,
                    atol=1e-12, t_eval=t_eval, events=below_half)
    assert sol.status == dop853.EVENT and ref.status == 1
    t_ref = ref.t_events[0][0]
    assert abs(sol.t[-1] - t_ref) <= 8 * dop853.EPS * (1 + abs(t_ref))
    assert sol.t[-1] == pytest.approx(7 * math.pi / 6, abs=1e-9)
    assert below_half(sol.t[-1], sol.y[:, -1]) >= 0
    assert sol.t[:-1].tobytes() == ref.t.tobytes()


@pytest.mark.parametrize("g0", [-1.0, 0.0])
def test_a_start_past_an_event_is_the_whole_run(g0):
    """An event that reads <= 0 at (t0, y0) ends the run there, before any
    rhs call, with the lowest such index and the one column (t0, y0)."""
    calls = []

    def fun(t, y, out):
        calls.append(t)
        oscillator(t, y, out)

    y0 = np.array([0.0, 1.0])
    sol = dop853.integrate(fun, 0.0, 10.0, y0, 1e-10, 1e-12,
                           np.linspace(0.0, 10.0, 11),
                           events=(lambda t, y: 1.0, lambda t, y: g0,
                                   lambda t, y: -1.0))
    assert sol.status == dop853.EVENT and sol.event == 1
    assert sol.t.tolist() == [0.0] and sol.y.tolist() == [[0.0], [1.0]]
    st = sol.stats
    assert (st.nfev, st.n_accepted, st.n_rejected) == (0, 0, 0) and calls == []
    assert st.message == "A termination event occurred."


def test_the_event_state_replaces_a_sample_just_before_it():
    """The event's root and state are the last column; a t_eval point less
    than 1e-12 before the root is dropped, one farther before it is kept."""
    y0 = np.array([0.0, 1.0])
    free = dop853.integrate(oscillator, 0.0, 10.0, y0, 1e-10, 1e-12,
                            np.linspace(0.0, 10.0, 11), events=(below_half,))
    root = free.t[-1]
    assert free.status == dop853.EVENT and root == pytest.approx(7 * math.pi / 6)
    assert below_half(root, free.y[:, -1]) >= 0
    for gap, kept in ((5e-13, False), (1e-9, True)):
        t_eval = np.array([0.0, 1.0, root - gap])
        sol = dop853.integrate(oscillator, 0.0, 10.0, y0, 1e-10, 1e-12, t_eval,
                               events=(below_half,))
        assert sol.t[-1] == root and sol.y[:, -1].tobytes() == free.y[:, -1].tobytes()
        assert sol.t[:-1].tolist() == t_eval[: 3 if kept else 2].tolist()


@pytest.mark.parametrize("name", ["su3", "su4", "sinh_gordon_blow_up"])
def test_an_event_row_lies_on_the_unfired_side(name):
    """The last row of an event-ended shot has crossed neither guard."""
    spec = CASES[name]()
    prof = shot_of(spec)
    assert prof.reason in (TerminationReason.COMPONENT_BLOW_UP,
                           TerminationReason.MASS_OVERFLOW)
    assert BLOWUP_GUARD - prof.values[-1].max() >= 0
    assert spec.mass_guard - prof.masses[-1].sum() >= 0
