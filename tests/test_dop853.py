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
)
from todalab.systems import SystemKind, Variant

from conftest import shot_of

SU3 = SystemKind(Variant.AFFINE_SU3)
SU4 = SystemKind(Variant.AFFINE_SU4)
PAIR = SystemKind(Variant.LIMIT_PAIR)
SINH = SystemKind(Variant.SINH_GORDON)


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

    def fun(t, y):
        calls[0] += 1
        return np.array([y[1], -y[0]])

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
    assert sol.t_event == pytest.approx(math.pi / 6, abs=1e-9)
    assert sol.y_event[0] == pytest.approx(0.5, abs=1e-14)
    assert list(sol.t) == [0.0]
    assert st.message == "A termination event occurred."
    assert st.to_json_dict() == {
        "nfev": st.nfev, "n_accepted": st.n_accepted, "n_rejected": st.n_rejected
    }


def test_step_underflow_keeps_the_message():
    """y' = y^2, y(0) = 1 blows up at t = 1: the step floor ends the run."""
    with np.errstate(over="ignore", invalid="ignore"):
        sol = dop853.integrate(
            lambda t, y: y * y, 0.0, 2.0, np.array([1.0]), 1e-10, 1e-12,
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


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_stop_ends_the_run_on_a_bit_equal_prefix():
    """A true ``stop`` ends the run after the samples it saw; those samples
    are the unstopped run's first ones, bit for bit, at fewer rhs calls."""
    t_eval = np.linspace(0.0, 10.0, 101)
    y0 = np.array([0.0, 1.0])
    full = dop853.integrate(_oscillator, 0.0, 10.0, y0, 1e-10, 1e-12, t_eval)
    seen = []

    def negative(t, y):
        seen.append(t)
        return bool((y[0] < 0).any())

    sol = dop853.integrate(_oscillator, 0.0, 10.0, y0, 1e-10, 1e-12, t_eval,
                           stop=negative)
    assert sol.status == dop853.STOPPED and full.status == dop853.FINISHED
    assert sol.stats.message == "The stop callable ended the integration at a sampled state."
    assert sol.event is None and sol.t_event is None and sol.y_event is None
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

    sol = dop853.integrate(_oscillator, 0.0, 10.0, np.array([0.0, 1.0]), 1e-10,
                           1e-12, t_eval, stop=at_t1)
    assert sol.status == dop853.FINISHED and sol.t[-1] == 10.0
    got = np.hstack(seen)
    assert 0 < got.size < sol.t.size and got.tobytes() == sol.t[: got.size].tobytes()


def test_stop_is_not_consulted_on_an_event_step():
    """g = 0 fires on the first step, which also samples t0: the event
    ends the run although the hook would stop at any sample."""
    seen = []

    def always(t, y):
        seen.append(t)
        return True

    sol = dop853.integrate(_oscillator, 0.0, 10.0, np.array([0.0, 1.0]), 1e-10,
                           1e-12, np.linspace(0.0, 10.0, 101),
                           events=(lambda t, y: 0.0,), stop=always)
    assert sol.status == dop853.EVENT and sol.event == 0 and sol.t_event == 0.0
    assert list(sol.t) == [0.0] and seen == []
