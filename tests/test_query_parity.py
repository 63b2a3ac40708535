"""Profile queries read their nodal slopes from a table built once per
profile, and give the bits of the per-query evaluation they replace.

``OracleProfile`` keeps that per-query evaluation: each query brackets r by
``searchsorted``, takes ``math.log`` of the two bracketing nodes and calls
the ODE's slopes (``SystemKind.rhs`` for dw/dt, the capped r^2 e^u for
dsigma/dt) on those two rows only.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from todalab.analysis import (
    _identity_balance,
    bubble_masses,
    pohozaev_check,
    su4_radial_balance,
)
from todalab.ode_engine import (
    _MASS_EXP_CAP,
    RadialProfile,
    ShootSpec,
    TerminationReason,
    find_decaying,
    rescale,
    shoot,
)
from todalab.profile_io import write_profile_json
from todalab.systems import SystemKind, Variant

from conftest import LOG8, read_back, search, shot


class OracleProfile(RadialProfile):
    """A profile whose queries evaluate the slopes of the two bracketing
    nodes on every call."""

    def _hermite_pair(self, r, block, slopes):
        g, r = self.grid, float(r)
        if not self.covers(r, r):
            raise ValueError(f"radius {r:g} outside profile range [{g[0]:g}, {g[-1]:g}]")
        r = min(max(r, g[0]), g[-1])
        n = self.n_components
        cols = slice(block * n, (block + 1) * n)
        if len(g) < 2:
            return self.state[0, cols].copy(), self.state[:1]
        j = min(max(int(g.searchsorted(r, side="right")) - 1, 0), len(g) - 2)
        node = self.state[j : j + 2]
        t0, t1 = math.log(g[j]), math.log(g[j + 1])
        dt = t1 - t0
        x = (math.log(r) - t0) / dt
        wy = ((1.0 + 2.0 * x) * (1.0 - x) ** 2, x * x * (3.0 - 2.0 * x))
        wd = (x * (1.0 - x) ** 2 * dt, x * x * (x - 1.0) * dt)
        d = slopes(node, np.array(((t0,), (t1,))))
        return wy @ node[:, cols] + wd @ d, node

    def value_at(self, r):
        n = self.n_components
        return self._hermite_pair(r, 0, lambda node, t: node[:, n : 2 * n])[0]

    def log_deriv_at(self, r):
        n, rhs = self.n_components, self.system.rhs
        return self._hermite_pair(
            r, 1, lambda node, t: -np.exp(2.0 * t) * rhs(node[:, :n].T).T
        )[0]

    def mass_at(self, r):
        n = self.n_components
        out, node = self._hermite_pair(r, 2, lambda node, t: np.exp(
            np.minimum(node[:, :n] + 2.0 * t, _MASS_EXP_CAP)))
        return out.clip(node[0, 2 * n :], node[-1, 2 * n :])

    @staticmethod
    def of(p: RadialProfile) -> "OracleProfile":
        return OracleProfile(**{f.name: getattr(p, f.name)
                                for f in dataclasses.fields(p)})


def query_radii(p: RadialProfile) -> list[float]:
    """Every node, every log-midpoint, and both ends of the query slack."""
    g = p.grid
    mids = np.exp(0.5 * (np.log(g[:-1]) + np.log(g[1:])))
    return [*g.tolist(), *mids.tolist(), g[0] * (1 - 1e-12), g[-1] * (1 + 1e-12)]


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


PROFILES = {
    "su3": lambda: shot(Variant.AFFINE_SU3, (-28.0, -28.0, 28.0), r_max=1e3),
    "su4": lambda: shot(Variant.AFFINE_SU4, (-12.0, -12.0, 24.0), r_max=1e3),
    "limitpair": lambda: search(
        SystemKind(Variant.LIMIT_PAIR), 0, LOG8, (-5.0, 5.0), tol=1e-4)[1],
    "sinh-gordon": lambda: shot(Variant.SINH_GORDON, (2.0,), r_max=1e3),
    "tzitzeica": lambda: shot(Variant.TZITZEICA, (LOG8,), r_max=1e3),
    "singular-liouville": lambda: shot(
        Variant.LIOUVILLE, (math.log(32.0),), (1.0,), r_max=1e4),
    "one-row": lambda: shot(Variant.LIOUVILLE, (60.0,), r_max=10.0),
    "sinh-gordon-blow-up": lambda: shot(Variant.SINH_GORDON, (-160.0,), r_max=1e3),
    "su3-read-back": lambda: read_back(built("su3")),
}


# the variants without a Pohozaev identity
NO_IDENTITY = {"sinh-gordon", "tzitzeica", "sinh-gordon-blow-up"}


def built(name: str) -> RadialProfile:
    return PROFILES[name]()


def test_the_profiles_have_their_named_shapes():
    assert {k for k in PROFILES if built(k).system.identity is None} == NO_IDENTITY
    assert built("one-row").state.shape == (1, 3)
    blown = built("sinh-gordon-blow-up")
    assert blown.reason is TerminationReason.COMPONENT_BLOW_UP
    assert blown.values[-1].max() == pytest.approx(50.0, rel=1e-9)


@pytest.mark.parametrize("name", list(PROFILES))
def test_queries_have_the_bits_of_the_per_pair_slopes(name):
    profile = built(name)
    oracle = OracleProfile.of(profile)
    for r in query_radii(profile):
        for name in ("value_at", "log_deriv_at", "mass_at", "witness_at"):
            got, want = getattr(profile, name)(r), getattr(oracle, name)(r)
            assert got.shape == want.shape
            assert bits(got) == bits(want), (name, r)


@pytest.mark.parametrize("name", [k for k in PROFILES if k not in NO_IDENTITY])
def test_identity_balances_have_the_bits_of_the_per_pair_slopes(name):
    profile = built(name)
    oracle = OracleProfile.of(profile)
    for r in query_radii(profile):
        got, want = _identity_balance(profile, r), _identity_balance(oracle, r)
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "variant":
                assert a is b
            else:
                assert bits(a) == bits(b), (f.name, r)


class TestNoStaleTable:
    @pytest.fixture()
    def queried(self):
        p = shot(Variant.LIOUVILLE, (LOG8,), r_max=1e3)
        for r in query_radii(p):
            p.value_at(r), p.log_deriv_at(r), p.mass_at(r)
        return p

    def test_replaced_state_answers_from_its_own_rows(self, queried):
        state = queried.state.copy()
        state[:, 0] += 1.0
        q = dataclasses.replace(queried, state=state)
        oracle = OracleProfile.of(q)
        for r in query_radii(q):
            for name in ("value_at", "log_deriv_at", "mass_at"):
                assert bits(getattr(q, name)(r)) == bits(getattr(oracle, name)(r))
        k = len(q.grid) // 2
        assert q.value_at(float(q.grid[k]))[0] == queried.values[k, 0] + 1.0

    @pytest.mark.parametrize("eps", [1e-3, 7.3])
    def test_rescaled_profile_answers_from_its_own_grid(self, queried, eps):
        v = rescale(queried, eps)
        oracle = OracleProfile.of(v)
        for k, r in enumerate(v.grid.tolist()):
            # the mass law sigma(r; v) = sigma(eps r; u), at v's own nodes
            assert v.mass_at(r).tolist() == queried.masses[k].tolist()
        for r in query_radii(v):
            assert bits(v.mass_at(r)) == bits(oracle.mass_at(r))
            assert v.mass_at(r) == pytest.approx(
                queried.mass_at(min(max(eps * r, queried.grid[0]), queried.r_end)),
                rel=1e-9, abs=1e-300)

    def test_a_shot_holds_no_table_until_queried(self):
        p = shoot(ShootSpec(SystemKind(Variant.AFFINE_SU3), (-28.0, -28.0, 28.0),
                            r_max=10.0))
        assert "_nodes" not in vars(p)
        p.mass_at(float(p.grid[0]))
        assert "_nodes" in vars(p)

    def test_a_search_result_holds_no_table(self):
        _, p = find_decaying(SystemKind(Variant.LIMIT_PAIR), 0, LOG8, (-5.0, 5.0))
        assert "_nodes" not in vars(p)


# every way a profile is made: its arrays are read-only, so no write can
# leave the nodal slope table stale
MAKERS = {
    "shoot": lambda p: p,
    "rescale": lambda p: rescale(p, 7.3),
    "profile_from_json_dict": read_back,
    "dataclasses.replace": lambda p: dataclasses.replace(
        p, grid=p.grid.copy(), state=p.state.copy()),
}


@pytest.mark.parametrize("make", MAKERS.values(), ids=list(MAKERS))
def test_a_profile_refuses_writes_into_its_arrays(liouville_profile, make):
    p = make(liouville_profile)
    assert not p.grid.flags.writeable and not p.state.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        p.state[:, 0] += 1


# -- one bracket per radius -------------------------------------------------
# value_at, log_deriv_at and mass_at at one radius share the bracket a
# profile keeps for its last radius; none of them may read another radius's

METHODS = ("value_at", "log_deriv_at", "mass_at")


def interleaved(radii: list[float]):
    """r1, r2, r1, r1, r2 for each consecutive pair (r1, r2) of ``radii``."""
    for r1, r2 in zip(radii[::2], radii[1::2]):
        yield from (r1, r2, r1, r1, r2)


@pytest.mark.parametrize("name", list(PROFILES))
def test_interleaved_queries_have_the_oracle_bits_in_every_order(name):
    profile = built(name)
    oracle = OracleProfile.of(profile)
    orders = list(itertools.permutations(METHODS))
    # sorted, a node and the midpoint after it make a pair in one interval
    for k, r in enumerate(interleaved(sorted(query_radii(profile)))):
        order = list(orders[k % len(orders)])
        order.insert(k % 4, "witness_at")
        for method in order:
            got, want = getattr(profile, method)(r), getattr(oracle, method)(r)
            assert bits(got) == bits(want), (method, r, order)


class TestTheKeptBracket:
    @pytest.mark.parametrize("derive", [
        lambda p: dataclasses.replace(p, state=p.state * 1.5),
        lambda p: rescale(p, 1.5),
    ], ids=["dataclasses.replace", "rescale"])
    def test_a_derived_profile_answers_from_its_own_rows(self, liouville_profile,
                                                         derive):
        p = liouville_profile
        k = len(p.grid) // 2
        r = math.sqrt(p.grid[k] * p.grid[k + 1])
        q = derive(p)
        oracle = OracleProfile.of(q)
        for method in (*METHODS, "witness_at"):
            mine = getattr(p, method)(r)
            got = getattr(q, method)(r)
            assert bits(got) == bits(getattr(oracle, method)(r)), method
            assert bits(got) != bits(mine), method

    @pytest.mark.parametrize("method", [*METHODS, "witness_at"])
    def test_a_radius_outside_the_grid_raises_right_after_one_inside(
            self, liouville_profile, method):
        p = liouville_profile
        oracle = OracleProfile.of(p)
        g = p.grid
        inside = math.sqrt(g[3] * g[4])
        for bad in (g[0] * (1 - 1e-9), g[-1] * (1 + 1e-9), math.nan, math.nan):
            getattr(p, method)(inside)
            with pytest.raises(ValueError, match="outside profile range") as got:
                getattr(p, method)(bad)
            with pytest.raises(ValueError) as want:
                getattr(oracle, method)(bad)
            assert str(got.value) == str(want.value)
            assert bits(getattr(p, method)(inside)) == bits(getattr(oracle, method)(inside))

    def test_the_kept_bracket_is_not_part_of_the_value(self, liouville_profile,
                                                        tmp_path):
        fresh = dataclasses.replace(liouville_profile)
        queried = dataclasses.replace(liouville_profile)
        write_profile_json(queried, tmp_path / "before.json")
        for r in query_radii(queried)[::7]:
            for method in METHODS:
                getattr(queried, method)(r)
        assert queried == fresh
        assert repr(queried) == repr(fresh)
        assert [f.name for f in dataclasses.fields(queried)] == [
            "system", "grid", "state", "reason", "spec", "provenance", "stats"]
        write_profile_json(queried, tmp_path / "after.json")
        write_profile_json(fresh, tmp_path / "fresh.json")
        after = (tmp_path / "after.json").read_bytes()
        assert after == (tmp_path / "before.json").read_bytes()
        assert after == (tmp_path / "fresh.json").read_bytes()


# -- the tracing contract ---------------------------------------------------
# a benchmark's tracer wraps the three queries as class attributes of
# RadialProfile; a balance that bypassed them would leave its per-layer query
# spans empty


@pytest.fixture()
def query_calls(monkeypatch):
    """(method, radius) of every call of the three queries, each counted by a
    wrapper put on the class attribute."""
    calls = []
    for method in METHODS:
        def counted(self, r, *args, _method=method, _fn=getattr(RadialProfile, method)):
            calls.append((_method, float(r)))
            return _fn(self, r, *args)
        monkeypatch.setattr(RadialProfile, method, counted)
    return calls


@pytest.mark.parametrize("check, name", [
    (pohozaev_check, "su3"),
    (pohozaev_check, "limitpair"),
    (pohozaev_check, "su3-read-back"),
    (su4_radial_balance, "su4"),
])
def test_each_balance_calls_each_query_once_per_radius(query_calls, check, name):
    profile = built(name)
    for r in query_radii(profile)[::11]:
        query_calls.clear()
        check(profile, r)
        assert sorted(query_calls) == [(method, r) for method in sorted(METHODS)]


def test_bubble_masses_reads_mass_at(query_calls, spectrum_400):
    ladder = (0.1, 0.01, 0.001, 0.0001)
    bubble_masses(built("limitpair"), ladder, 0.1, spectrum_400)
    assert {r for method, r in query_calls if method == "mass_at"} >= {
        0.1 / e for e in ladder}
