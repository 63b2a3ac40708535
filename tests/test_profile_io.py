"""Profile files hold the profile's own ``grid`` and ``state``, read back
bit-equal; the reader refuses a file whose version or shape is not its own.
Every profile, however it is built, refuses a grid or state whose queries
would read wrong values, and owns where it ends in fast decay."""

import dataclasses
import math

import numpy as np
import pytest

from todalab.analysis import pohozaev_check
from todalab.ode_engine import (
    DECAY_LEVEL,
    RadialProfile,
    TerminationReason,
    classify_shot,
    rescale,
)
from todalab.profile_io import (
    FORMAT_VERSION,
    profile_from_json_dict,
    profile_to_json_dict,
    read_profile_json,
    write_profile_csv,
    write_profile_json,
)
from todalab.systems import SystemKind, Variant

from conftest import LOG8, read_back, shot


# every variant, a singular start, the two ways a shot ends early and a
# rescaled profile, which has no spec; the session fixtures are the tall shots
ZOO = {
    "liouville": lambda rq: rq.getfixturevalue("liouville_profile"),
    "singular_liouville": lambda rq: shot(Variant.LIOUVILLE, (0.0,), (0.5,), r_max=1e3),
    "sinh_gordon": lambda rq: shot(Variant.SINH_GORDON, (2.0,), r_max=10.0),
    "tzitzeica": lambda rq: shot(Variant.TZITZEICA, (1.0,), r_max=10.0),
    "limitpair": lambda rq: rq.getfixturevalue("limitpair_target")[1],
    "su3": lambda rq: rq.getfixturevalue("su3_ladder_profile"),
    "su4": lambda rq: rq.getfixturevalue("su4_bubble_profile"),
    "one_row_blow_up": lambda rq: shot(Variant.LIOUVILLE, (60.0,), r_max=10.0),
    "event_ended": lambda rq: shot(Variant.SINH_GORDON, (-160.0,), r_max=1e3),
    # the search's upper end, whose component 0 re-ignites before it decays
    "reignited_search_shot": lambda rq: shot(Variant.LIMIT_PAIR, (LOG8, 5.0)),
    "rescaled": lambda rq: rescale(rq.getfixturevalue("liouville_profile"), 7.3),
}


class TestRoundTrip:
    def test_the_zoo_has_its_named_shapes(self, request):
        p = {k: make(request) for k, make in ZOO.items()}
        assert {q.system.variant for q in p.values()} == set(Variant)
        assert p["singular_liouville"].system.is_singular
        assert p["one_row_blow_up"].state.shape == (1, 3)
        assert p["event_ended"].reason is TerminationReason.COMPONENT_BLOW_UP
        assert p["su3"].reason is TerminationReason.MASS_OVERFLOW
        assert classify_shot(p["reignited_search_shot"]).first_up == 0
        assert p["rescaled"].spec is None
        # the onset oracle below meets both outcomes
        assert p["liouville"].fast_decay_onset is not None
        assert p["su3"].fast_decay_onset is None

    @pytest.mark.parametrize("name", list(ZOO))
    def test_json_reads_back_equal(self, request, name):
        p = ZOO[name](request)
        assert read_back(p) == p

    def test_bench_profiles_answer_every_query_with_the_same_bits(
            self, tmp_path, limitpair_target, su3_ladder_profile,
            su4_bubble_profile):
        """Through the file, at every node past the first decade and at every
        log-midpoint there: the queries and the Pohozaev balance."""
        for p in (limitpair_target[1], su3_ladder_profile, su4_bubble_profile):
            path = tmp_path / "p.json"
            write_profile_json(p, path)
            q = read_profile_json(path)
            g = p.grid[p.spec.samples_per_decade:]
            mids = np.exp(0.5 * (np.log(g[:-1]) + np.log(g[1:])))
            for r in [*g.tolist(), *mids.tolist()]:
                for name in ("value_at", "log_deriv_at", "mass_at"):
                    got, want = getattr(q, name)(r), getattr(p, name)(r)
                    assert got.tobytes() == want.tobytes(), (name, r)
                a, b = pohozaev_check(q, r), pohozaev_check(p, r)
                assert balance_bits(a) == balance_bits(b), r


def balance_bits(b) -> bytes:
    fields = [*dataclasses.astuple(b)[1:], b.residual, b.balance_residual,
              b.mean_value_gap]
    return np.hstack(fields).astype(float).tobytes()


class TestCsv:
    @pytest.mark.parametrize("name,header", [
        ("liouville", "r,u1,w1,sigma1"),
        ("su3", "r,u1,u2,u3,w1,w2,w3,sigma1,sigma2,sigma3"),
    ])
    def test_columns_are_grid_and_state_bit_for_bit(self, request, tmp_path,
                                                   name, header):
        p = ZOO[name](request)
        path = tmp_path / "p.csv"
        write_profile_csv(p, path, config={"height": 1})
        lines = path.read_text().splitlines()
        assert lines[:3] == ['# config {"height": 1}',
                             f"# reason {p.reason.value}", header]
        table = np.array([[float(x) for x in line.split(",")] for line in lines[3:]])
        assert table.tobytes() == np.column_stack([p.grid, p.state]).tobytes()


class TestReaderRefusesOtherLayouts:
    """A profile file is outside input: each refusal is one ValueError."""

    @pytest.mark.parametrize("version", [1, 99, "2"])
    def test_other_format_versions(self, liouville_profile, version):
        d = {**profile_to_json_dict(liouville_profile), "format_version": version}
        with pytest.raises(ValueError) as err:
            profile_from_json_dict(d)
        assert str(err.value) == (f"profile format_version {version!r}: "
                                  f"this reader reads format {FORMAT_VERSION} only")

    def test_absent_format_version(self, liouville_profile):
        d = profile_to_json_dict(liouville_profile)
        del d["format_version"]
        with pytest.raises(ValueError, match="profile format_version None"):
            profile_from_json_dict(d)

    def test_a_format_1_file(self, liouville_profile):
        """Format 1 kept du/dr under ``derivs``; reading it back took a
        product with the grid that lost the last bit of w."""
        p = liouville_profile
        d = profile_to_json_dict(p)
        del d["state"]
        d.update(format_version=1, values=p.values.tolist(),
                 derivs=(p.log_derivs / p.grid[:, None]).tolist(),
                 masses=p.masses.tolist())
        with pytest.raises(ValueError, match="^profile format_version 1: "):
            profile_from_json_dict(d)

    @pytest.mark.parametrize("shape", [(398, 8), (397, 9), (398, 10), (398,)],
                             ids=["u_block_of_2", "a_row_short", "a_column_more", "flat"])
    def test_a_state_of_the_wrong_shape(self, su3_ladder_profile, shape):
        # (398, 8) is an su3 file whose u block has 2 columns: value_at
        # would have read w1 as u3
        p = su3_ladder_profile
        assert p.state.shape == (398, 9)
        state = np.resize(p.state, shape)
        d = {**profile_to_json_dict(p), "state": state.tolist()}
        with pytest.raises(ValueError) as err:
            profile_from_json_dict(d)
        assert str(err.value) == (
            f"profile state has shape {shape}, expected (398, 9)")

    def test_a_grid_without_nodes_is_named_first(self, su3_ladder_profile):
        d = {**profile_to_json_dict(su3_ladder_profile), "grid": [], "state": [],
             "format_version": 1}
        with pytest.raises(ValueError, match="^profile grid has no nodes$"):
            profile_from_json_dict(d)

    @pytest.mark.parametrize("edit", [
        lambda g: [*g[:200], g[201], g[200], *g[202:]],
        lambda g: [0.0, *g[1:]],
        lambda g: [-g[0], *g[1:]],
        lambda g: [g[0], *g[:-1]],
        lambda g: [*g[:100], math.nan, *g[101:]],
        lambda g: [*g[:-1], math.inf],
    ], ids=["nodes_200_201_swapped", "first_node_zero", "first_node_negative",
            "a_repeated_node", "a_nan_node", "an_infinite_last_node"])
    def test_a_grid_that_is_not_positive_and_increasing(self, su3_ladder_profile,
                                                         edit):
        d = profile_to_json_dict(su3_ladder_profile)
        d["grid"] = edit(d["grid"])
        with pytest.raises(ValueError) as err:
            profile_from_json_dict(d)
        assert str(err.value) == ("profile grid must be positive, finite and "
                                  "strictly increasing")


def final_fast_decay_onset(p):
    """The inward scan that ``analysis.final_fast_decay_onset`` ran before
    the profile owned its onset, kept as the oracle of ``fast_decay_onset``."""
    fast = np.max(p.witnesses, axis=1) <= -DECAY_LEVEL
    if not fast[-1]:
        return None
    k = len(fast) - 1
    while k > 0 and fast[k - 1]:
        k -= 1
    return float(p.grid[k])


class TestFastDecayOnset:
    @pytest.mark.parametrize("name", list(ZOO))
    def test_matches_the_inward_scan(self, request, name):
        p = ZOO[name](request)
        assert p.fast_decay_onset == final_fast_decay_onset(p)

    def test_a_profile_fast_from_its_first_node(self):
        # u ~ -40 keeps every witness below -35 out to r = 10
        p = shot(Variant.LIOUVILLE, (-40.0,), r_max=10.0)
        assert p.fast_decay_onset == final_fast_decay_onset(p) == p.grid[0]


def _short_state(p):
    return {"state": p.state[:, :-1].copy()}


def _swapped_nodes(p):
    grid = p.grid.copy()
    grid[[100, 101]] = grid[[101, 100]]
    return {"grid": grid}


def _nan_masses(p):
    state = p.state.copy()
    state[100:, 2 * p.n_components:] = math.nan
    return {"state": state}


def _by_replace(p, edit):
    return dataclasses.replace(p, **edit)


def _by_constructor(p, edit):
    return RadialProfile(p.system, edit.get("grid", p.grid),
                         edit.get("state", p.state), p.reason)


def _by_reader(p, edit):
    return profile_from_json_dict(
        {**profile_to_json_dict(p), **{k: v.tolist() for k, v in edit.items()}})


class TestEveryProfileIsChecked:
    """``RadialProfile`` refuses, wherever it is built, a grid or state that
    every query would read wrong: a short state broke ``mass_at`` with a
    broadcast error, swapped nodes 100 and 101 made ``value_at(grid[100])``
    read -4.96533 where the profile holds -4.96324, and NaN masses gave a
    nearest member at distance nan."""

    @pytest.fixture(scope="class")
    def profile(self):
        p = shot(Variant.AFFINE_SU3, (-5.0, -5.0, 5.0), r_max=10.0)
        assert p.state.shape == (201, 9)
        return p

    @pytest.mark.parametrize("build", [_by_replace, _by_constructor, _by_reader],
                             ids=["replace", "constructor", "reader"])
    @pytest.mark.parametrize("edit,message", [
        (_short_state, "profile state has shape (201, 8), expected (201, 9)"),
        (_swapped_nodes, "profile grid must be positive, finite and strictly increasing"),
        (_nan_masses, "profile state must be finite"),
    ], ids=["short_state", "swapped_nodes", "nan_masses"])
    def test_refuses(self, profile, build, edit, message):
        with pytest.raises(ValueError) as err:
            build(profile, edit(profile))
        assert str(err.value) == message


class TestSpecIsForTheProfilesSystem:
    """A profile's ``spec`` shoots the profile's own system.  A profile of
    weight 2 that kept the spec of a weight-0 shot loaded silently, and a
    file whose shoot_spec weights differed from its top-level ones read
    back unequal to a new shot of its spec."""

    OTHER = SystemKind(Variant.LIOUVILLE, (2.0,))
    MESSAGE = "^profile spec is for another system$"

    def test_replace(self, liouville_profile):
        with pytest.raises(ValueError, match=self.MESSAGE):
            dataclasses.replace(liouville_profile, system=self.OTHER)

    def test_constructor(self, liouville_profile):
        p = liouville_profile
        with pytest.raises(ValueError, match=self.MESSAGE):
            RadialProfile(self.OTHER, p.grid, p.state, p.reason, p.spec)

    def test_reader(self, liouville_profile):
        d = profile_to_json_dict(liouville_profile)
        d["shoot_spec"]["singular_weights"] = [2.0]
        with pytest.raises(ValueError, match=self.MESSAGE):
            profile_from_json_dict(d)
