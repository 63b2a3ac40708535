"""Command-line interface: exit codes, file formats, reproducibility."""

import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

from todalab import SystemKind, Variant, spectrum
from todalab.cli import build_parser, main
from todalab.profile_io import profile_to_json_dict, read_profile_json, write_profile_json
from todalab.spectrum import MassTriple

from conftest import search


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("TODALAB_OUTDIR", str(tmp_path))
    return tmp_path


class TestSpectrumCommands:
    def test_check_member(self, capsys, outdir):
        code, out, _ = run(capsys, "spectrum", "check", "--triple", "4,4,12")
        assert code == 0
        assert "member" in out and "(-2, -2)" in out and "residual 0" in out

    def test_check_non_member(self, capsys, outdir):
        code, out, _ = run(capsys, "spectrum", "check", "--triple", "4,4,4")
        assert code == 1
        assert "not a member" in out

    def test_check_json_output(self, capsys, outdir):
        code, out, _ = run(
            capsys, "spectrum", "check", "--triple", "16,0,12", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["member"] is True and doc["index"] == [1, -3]

    def test_check_su4_variant(self, capsys, outdir):
        code, out, _ = run(
            capsys, "spectrum", "check", "--triple", "12,12,0", "--variant", "su4"
        )
        assert code == 0

    def test_malformed_triple_usage_error(self, capsys, outdir):
        code, _, err = run(capsys, "spectrum", "check", "--triple", "4,4")
        assert code == 2
        assert "usage" in err

    def test_missing_triple_usage_error(self, capsys, outdir):
        code, _, _ = run(capsys, "spectrum", "check")
        assert code == 2

    def test_negative_bound_domain_error(self, capsys, outdir):
        code, _, err = run(capsys, "spectrum", "enumerate", "--bound", "-4")
        assert code == 1
        assert "error" in err

    def test_enumerate_writes_sorted_file(self, capsys, outdir):
        code, out, _ = run(capsys, "spectrum", "enumerate", "--bound", "12")
        assert code == 0
        path = outdir / "spectrum_su3_12.txt"
        lines = [
            l for l in path.read_text().splitlines() if not l.startswith("#")
        ]
        rows = [tuple(int(x) for x in l.split()[:3]) for l in lines]
        assert rows == sorted(rows)
        assert (4, 4, 12) in rows and (12, 12, 4) in rows

    def test_equiv_exit_zero(self, capsys, outdir):
        code, out, _ = run(capsys, "spectrum", "equiv", "--bound", "400")
        assert code == 0
        assert "equivalence holds" in out

    @pytest.mark.parametrize("production,patched,extra", [
        ("_on_quadric", lambda found: found - {MassTriple(16, 0, 12)}, (16, 0, 12)),
        ("enumerate_su3", lambda sset: dataclasses.replace(
            sset, members=(*sset.members, MassTriple(4, 4, 4)),
            indices=(*sset.indices, None)), (4, 4, 4)),
    ], ids=["quadric_drops_16_0_12", "sweep_adds_4_4_4"])
    def test_equiv_with_disagreeing_productions_exits_one(
            self, capsys, outdir, monkeypatch, production, patched, extra):
        original = getattr(spectrum, production)
        monkeypatch.setattr(spectrum, production,
                            lambda *args: patched(original(*args)))
        code, out, err = run(capsys, "spectrum", "equiv", "--bound", "40")
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert line == (
            "error: enumeration mismatch: quadric solve and parametrization "
            "disagree (bound=40, only-quadric=[], only-param="
            f"[{MassTriple(*extra)!r}])")

    @pytest.mark.parametrize("argv", [["equiv", "--bound", "40"],
                                      ["check", "--triple", "4,4,12"]])
    def test_commands_that_write_nothing_refuse_out(self, capsys, outdir,
                                                    monkeypatch, argv):
        monkeypatch.chdir(outdir)
        with pytest.raises(SystemExit) as exc:
            run(capsys, "spectrum", *argv, "--out", "x")
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("argv,code", [(["equiv", "--bound", "40"], 0),
                                           (["check", "--triple", "4,4,4"], 1)])
    def test_commands_that_write_nothing_accept_out_key(self, capsys, outdir,
                                                        monkeypatch, argv, code):
        # "out" stays a config key of theirs, so a shared config still loads
        monkeypatch.chdir(outdir)
        (outdir / "run.json").write_text(json.dumps({"out": "x"}))
        got, _, err = run(capsys, "spectrum", *argv, "--config", "run.json")
        assert (got, err) == (code, "")
        assert [p.name for p in outdir.iterdir()] == ["run.json"]

    def test_print_config(self, capsys, outdir):
        code, out, _ = run(capsys, "spectrum", "enumerate", "--print-config")
        assert code == 0
        cfg = json.loads(out)
        assert cfg["schema_version"] == 1 and cfg["bound"] == 400


class TestShootCommand:
    def test_liouville_masses(self, capsys, outdir):
        code, out, _ = run(
            capsys,
            "shoot", "--system", "liouville",
            "--height", "2.0794415416798357",
            "--r-max", "1000", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["final_masses"][0] == pytest.approx(4.0, abs=1e-6)
        assert doc["reason"] == "reached_r_max"

    def test_su4_zero_heights_non_decaying(self, capsys, outdir):
        code, out, _ = run(
            capsys,
            "shoot", "--system", "su4", "--heights", "0,0,0",
            "--r-max", "100", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["final_masses"][0] == pytest.approx(5000.0, rel=1e-6)
        assert not any(doc["mass_converged"])

    def test_step_underflow_prints_the_solver_message(self, capsys, outdir, monkeypatch):
        monkeypatch.setattr(SystemKind, "rhs", lambda self, u: np.full_like(u, np.nan))
        code, out, _ = run(capsys, "shoot", "--system", "liouville", "--height", "0",
                           "--r-max", "10")
        assert code == 0
        assert "terminated: step_underflow" in out
        assert "solver: Required step size is less than spacing between numbers.\n" in out

    def test_sinh_gordon_shot_has_no_mean_value_line(self, capsys, outdir):
        argv = ["shoot", "--system", "sinh-gordon", "--height", "2", "--r-max", "10"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["max_mean_value_residual"] is None
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "terminated", "final masses", "max constraint violation",
            f"wrote {outdir / 'profile_sinh-gordon.csv'}"]

    def test_start_above_the_mass_guard_is_one_row(self, capsys, outdir):
        """The start's summed mass, 5e-9, is above the guard: the shot ends
        at r_start with that guard's reason."""
        argv = ["shoot", "--system", "liouville", "--height", "0",
                "--mass-guard", "1e-12", "--r-max", "1000"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == "terminated: mass_overflow at r = 0.0001"
        code, out, _ = run(capsys, *argv, "--json")
        doc = json.loads(out)
        assert (doc["reason"], doc["r_end"]) == ("mass_overflow", pytest.approx(1e-4))
        assert doc["stats"] == {"nfev": 0, "n_accepted": 0, "n_rejected": 0}

    def test_missing_height_usage_error(self, capsys, outdir):
        code, _, _ = run(capsys, "shoot", "--system", "liouville")
        assert code == 2

    def test_csv_profile_format(self, capsys, outdir):
        path = outdir / "prof.csv"
        code, _, _ = run(
            capsys,
            "shoot", "--system", "liouville", "--height", "1.0",
            "--r-max", "10", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config ")
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "r,u1,w1,sigma1"
        first = next(l for l in lines if not l.startswith("#") and l != header)
        assert len(first.split(",")) == 4

    def test_config_file_reproducibility(self, capsys, outdir):
        cfg = {
            "schema_version": 1,
            "system": "liouville",
            "heights": [1.5],
            "r_max": 100.0,
        }
        cfg_path = outdir / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        a, b = outdir / "a.csv", outdir / "b.csv"
        assert run(capsys, "shoot", "--config", str(cfg_path), "--out", str(a))[0] == 0
        assert run(capsys, "shoot", "--config", str(cfg_path), "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output_path(self, capsys, outdir):
        code, _, err = run(
            capsys,
            "shoot", "--system", "liouville", "--height", "1.0",
            "--r-max", "10", "--out", str(outdir / "no_such_dir" / "x.csv"),
        )
        assert code == 1
        assert "error" in err

    def test_unknown_config_key_rejected(self, capsys, outdir):
        cfg_path = outdir / "bad.json"
        cfg_path.write_text(json.dumps({"schema_version": 1, "bogus": 1}))
        code, _, err = run(
            capsys, "shoot", "--config", str(cfg_path), "--height", "1.0"
        )
        assert code == 1 and "unknown config keys" in err

    def test_sweep_ordered_outputs(self, capsys, outdir):
        code, out, _ = run(
            capsys,
            "shoot", "--system", "liouville", "--height", "0.0",
            "--sweep", "0.5,1.0,1.5", "--r-max", "1000", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["sweep"]) == 3
        for i in range(3):
            assert (outdir / f"profile_{i:03d}.csv").exists()
        # every height gives total mass 4 (scalar family)
        for entry in doc["sweep"]:
            assert entry["final_masses"][0] == pytest.approx(4.0, abs=1e-5)


    def test_sweep_matches_single_shots_in_input_order(self, capsys, outdir,
                                                         monkeypatch):
        monkeypatch.chdir(outdir)
        code, out, _ = run(
            capsys,
            "shoot", "--system", "liouville", "--height", "0.0",
            "--sweep", "1.0,0.5", "--r-max", "10", "--out", "sweep", "--json",
        )
        assert code == 0
        sweep = json.loads(out)["sweep"]
        assert [e["out"] for e in sweep] == ["sweep_000.csv", "sweep_001.csv"]
        for entry, height in zip(sweep, ("1.0", "0.5")):
            single = outdir / f"single_{height}.csv"
            code, out, _ = run(
                capsys,
                "shoot", "--system", "liouville", "--height", height,
                "--r-max", "10", "--out", str(single), "--json",
            )
            assert code == 0
            doc = json.loads(out)
            assert {k: doc[k] for k in entry if k != "out"} == {
                k: v for k, v in entry.items() if k != "out"}
            # the bodies agree; only the embedded config line differs
            body = lambda path: path.read_text().split("\n", 1)[1]
            assert body(outdir / entry["out"]) == body(single)

    def test_sweep_refuses_workers_flag(self, capsys, outdir):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "shoot", "--system", "liouville", "--height", "0.0",
                "--sweep", "0.5,1.0", "--r-max", "10", "--workers", "2")
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_sweep_refuses_workers_config_key(self, capsys, outdir):
        cfg_path = outdir / "run.json"
        cfg_path.write_text(json.dumps({"workers": 2, "sweep": [0.5, 1.0]}))
        code, out, err = run(capsys, "shoot", "--config", str(cfg_path),
                             "--height", "0.0", "--r-max", "10")
        assert (code, out) == (1, "")
        assert err == "error: unknown config keys: ['workers']\n"
        assert [p.name for p in outdir.iterdir()] == ["run.json"]


class TestTargetCommand:
    def test_limitpair_target(self, capsys, outdir):
        code, out, _ = run(
            capsys,
            "target", "--system", "limitpair", "--anchor", "2.08",
            "--bracket=-5,5", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["masses"][0] == pytest.approx(16.0, rel=0.01)
        assert doc["masses"][1] == pytest.approx(12.0, rel=0.01)
        assert (outdir / "target_limitpair.json").exists()

    def test_json_counts_the_search(self, capsys, outdir):
        from todalab import find_decaying

        trace = []
        find_decaying(SystemKind(Variant.LIMIT_PAIR), 0, 2.08, (-5.0, 5.0), trace=trace)
        code, out, _ = run(
            capsys,
            "target", "--system", "limitpair", "--anchor", "2.08",
            "--bracket=-5,5", "--json",
        )
        assert code == 0
        assert json.loads(out)["search"] == {
            "shots": len(trace), "nfev": sum(c.stats.nfev for c in trace)}
        code, out, _ = run(
            capsys,
            "target", "--system", "limitpair", "--anchor", "2.0",
            "--bracket=-40,-20", "--json",
        )
        assert code == 1
        doc = json.loads(out)
        # the midpoint -30, then both ends, none settled by r_max
        assert doc["search"]["shots"] == len(doc["trace"]) == 3
        assert doc["search"]["nfev"] > 0
        # no shot settles by r_max = 1e3: the search stops after its
        # midpoint and two ends
        code, out, _ = run(
            capsys,
            "target", "--system", "limitpair", "--anchor", "2.0794415416798357",
            "--bracket=-5,15", "--r-max", "1000", "--json",
        )
        assert code == 1
        assert json.loads(out)["search"] == {"shots": 3, "nfev": 4695}

    def test_text_counts_the_search(self, capsys, outdir):
        argv = ["target", "--system", "limitpair", "--anchor", "2.08", "--bracket=-5,5"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        counts = json.loads(out)["search"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[-2:] == [
            f"search: {counts['shots']} shots, {counts['nfev']} rhs calls",
            f"wrote {outdir / 'target_limitpair.json'}"]
        # the README's bracket: its midpoint 0 decays, so the search is one shot
        assert counts["shots"] == 1 and counts["nfev"] > 0

    @pytest.mark.parametrize("bracket", ["nan,5", "-inf,5", "5,inf", "1e308,1.7e308"])
    def test_non_finite_bracket_exit_one(self, capsys, outdir, bracket):
        code, out, err = run(capsys, "target", "--system", "limitpair", "--anchor",
                             "2.08", f"--bracket={bracket}")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: search interval must be finite, with a finite midpoint; got "
            f"{tuple(float(x) for x in bracket.split(','))!r}"]
        assert list(outdir.iterdir()) == []

    def test_one_component_bracket_is_checked(self, capsys, outdir):
        """A Liouville search shoots only its anchor, but refuses the same
        bracket the limit pair refuses, before that shot."""
        code, out, err = run(capsys, "target", "--system", "liouville", "--anchor",
                             "2.08", "--bracket=nan,5")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: search interval must be finite, with a finite midpoint; got "
            "(nan, 5.0)"]
        assert list(outdir.iterdir()) == []

    def test_bad_bracket_exit_one(self, capsys, outdir):
        code, _, err = run(
            capsys,
            "target", "--system", "limitpair", "--anchor", "2.08",
            "--bracket", "0,0",
        )
        assert code == 1
        assert "error" in err

    def test_tolerance_consistency(self, capsys, outdir):
        masses = {}
        for tol in ("1e-2", "1e-3"):
            code, out, _ = run(
                capsys,
                "target", "--system", "limitpair", "--anchor", "2.08",
                "--bracket=-5,5", "--tol", tol, "--json",
            )
            assert code == 0
            masses[tol] = json.loads(out)["masses"]
        assert masses["1e-2"][0] == pytest.approx(masses["1e-3"][0], rel=1e-2)
        assert masses["1e-2"][1] == pytest.approx(masses["1e-3"][1], rel=1e-2)

    def test_missing_bracket_usage_error(self, capsys, outdir):
        code, _, _ = run(capsys, "target", "--system", "limitpair", "--anchor", "2.0")
        assert code == 2

    def test_a_failed_search_lists_its_shots_in_text(self, capsys, outdir):
        argv = ["target", "--anchor", "2.0", "--bracket=-40,-20"]
        code, out, _ = run(capsys, *argv, "--json")
        doc = json.loads(out)
        assert code == 1 and len(doc["trace"]) == 3
        assert run(capsys, *argv) == (1, "", "".join(
            f"{line}\n" for line in [f"error: {doc['error']}",
                                      *(f"  {t}" for t in doc["trace"])]))

    def test_trace_lines_state_fate_and_walk(self, capsys, outdir):
        """From (-5, 120) the midpoint 57.5 blows up at the start without
        re-igniting, and the lower end -5 decays after component 1
        re-ignites; a failed search's text trace names the fate too."""
        code, out, _ = run(capsys, "target", "--anchor", "2.0794415416798357",
                           "--bracket=-5,120", "--json")
        assert code == 0
        assert json.loads(out)["trace"] == [
            "height=57.5 over (blow-up) witness=-2.39; walk: no re-ignition",
            "height=-5 under (decays) masses=(16, 12); "
            "walk: component 1 re-ignites at r=0.5957"]
        code, _, err = run(capsys, "target", "--anchor", "2.0", "--bracket=-40,-20")
        assert code == 1
        assert err.splitlines() == [
            "error: no decaying solution found after 3 shots; 3 of them reached "
            "r_max = 1e+06 without decaying, so a larger r_max may let a shot decay",
            *(f"  height={h} over (unsettled at r_max) witness={w}; "
              "walk: component 1 re-ignites at r=0.631"
              for h, w in (("-30", "-4.57"), ("-40", "-2.04"), ("-20", "-1.34")))]


@pytest.fixture(scope="session")
def base_profile(tmp_path_factory):
    """The profile file of ``target --system limitpair --anchor 2.0794415417
    --bracket=-5,5``, from the registry's run of that search."""
    path = tmp_path_factory.mktemp("base") / "base.json"
    _, prof = search(SystemKind(Variant.LIMIT_PAIR), 0, 2.0794415417, (-5.0, 5.0))
    write_profile_json(prof, path)
    return path


class TestBubbleCommand:
    def test_report_and_series(self, capsys, outdir, base_profile):
        code, out, _ = run(
            capsys,
            "bubble", "--base", str(base_profile),
            "--ladder", "0.1,0.01,0.001,0.0001", "--delta", "0.1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["nearest"] == [16, 0, 12]
        assert doc["nearest_index"] == [1, -3]
        assert doc["distance"] < 0.2
        report = json.loads((outdir / "bubble_report.json").read_text())
        assert report["nearest"] == [16, 0, 12]
        sigma = (outdir / "bubble_delta_sigma.dat").read_text().splitlines()
        assert sigma[0].startswith("#") and len(sigma) >= 2
        assert len(sigma[1].split()) == 4
        witness = (outdir / "bubble_witness.dat").read_text().splitlines()
        assert witness[0] == "# r witness1 witness2"
        assert len(witness[1].split()) == 3

    def test_trivial_ladder_matches_totals(self, capsys, outdir, base_profile):
        base = read_profile_json(base_profile)
        r_end = float(base.grid[-1]) * 0.99
        code, out, _ = run(
            capsys,
            "bubble", "--base", str(base_profile), "--ladder", "1.0",
            "--delta", f"{r_end}", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["measured"][0] == pytest.approx(16.0, rel=0.01)

    def test_unreadable_base_domain_error(self, capsys, outdir):
        code, _, err = run(
            capsys,
            "bubble", "--base", str(outdir / "missing.json"),
            "--ladder", "0.1", "--delta", "0.1",
        )
        assert code == 1
        assert "cannot read base profile" in err

    def test_su4_base_against_su4_spectrum(self, capsys, outdir):
        path = outdir / "su4.json"
        code, _, _ = run(capsys, "shoot", "--system", "su4", "--heights=-12,-12,24",
                         "--r-max", "6", "--format", "json", "--out", str(path))
        assert code == 0
        code, out, err = run(capsys, "bubble", "--base", str(path), "--ladder",
                             "1,0.1", "--delta", "0.001", "--spectrum-variant", "su4",
                             "--json")
        assert code == 0, err
        base = read_profile_json(path)
        assert json.loads(out)["measured"] == base.mass_at(0.01).tolist()

    def test_bad_ladder_domain_error(self, capsys, outdir, base_profile):
        code, _, _ = run(
            capsys,
            "bubble", "--base", str(base_profile),
            "--ladder", "0.01,0.1", "--delta", "0.1",
        )
        assert code == 1


class TestProfileRoundTrip:
    def test_json_round_trip(self, capsys, outdir):
        path = outdir / "p.json"
        code, _, _ = run(
            capsys,
            "shoot", "--system", "su3", "--heights", "1,1,-1",
            "--r-max", "10", "--format", "json", "--out", str(path),
        )
        assert code == 0
        prof = read_profile_json(path)
        assert prof.system.variant.value == "su3"
        assert prof.n_components == 3
        assert np.all(np.diff(prof.grid) > 0)
        assert prof.spec is not None and prof.spec.r_max == 10


class TestSolverStatsOutput:
    def test_shoot_json_stats_key(self, capsys, outdir):
        argv = ("shoot", "--system", "liouville", "--height", "2.0",
                "--r-max", "1000", "--json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        st = doc["stats"]
        assert sorted(st) == ["n_accepted", "n_rejected", "nfev"]
        assert st["n_accepted"] > 0
        dense = st["nfev"] - 2 - 12 * (st["n_accepted"] + st["n_rejected"])
        assert dense % 3 == 0 and 0 < dense // 3 <= st["n_accepted"]
        # counts only: the payload stays byte-reproducible
        assert run(capsys, *argv)[1] == out

    def test_sweep_json_stats_per_job(self, capsys, outdir):
        code, out, _ = run(
            capsys,
            "shoot", "--system", "liouville", "--height", "0.0",
            "--sweep", "0.5,1.0", "--r-max", "100", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["stats"]) == 2 and all(s["nfev"] > 0 for s in doc["stats"])
        assert all("stats" not in entry for entry in doc["sweep"])


class TestTargetFailsFast:
    def test_su3_exits_one_before_any_shot(self, capsys, outdir, monkeypatch):
        from todalab import ode_engine

        shots = []
        monkeypatch.setattr(ode_engine, "shoot", lambda spec: shots.append(spec))
        code, out, _ = run(
            capsys,
            "target", "--system", "su3", "--anchor", "2.0794415417",
            "--bracket=-5,5", "--json",
        )
        assert code == 1 and shots == []
        doc = json.loads(out)
        assert "constraint" in doc["error"] and doc["trace"] == []


class TestConfigValueChoices:
    """A config-file value must satisfy the same choices as its flag."""

    @pytest.mark.parametrize(
        "argv,cfg,key",
        [
            (["shoot"], {"format": "xml", "heights": [1.0], "r_max": 10.0}, "format"),
            (["shoot"], {"system": "su5", "heights": [1.0], "r_max": 10.0}, "system"),
            (["target"], {"system": "su5", "anchor": 2.08, "bracket": [-5, 5]},
             "system"),
            (["spectrum", "enumerate"], {"variant": "su5", "bound": 12}, "variant"),
        ],
    )
    def test_value_outside_choices_exits_one(self, capsys, outdir, argv, cfg, key):
        cfg_path = outdir / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, *argv, "--config", str(cfg_path), "--json")
        assert code == 1 and out == ""
        assert f"config key '{key}'" in err
        assert [p.name for p in outdir.iterdir()] == ["run.json"]

    def test_bubble_spectrum_variant(self, capsys, outdir, base_profile):
        cfg_path = outdir / "run.json"
        cfg_path.write_text(json.dumps({
            "spectrum_variant": "su5", "base": str(base_profile),
            "ladder": [0.1, 0.01], "delta": 0.1,
        }))
        before = sorted(p.name for p in outdir.iterdir())
        code, out, err = run(capsys, "bubble", "--config", str(cfg_path), "--json")
        assert code == 1 and out == ""
        assert "config key 'spectrum_variant'" in err
        assert sorted(p.name for p in outdir.iterdir()) == before


class TestConfigValueTypes:
    """A config-file value must pass its flag's type, and is stored as given."""

    def write_cfg(self, outdir, cfg):
        cfg_path = outdir / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        return str(cfg_path)

    @pytest.mark.parametrize(
        "argv,cfg,key",
        [
            (["spectrum", "enumerate"], {"bound": "x"}, "bound"),
            (["shoot"], {"samples_per_decade": "x", "heights": [1.0],
                         "sweep": [0.5, 1.0], "r_max": 10.0}, "samples_per_decade"),
        ],
    )
    def test_value_failing_type_exits_one(self, capsys, outdir, argv, cfg, key):
        code, out, err = run(capsys, *argv, "--config", self.write_cfg(outdir, cfg),
                             "--json")
        assert code == 1 and out == ""
        assert f"config key '{key}'" in err
        assert [p.name for p in outdir.iterdir()] == ["run.json"]

    def test_null_in_number_list_is_usage_error(self, capsys, outdir):
        code, out, err = run(capsys, "shoot", "--config",
                             self.write_cfg(outdir, {"heights": [None]}))
        assert code == 2 and out == ""
        assert "malformed number list" in err
        assert [p.name for p in outdir.iterdir()] == ["run.json"]

    def test_numeric_string_printed_as_given(self, capsys, outdir):
        code, out, _ = run(capsys, "spectrum", "enumerate", "--config",
                           self.write_cfg(outdir, {"bound": "40"}), "--print-config")
        assert code == 0
        assert json.loads(out)["bound"] == "40"

    @pytest.mark.parametrize(
        "argv,cfg,key,kind",
        [
            (["spectrum", "enumerate"], {"bound": 12.9}, "bound", "int"),
            (["spectrum", "enumerate"], {"bound": True}, "bound", "int"),
            (["spectrum", "enumerate"], {"bound": 40.0}, "bound", "int"),
            (["shoot"], {"heights": [1.0], "r_max": True}, "r_max", "float"),
        ],
    )
    def test_value_its_flag_would_refuse_exits_one(self, capsys, outdir, argv,
                                                    cfg, key, kind):
        # `--bound 12.9` and `--r-max True` are usage errors on the command line
        code, out, err = run(capsys, *argv, "--config", self.write_cfg(outdir, cfg),
                             "--json")
        assert code == 1 and out == ""
        assert f"error: config key '{key}' must be {kind}" in err
        assert [p.name for p in outdir.iterdir()] == ["run.json"]

    @pytest.mark.parametrize(
        "argv,cfg",
        [
            (["spectrum", "enumerate"], {"bound": 40}),
            (["spectrum", "enumerate"], {"bound": "40"}),
            (["shoot"], {"r_max": 100}),
        ],
    )
    def test_value_its_flag_would_accept_is_kept(self, capsys, outdir, argv, cfg):
        code, out, _ = run(capsys, *argv, "--config", self.write_cfg(outdir, cfg),
                           "--print-config")
        assert code == 0
        (key, value), = cfg.items()
        assert json.loads(out)[key] == value

    def test_numeric_string_runs_at_its_flag_type(self, capsys, outdir):
        cfg_path = self.write_cfg(outdir, {"r_start": "1e-5"})
        path = outdir / "p.json"
        code, _, err = run(capsys, "shoot", "--config", cfg_path, "--height", "0",
                           "--r-max", "10", "--format", "json", "--out", str(path))
        assert code == 0, err
        doc = json.loads(path.read_text())
        assert doc["shoot_spec"]["r_start"] == 1e-05
        assert doc["config"]["r_start"] == "1e-5"
        code, out, _ = run(capsys, "shoot", "--config", cfg_path, "--print-config")
        assert code == 0
        assert json.loads(out)["r_start"] == "1e-5"


_SPECTRUM_DEFAULTS = {"bound": 400, "out": None, "schema_version": 1, "triple": None,
                      "variant": "su3"}
_TOLERANCES = {"abs_tol": 1e-12, "r_max": 1000000.0, "rel_tol": 1e-10,
               "samples_per_decade": 40}
_SHOOT_DEFAULTS = {**_TOLERANCES, "format": "csv", "heights": None,
                   "mass_guard": 1000000.0, "out": None, "r_start": None,
                   "schema_version": 1, "sweep": None, "system": "liouville",
                   "weights": None}
_TARGET_DEFAULTS = {**_TOLERANCES, "anchor": None, "anchor_component": 0,
                    "bracket": None, "out": None, "schema_version": 1,
                    "system": "limitpair", "tol": 0.001}
_BUBBLE_DEFAULTS = {"base": None, "delta": 0.1, "ladder": None, "out": None,
                    "schema_version": 1, "series_prefix": None,
                    "spectrum_bound": 400, "spectrum_variant": "su3"}
_COMMON_OPTIONS = {"-h": "help", "--help": "help", "--config": "config",
                   "--json": "json", "--print-config": "print_config", "--out": "out"}
_SPECTRUM_OPTIONS = {**_COMMON_OPTIONS, "--variant": "variant", "--bound": "bound"}
# check and equiv write no file, so take no --out
_SPECTRUM_WRITES_NOTHING = {k: v for k, v in _SPECTRUM_OPTIONS.items() if k != "--out"}
_RUN_OPTIONS = {"--r-max": "r_max", "--rel-tol": "rel_tol", "--abs-tol": "abs_tol",
                "--samples-per-decade": "samples_per_decade"}


class TestPrintConfig:
    """Resolved configs and option strings, as the parser built them before
    each option was declared once."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["spectrum", "enumerate"], _SPECTRUM_DEFAULTS),
            (["spectrum", "check"], _SPECTRUM_DEFAULTS),
            (["spectrum", "equiv"], _SPECTRUM_DEFAULTS),
            (["shoot"], _SHOOT_DEFAULTS),
            (["target"], _TARGET_DEFAULTS),
            (["bubble"], _BUBBLE_DEFAULTS),
        ],
    )
    def test_defaults(self, capsys, outdir, argv, expected):
        code, out, _ = run(capsys, *argv, "--print-config")
        assert code == 0
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "argv,cfg,expected",
        [
            (["spectrum", "enumerate", "--bound", "60"],
             {"schema_version": 1, "bound": 40, "variant": "su4"},
             {**_SPECTRUM_DEFAULTS, "bound": 60, "variant": "su4"}),
            (["spectrum", "check", "--triple", "4,4,12"],
             {"bound": 40, "variant": "su4"},
             {**_SPECTRUM_DEFAULTS, "bound": 40, "triple": "4,4,12",
              "variant": "su4"}),
            (["spectrum", "equiv", "--variant", "su3"],
             {"bound": 40, "variant": "su4"},
             {**_SPECTRUM_DEFAULTS, "bound": 40}),
            (["shoot", "--r-max", "100"],
             {"schema_version": 1, "system": "su3", "heights": [1, 1, -1],
              "r_max": 10.0},
             {**_SHOOT_DEFAULTS, "heights": [1, 1, -1], "r_max": 100.0,
              "system": "su3"}),
            (["target", "--anchor", "2.08"],
             {"system": "limitpair", "tol": 0.01, "bracket": [-5, 5]},
             {**_TARGET_DEFAULTS, "anchor": 2.08, "bracket": [-5, 5], "tol": 0.01}),
            (["bubble", "--delta", "0.1"],
             {"delta": 0.2, "spectrum_bound": 100, "ladder": [0.1, 0.01]},
             {**_BUBBLE_DEFAULTS, "ladder": [0.1, 0.01], "spectrum_bound": 100}),
        ],
    )
    def test_config_file_with_overriding_flag(self, capsys, outdir, argv, cfg,
                                              expected):
        cfg_path = outdir / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, *argv, "--config", str(cfg_path), "--print-config")
        assert code == 0
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "path,expected",
        [
            (["spectrum", "enumerate"], _SPECTRUM_OPTIONS),
            (["spectrum", "check"], {**_SPECTRUM_WRITES_NOTHING, "--triple": "triple"}),
            (["spectrum", "equiv"], _SPECTRUM_WRITES_NOTHING),
            (["shoot"], {**_COMMON_OPTIONS, **_RUN_OPTIONS, "--system": "system",
                         "--height": "heights", "--heights": "heights",
                         "--weights": "weights", "--r-start": "r_start",
                         "--mass-guard": "mass_guard", "--format": "format",
                         "--sweep": "sweep"}),
            (["target"], {**_COMMON_OPTIONS, **_RUN_OPTIONS, "--system": "system",
                          "--anchor": "anchor", "--anchor-component": "anchor_component",
                          "--bracket": "bracket", "--tol": "tol"}),
            (["bubble"], {**_COMMON_OPTIONS, "--base": "base", "--ladder": "ladder",
                          "--delta": "delta", "--spectrum-variant": "spectrum_variant",
                          "--spectrum-bound": "spectrum_bound",
                          "--series-prefix": "series_prefix"}),
        ],
    )
    def test_option_strings(self, path, expected):
        parser = build_parser()
        for name in path:
            (subs,) = [a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]
            parser = subs.choices[name]
        got = {s: a.dest for a in parser._actions for s in a.option_strings}
        assert got == expected


_ANCHOR = "2.0794415417"
_TARGET_RUN = ["target", "--anchor", _ANCHOR, "--bracket=-5,5"]
_BUBBLE_BAD = ["bubble", "--base", "bad.json", "--ladder", "0.1"]


def _null_spec_key(key):
    def edit(doc):
        doc["shoot_spec"][key] = None
        return doc
    return edit


class TestExitContract:
    """Each run ends with its exit code and at most one message line, never a
    traceback: a ValueError or OSError exits 1, a UsageError exits 2."""

    @pytest.mark.parametrize(
        "argv,cfg,edit,code,message",
        [
            ([*_TARGET_RUN, "--anchor-component", "5"], None, None, 1,
             "anchor component out of range"),
            ([*_TARGET_RUN, "--anchor-component", "-1"], None, None, 1,
             "anchor component out of range"),
            ([*_TARGET_RUN, "--rel-tol", "1"], None, None, 1,
             "tolerances must lie in (0, 1e-2]"),
            ([*_TARGET_RUN, "--r-max", "1e-9"], None, None, 1,
             "need 0 < r_start < r_max"),
            (["spectrum", "equiv", "--bound", "-4"], None, None, 1,
             "bound must be non-negative"),
            (["bubble", "--base", "pair.json", "--ladder", "0.1",
              "--spectrum-bound", "-4"], None, None, 1, "bound must be non-negative"),
            (_BUBBLE_BAD, None, _null_spec_key("r_max"), 1,
             "cannot read base profile bad.json: "),
            (_BUBBLE_BAD, None, _null_spec_key("samples_per_decade"), 1,
             "cannot read base profile bad.json: "),
            (_BUBBLE_BAD, None, _null_spec_key("init_heights"), 1,
             "cannot read base profile bad.json: "),
            (_BUBBLE_BAD, None, lambda doc: {**doc, "grid": None}, 1,
             "cannot read base profile bad.json: "),
            (_BUBBLE_BAD, None, lambda doc: [doc], 1,
             "cannot read base profile bad.json: "),
            (["spectrum", "check"], {"triple": 5}, None, 2,
             "triple must have three components, got '5'"),
            (["bubble"], {"base": 5, "ladder": [0.1]}, None, 1,
             "cannot read base profile 5: "),
            (["shoot", "--height", "0", "--r-max", "10"], {"out": 5}, None, 0, None),
            (_TARGET_RUN, {"out": 7}, None, 0, None),
            (["spectrum", "check", "--triple", "1,2,x"], None, None, 2,
             "malformed triple '1,2,x'"),
            (["spectrum", "enumerate", "--config", "missing.json"], None, None, 1,
             "cannot read config missing.json: "
             "[Errno 2] No such file or directory: 'missing.json'"),
            (["spectrum", "enumerate"], {"schema_version": 2}, None, 1,
             "unsupported config schema_version 2"),
            (["spectrum", "equiv", "--variant", "su4"], None, None, 1,
             "equiv applies to the su3 spectrum"),
            ([*_TARGET_RUN[:-1], "--bracket=1,2,3"], None, None, 1,
             "bracket must be lo,hi"),
            (["bubble", "--ladder", "0.1"], None, None, 2,
             "bubble needs --base profile.json and --ladder e1,e2,..."),
        ],
        ids=["anchor_component_5", "anchor_component_-1", "rel_tol_1",
             "r_max_below_r_start", "equiv_negative_bound",
             "bubble_negative_spectrum_bound", "base_null_r_max",
             "base_null_samples_per_decade", "base_null_init_heights",
             "base_null_grid", "base_json_list", "config_int_triple",
             "config_int_base", "shoot_config_int_out", "target_config_int_out",
             "malformed_triple", "missing_config", "schema_version_2",
             "equiv_su4", "three_bracket_ends", "bubble_without_base"],
    )
    def test_invocation(self, capsys, outdir, monkeypatch, limitpair_target,
                        argv, cfg, edit, code, message):
        monkeypatch.chdir(outdir)
        doc = profile_to_json_dict(limitpair_target[1])
        (outdir / "pair.json").write_text(json.dumps(doc))
        if edit is not None:
            (outdir / "bad.json").write_text(json.dumps(edit(doc)))
        if cfg is not None:
            (outdir / "run.json").write_text(json.dumps(cfg))
            argv = [*argv, "--config", "run.json"]
        got, _, err = run(capsys, *argv)
        assert got == code
        if message is None:
            # a number for "out" names the file, as the same text as a flag does
            assert err == ""
            written = (outdir / str(cfg["out"])).read_bytes()
            assert run(capsys, *argv, "--out", "flag_out")[0] == 0
            assert (outdir / "flag_out").read_bytes() == written
        else:
            (line,) = err.splitlines()
            prefix = "usage error: " if code == 2 else "error: "
            assert line.startswith(prefix + message)


class TestMalformedInputFiles:
    """A config or base profile that parses as JSON but has the wrong shape
    exits 1 with one message line, never a traceback."""

    @pytest.mark.parametrize("text", ["[1]", "5"], ids=["list", "int"])
    def test_config_not_an_object(self, capsys, outdir, monkeypatch, text):
        monkeypatch.chdir(outdir)
        (outdir / "c.json").write_text(text)
        code, out, err = run(capsys, "shoot", "--config", "c.json")
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert line == ("error: cannot read config c.json: "
                        "top level must be a JSON object")

    def test_base_profile_without_nodes(self, capsys, outdir, monkeypatch,
                                        limitpair_target):
        monkeypatch.chdir(outdir)
        doc = profile_to_json_dict(limitpair_target[1])
        (outdir / "pair.json").write_text(json.dumps(doc))
        assert run(capsys, "bubble", "--base", "pair.json", "--ladder", "0.1")[0] == 0
        for key in ("grid", "state"):
            doc[key] = []
        (outdir / "empty.json").write_text(json.dumps(doc))
        code, _, err = run(capsys, "bubble", "--base", "empty.json",
                           "--ladder", "0.1")
        assert code == 1
        (line,) = err.splitlines()
        assert line == ("error: cannot read base profile empty.json: "
                        "profile grid has no nodes")

    def test_base_profile_with_swapped_nodes(self, capsys, outdir, monkeypatch,
                                             limitpair_target):
        # nodes 200 and 201 swapped used to load, and bubble reported masses
        # off by 0.1
        monkeypatch.chdir(outdir)
        doc = profile_to_json_dict(limitpair_target[1])
        grid = doc["grid"]
        grid[200], grid[201] = grid[201], grid[200]
        (outdir / "swapped.json").write_text(json.dumps(doc))
        got = run(capsys, "bubble", "--base", "swapped.json", "--ladder", "0.1")
        assert got == (1, "", "error: cannot read base profile swapped.json: "
                              "profile grid must be positive, finite and "
                              "strictly increasing\n")

    def test_base_profile_with_nan_masses(self, capsys, outdir, monkeypatch,
                                          limitpair_target):
        # NaN masses from row 200 on used to load, and bubble exited 0 with
        # "nearest member: (0, 0, 4)" at "distance: nan"
        monkeypatch.chdir(outdir)
        doc = profile_to_json_dict(limitpair_target[1])
        for row in doc["state"][200:]:
            row[4:] = [math.nan, math.nan]
        (outdir / "nan.json").write_text(json.dumps(doc))
        got = run(capsys, "bubble", "--base", "nan.json", "--ladder", "0.1")
        assert got == (1, "", "error: cannot read base profile nan.json: "
                              "profile state must be finite\n")

    @pytest.mark.parametrize("edit,reason", [
        (lambda doc: doc.update(format_version=99),
         "profile format_version 99: this reader reads format 2 only"),
        (lambda doc: doc.pop("format_version"),
         "profile format_version None: this reader reads format 2 only"),
        (lambda doc: doc.update(state=[row[1:] for row in doc["state"]]),
         "profile state has shape (401, 5), expected (401, 6)"),
        # no shot ends "stopped", so the reader knows no such reason
        (lambda doc: doc.update(reason="stopped"),
         "'stopped' is not a valid TerminationReason"),
    ], ids=["version_99", "no_version", "state_missing_a_column", "reason_stopped"])
    def test_base_profile_of_another_layout(self, capsys, outdir, monkeypatch,
                                            limitpair_target, edit, reason):
        monkeypatch.chdir(outdir)
        doc = profile_to_json_dict(limitpair_target[1])
        assert len(doc["grid"]) == 401
        edit(doc)
        (outdir / "other.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            read_profile_json("other.json")
        got = run(capsys, "bubble", "--base", "other.json", "--ladder", "0.1,0.01")
        assert got == (1, "", f"error: cannot read base profile other.json: {reason}\n")
        assert [p.name for p in outdir.iterdir()] == ["other.json"]


class TestInputsWithoutACorrectShot:
    """Shots for which no correct run exists exit 1 with one message line and
    no traceback.  Each runs in its own interpreter under a timeout, so a run
    that never ends fails instead of stalling the suite."""

    @pytest.mark.parametrize("argv,message", [
        (["--height", "nan"], "initial heights must be finite"),
        (["--weights", "nan", "--height", "0"], "singular weights must be finite"),
        (["--height", "0", "--r-max", "1e300"], "r_max = 1e+300 too large"),
        (["--height", "0", "--weights", "1e200"], "singular weights too large"),
        (["--height", "0", "--weights", "1e308"], "singular weights too large"),
        (["--height", "800", "--weights", "1000"], "initial heights too large"),
        (["--weights", "1000", "--height", "0", "--r-start", "10"],
         "r_start too large"),
        (["--weights", "0.25", "--height", "0", "--r-start=-1"],
         "need 0 < r_start < r_max"),
        (["--height", "0", "--r-start=nan"], "need 0 < r_start < r_max"),
        (["--height", "0", "--r-start=-10"], "need 0 < r_start < r_max"),
        (["--system", "tzitzeica", "--weights", "1e308", "--height", "0"],
         "singular weights too large"),
    ], ids=["height_nan", "weights_nan", "r_max_1e300", "weights_1e200",
            "weights_1e308", "nan_series_head", "head_overflows_at_r_start",
            "r_start_negative_complex_head", "r_start_nan", "r_start_negative",
            "tzitzeica_weights_1e308"])
    def test_exits_one_with_one_line(self, isolated_python, argv, message):
        res = isolated_python("-m", "todalab", "shoot", "--system", "liouville",
                              *argv)
        assert (res.returncode, res.stdout) == (1, "")
        (line,) = res.stderr.splitlines()
        assert line.startswith("error: " + message)


class TestInputsThatNoRunCanSatisfy:
    """A bubble eps or delta that is not finite or whose radii delta/eps_k
    leave the base's grid, or a target tol that is not finite and positive,
    exits 1 before any work, with one line naming the option."""

    @pytest.mark.parametrize("argv,line", [
        (["--ladder", "0.1,nan"],
         "eps ladder must be finite and positive, got [0.1, nan]"),
        (["--ladder", "inf,1"],
         "eps ladder must be finite and positive, got [inf, 1.0]"),
        (["--ladder", "0.1", "--delta", "nan"],
         "delta must be finite and positive, got nan"),
        (["--ladder", "0.1", "--delta", "inf"],
         "delta must be finite and positive, got inf"),
        (["--ladder", "0.1,0.01", "--delta", "1e9"],
         "delta/eps from 1e+10 to 1e+11 (delta 1e+09, eps ladder 0.1 to 0.01) "
         "leaves the base profile's range [0.0001, 1e+06]"),
        (["--ladder", "0.1,0.01", "--delta", "1e-9"],
         "delta/eps from 1e-08 to 1e-07 (delta 1e-09, eps ladder 0.1 to 0.01) "
         "leaves the base profile's range [0.0001, 1e+06]"),
    ], ids=["ladder_nan", "ladder_inf", "delta_nan", "delta_inf",
            "radii_past_the_grid", "radii_before_the_grid"])
    def test_bubble(self, capsys, outdir, monkeypatch, limitpair_target, argv,
                    line):
        monkeypatch.chdir(outdir)
        doc = profile_to_json_dict(limitpair_target[1])
        (outdir / "pair.json").write_text(json.dumps(doc))
        got = run(capsys, "bubble", "--base", "pair.json", *argv)
        assert got == (1, "", f"error: {line}\n")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_target_tol(self, capsys, outdir, tol):
        got = run(capsys, *_TARGET_RUN, f"--tol={tol}")
        want = f"error: tol must be finite and positive, got {float(tol)!r}\n"
        assert got == (1, "", want)
