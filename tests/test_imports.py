"""What each entry point loads: the lazy package namespace and the CLI's
per-command import budget, measured in fresh interpreters."""

import sys

import pytest

import todalab

# the numeric layers; the exact spectrum arithmetic needs none of them
NUMERIC = ("numpy", "todalab.systems", "todalab.ode_engine", "todalab.dop853",
           "todalab.analysis", "todalab.profile_io", "todalab.closed_forms")

EXPORTS = [
    "BracketError", "BubbleReport", "BubbleSpec", "DecayKind", "DecayVerdict",
    "IdentityBalance", "MassTriple", "ParamIndex", "RadialProfile", "ShootSpec",
    "SpectrumSet", "SpectrumVariant", "Su4Balance", "SystemKind",
    "TargetSearchError", "TerminationReason", "Variant", "VarsThetaPhi",
    "VarsWEta", "bubble_mass", "bubble_masses",
    "bubble_total_mass", "decay_classify", "enumerate_su3", "enumerate_su4",
    "fast_decay_radius_scan", "find_decaying", "from_theta_phi", "from_w_eta",
    "is_candidate_su4", "liouville_bubble", "mean_value_residuals",
    "membership_su3", "nearest_member", "pohozaev_check",
    "pohozaev_residual_su3", "pohozaev_residual_su4", "rescale", "shoot",
    "singular_bubble", "sinh_gordon_slice", "su4_radial_balance",
    "to_theta_phi", "to_w_eta", "total_masses", "triple_from_params",
]


def loaded(isolated_python, *args: str) -> tuple[set[str], int]:
    """The modules that ``python -X importtime *args`` imports, by name, and
    its exit code."""
    res = isolated_python("-X", "importtime", *args)
    assert "Traceback" not in res.stderr, res.stderr
    mods = {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
            if line.startswith("import time:") and not line.endswith("package")}
    return mods, res.returncode


class TestNamespace:
    def test_all_is_pinned(self):
        assert todalab.__all__ == EXPORTS

    @pytest.mark.parametrize("name", EXPORTS)
    def test_export_is_its_modules_object(self, name):
        obj = getattr(todalab, name)
        assert obj.__module__.startswith("todalab.")
        assert obj is getattr(sys.modules[obj.__module__], name)

    def test_dir_lists_every_export(self):
        # loaded or not: dir() reads the export table, not the module globals
        listed = dir(todalab)
        assert set(EXPORTS) <= set(listed) and "__version__" in listed

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            todalab.no_such_name
        assert not hasattr(todalab, "cli_main")
        with pytest.raises(ImportError):
            from todalab import no_such_name  # noqa: F401

    def test_import_loads_no_numpy(self, isolated_python):
        mods, code = loaded(isolated_python, "-c", "import todalab")
        assert code == 0 and "todalab" in mods
        assert not mods & set(NUMERIC)


class TestCommandImports:
    @pytest.mark.parametrize("argv,code", [
        (["spectrum", "enumerate", "--bound", "40"], 0),
        (["spectrum", "check", "--triple", "16,0,12", "--json"], 0),
        (["spectrum", "check", "--triple", "4,4,4"], 1),
        (["spectrum", "check", "--variant", "su4", "--triple", "4,4,16"], 0),
        (["spectrum", "equiv", "--bound", "100"], 0),
    ], ids=["enumerate", "check", "check_non_member", "check_su4", "equiv"])
    def test_spectrum_loads_no_numeric_layer(self, isolated_python, argv, code):
        mods, got = loaded(isolated_python, "-m", "todalab", *argv)
        assert got == code and {"todalab.cli", "todalab.spectrum"} <= mods
        assert not mods & set(NUMERIC)

    def test_shoot_loads_the_engine_and_no_analysis(self, isolated_python):
        mods, code = loaded(isolated_python, "-m", "todalab", "shoot",
                            "--height", "0", "--r-max", "10")
        assert code == 0
        assert {"numpy", "todalab.ode_engine", "todalab.profile_io"} <= mods
        assert "todalab.analysis" not in mods
