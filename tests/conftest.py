import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import todalab
from todalab import (
    ShootSpec,
    SystemKind,
    Variant,
    enumerate_su3,
    find_decaying,
    shoot,
)
from todalab.profile_io import profile_from_json_dict, profile_to_json_dict

LOG8 = math.log(8.0)

# The registry: a spec or search that more than one test reads is run here,
# once per session, and every test takes it from ``shot`` or ``search``.
# Only a test whose subject is the shot itself calls ``shoot`` or
# ``find_decaying`` on its own (determinism and equality, a timed shot, a
# profile that holds no table until queried, a search against full shots,
# the scipy agreement side, a CLI command).  A profile's arrays are
# read-only, so no test can change what another test reads.
shot_of = functools.cache(shoot)
search = functools.cache(find_decaying)


def shot(variant, heights, weights=(), **kwargs):
    """The registry's shot of ``ShootSpec(SystemKind(variant, weights),
    heights, **kwargs)``."""
    return shot_of(ShootSpec(SystemKind(variant, weights), heights, **kwargs))


def read_back(p):
    """``p`` through a profile file's JSON text."""
    return profile_from_json_dict(json.loads(json.dumps(profile_to_json_dict(p))))


@pytest.fixture(scope="session")
def liouville_profile():
    """Regular bubble shot out to r = 1e3."""
    return shot(Variant.LIOUVILLE, (LOG8,), r_max=1e3)


@pytest.fixture(scope="session")
def liouville_profile_fine():
    """Same shot on a dense grid for radius-resolution tests."""
    return shot(Variant.LIOUVILLE, (LOG8,), r_max=1e3, samples_per_decade=400)


@pytest.fixture(scope="session")
def limitpair_target():
    """Mass-targeted fully decaying two-component solution."""
    return search(SystemKind(Variant.LIMIT_PAIR), 0, LOG8, (-5.0, 5.0), tol=1e-4)


@pytest.fixture(scope="session")
def su3_ladder_profile():
    """Symmetric (u1 = u2) three-component shot tall enough to show two
    mass plateaus with simultaneous fast decay."""
    return shot(Variant.AFFINE_SU3, (-28.0, -28.0, 28.0), r_max=1e3)


@pytest.fixture(scope="session")
def su4_bubble_profile():
    """Three-component symmetric shot with a clean fast-decay annulus."""
    return shot(Variant.AFFINE_SU4, (-12.0, -12.0, 24.0), r_max=1e3)


@pytest.fixture(scope="session")
def spectrum_400():
    return enumerate_su3(400)


@pytest.fixture()
def isolated_python(tmp_path):
    """Run ``python *args`` in a fresh interpreter that imports this package,
    in tmp_path (also its TODALAB_OUTDIR), killed after 60 s: a run that
    never ends fails its test with ``TimeoutExpired`` instead of stalling
    the suite."""
    env = dict(os.environ, TODALAB_OUTDIR=str(tmp_path))
    paths = [str(Path(todalab.__file__).resolve().parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)

    return run
