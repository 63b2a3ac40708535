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

LOG8 = math.log(8.0)


@pytest.fixture(scope="session")
def liouville_profile():
    """Regular bubble shot out to r = 1e3."""
    return shoot(ShootSpec(SystemKind(Variant.LIOUVILLE), (LOG8,), r_max=1e3))


@pytest.fixture(scope="session")
def liouville_profile_fine():
    """Same shot on a dense grid for radius-resolution tests."""
    return shoot(
        ShootSpec(
            SystemKind(Variant.LIOUVILLE),
            (LOG8,),
            r_max=1e3,
            samples_per_decade=400,
        )
    )


@pytest.fixture(scope="session")
def limitpair_target():
    """Mass-targeted fully decaying two-component solution."""
    return find_decaying(
        SystemKind(Variant.LIMIT_PAIR), 0, LOG8, (-5.0, 5.0), tol=1e-4
    )


@pytest.fixture(scope="session")
def su3_ladder_profile():
    """Symmetric (u1 = u2) three-component shot tall enough to show two
    mass plateaus with simultaneous fast decay."""
    return shoot(
        ShootSpec(SystemKind(Variant.AFFINE_SU3), (-28.0, -28.0, 28.0), r_max=1e3)
    )


@pytest.fixture(scope="session")
def su4_bubble_profile():
    """Three-component symmetric shot with a clean fast-decay annulus."""
    return shoot(
        ShootSpec(SystemKind(Variant.AFFINE_SU4), (-12.0, -12.0, 24.0), r_max=1e3)
    )


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
