"""Acceptance suite: one numbered check per criterion, at pinned tolerances.

Each check prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all).  Check 9a pins the published coefficient (12) of the symmetric
three-component quadratic identity; every radial computation yields
coefficient 8, so 9a is expected to stay red.  Check 9b verifies the
independently derived radial balance, which passes.  See README.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from todalab.analysis import (
    bubble_masses,
    decay_classify,
    fast_decay_radius_scan,
    nearest_member,
    su4_radial_balance,
    DecayKind,
)
from todalab.closed_forms import BubbleSpec, bubble_value
from todalab.ode_engine import (
    ShootSpec,
    mean_value_residuals,
    rescale,
    shoot,
    total_masses,
)
from todalab.spectrum import (
    MassTriple,
    ParamIndex,
    enumerate_su3,
    membership_su3,
    pohozaev_residual_su3,
)
from todalab.systems import SystemKind, Variant

from conftest import LOG8, search, shot


def report(num: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:>3} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


def members_as_tuples(sset):
    return {t.as_tuple() for t in sset.members}


def brute_python_su3(bound):
    out = set()
    for n1 in range(bound // 4 + 1):
        for n2 in range(bound // 4 + 1):
            for n3 in range(bound // 4 + 1):
                s1, s2, s3 = 4 * n1, 4 * n2, 4 * n3
                if (s1, s2, s3) == (0, 0, 0):
                    continue
                if (s1 - s3) ** 2 + (s2 - s3) ** 2 == 4 * (s1 + s2 + 2 * s3):
                    out.add((s1, s2, s3))
    return out


def test_criterion_1_spectrum_equivalence():
    t0 = time.perf_counter()
    full = enumerate_su3(400)  # the (m1, m2) sweep, against the brute force below
    elapsed = time.perf_counter() - t0

    oracle = brute_python_su3(400)
    got = members_as_tuples(full)
    match_400 = got == oracle

    # exact match at every bound <= 400 (max-filtered productions)
    all_bounds = all(
        {t for t in got if max(t) <= b} == {t for t in oracle if max(t) <= b}
        for b in range(401)
    )
    # direct re-enumeration spot checks
    spots = all(
        members_as_tuples(enumerate_su3(b)) == {t for t in oracle if max(t) <= b}
        for b in (0, 4, 12, 40, 100, 256)
    )

    listed = {(0, 0, 4), (4, 0, 0), (4, 4, 0), (4, 4, 12), (12, 12, 4)}
    has_listed = listed <= members_as_tuples(enumerate_su3(12))

    ok = match_400 and all_bounds and spots and has_listed and elapsed < 1.0
    assert report(
        "1",
        ok,
        f"spectrum equivalence to bound 400 in {elapsed * 1e3:.0f} ms, "
        f"{len(full)} members, five listed triples at bound 12",
    )


def test_criterion_2_pohozaev_exactness(spectrum_400):
    members = {t.as_tuple() for t in enumerate_su3(100).members}
    members_exact = all(
        pohozaev_residual_su3(t) == 0 and isinstance(pohozaev_residual_su3(t), int)
        for t in enumerate_su3(100).members
    )
    worst = None
    non_members_separated = True
    for n1 in range(26):
        for n2 in range(26):
            for n3 in range(26):
                t = (4 * n1, 4 * n2, 4 * n3)
                if t in members or t == (0, 0, 0):
                    continue
                r = abs(pohozaev_residual_su3(MassTriple(*t)))
                worst = r if worst is None else min(worst, r)
                if r < 4:
                    non_members_separated = False
    ok = members_exact and non_members_separated
    assert report(
        "2",
        ok,
        f"members residual exactly 0; non-members separated by >= 4 "
        f"(smallest seen {worst})",
    )


def test_criterion_3_liouville_oracle():
    t0 = time.perf_counter()
    prof = shoot(ShootSpec(SystemKind(Variant.LIOUVILLE), (LOG8,), r_max=1e3))
    totals, converged = total_masses(prof)
    elapsed = time.perf_counter() - t0

    cf = bubble_value(BubbleSpec(1.0), prof.grid)
    rel = float(
        np.max(np.abs(prof.values[:, 0] - cf) / np.maximum(np.abs(cf), 1e-3))
    )
    mass_err = abs(totals[0] - 4.0)
    ok = rel < 1e-8 and mass_err < 1e-6 and converged[0] and elapsed < 1.0
    assert report(
        "3",
        ok,
        f"shot vs closed form rel err {rel:.2e}, total mass off by "
        f"{mass_err:.2e}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_4_two_component_masses():
    t0 = time.perf_counter()
    heights, prof = search(
        SystemKind(Variant.LIMIT_PAIR), 0, LOG8, (-5.0, 5.0), tol=1e-4
    )
    totals, _ = total_masses(prof)
    elapsed = time.perf_counter() - t0

    mass_ok = abs(totals[0] - 16.0) / 16.0 < 0.01 and abs(totals[1] - 12.0) / 12.0 < 0.01
    rounded = MassTriple(round(totals[0]), 0, round(totals[1]))
    idx = membership_su3(rounded)
    member_ok = rounded == MassTriple(16, 0, 12) and idx == ParamIndex(1, -3)
    ok = mass_ok and member_ok and elapsed < 30.0
    assert report(
        "4",
        ok,
        f"targeted masses ({totals[0]:.4f}, {totals[1]:.4f}) vs (16, 12), "
        f"triple (16,0,12) has indices (1,-3), {elapsed:.1f} s",
    )


@pytest.mark.parametrize("b", [1.0, 2.0, 3.0])
def test_criterion_5_singular_quantization(b):
    c = math.log(8 * (1 + b) ** 2)
    prof = shot(Variant.LIOUVILLE, (c,), (b,), r_max=1e4)
    totals, converged = total_masses(prof)
    expected = 4 * (1 + b)
    rel = abs(totals[0] - expected) / expected
    ok = bool(converged[0]) and rel < 0.005
    assert report(
        f"5.{int(b)}",
        ok,
        f"singular weight b={b:g}: mass {totals[0]:.6f} vs {expected:g} "
        f"(rel {rel:.2e})",
    )


def test_criterion_6_mean_value_identities(su3_ladder_profile):
    shots = [
        su3_ladder_profile,
        shoot(
            ShootSpec(
                SystemKind(Variant.AFFINE_SU3),
                (-5.0, -5.0, 5.0),
                r_max=1e4,
            )
        ),
        shoot(
            ShootSpec(
                SystemKind(Variant.AFFINE_SU3),
                (-1.5, -4.5, 3.0),
                r_max=1e4,
            )
        ),
    ]
    worst = 0.0
    for prof in shots:
        res = np.abs(mean_value_residuals(prof))
        scale = 1.0 + prof.masses.sum(axis=1)
        worst = max(worst, float(np.max(res / scale[:, None])))
    ok = worst < 1e-7
    assert report(
        "6", ok, f"mean-value identity residual {worst:.2e} over {len(shots)} shots"
    )


def test_criterion_7_rescaling_law(liouville_profile, limitpair_target):
    _, pair = limitpair_target
    worst = 0.0
    for prof in (liouville_profile, pair):
        for eps in (1e-3, 1.0, 1e3):
            resc = rescale(prof, eps)
            for r in (prof.grid[0] * 4, 0.37, prof.grid[-1] / 7):
                lhs = resc.mass_at(r / eps)
                rhs = prof.mass_at(r)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst < 1e-9
    assert report("7", ok, f"rescale mass law max deviation {worst:.2e}")


def test_criterion_8_decay_dichotomy(liouville_profile_fine):
    prof = liouville_profile_fine
    threshold = 5.0
    oracle = brentq(
        lambda r: bubble_value(BubbleSpec(1.0), r) + 2 * math.log(r) + threshold,
        10.0,
        1000.0,
        xtol=1e-12,
    )
    scanned = fast_decay_radius_scan(prof, 0, (10.0, 1000.0), threshold)
    step = prof.grid[1] / prof.grid[0]

    k = int(np.searchsorted(prof.grid, scanned))
    flip_ok = (
        decay_classify(prof, prof.grid[k - 1], threshold).kind is DecayKind.SLOW
        and decay_classify(prof, prof.grid[k], threshold).kind is DecayKind.FAST
        and oracle / step <= scanned <= oracle * step
    )
    scan_ok = abs(scanned - oracle) / oracle < 0.01
    ok = flip_ok and scan_ok
    assert report(
        "8",
        ok,
        f"slow/fast flip at {scanned:.3f} vs closed-form root {oracle:.3f} "
        f"({abs(scanned - oracle) / oracle:.2%})",
    )


def _su4_measurement_points(prof, n_detect=6.0, min_mass=2.0):
    """Fast-decay radii with non-trivial mass on a three-fold profile."""
    wit = np.max(prof.values + 2.0 * np.log(prof.grid)[:, None], axis=1)
    mask = (wit <= -n_detect) & (prof.masses.sum(axis=1) > min_mass)
    if not mask.any():
        return []
    k = int(np.argmin(np.where(mask, wit, np.inf)))
    return [float(prof.grid[k])]


def _su4_profiles():
    """The two su4 shots of checks 9a and 9b."""
    return [shot(Variant.AFFINE_SU4, (-h, -h, 2 * h), r_max=1e3) for h in (10.0, 12.0)]


def test_criterion_9a_su4_symmetric_form_as_published():
    rows = []
    for prof in _su4_profiles():
        for r in _su4_measurement_points(prof):
            bal = su4_radial_balance(prof, r)
            rel = abs(bal.symmetric_form_residual(12.0)) / (12.0 * bal.mass_sum)
            rows.append((r, bal.coefficient_estimate, rel))
    assert rows, "no fast-decay measurement radii found"
    worst = max(rel for _, _, rel in rows)
    coeffs = ", ".join(f"{c:.4f}" for _, c, _ in rows)
    ok = worst < 0.01
    report(
        "9a",
        ok,
        f"symmetric identity with coefficient 12: off by {worst:.1%}; "
        f"measured coefficient(s) {coeffs}",
    )
    assert ok, (
        "the published coefficient 12 disagrees with every radial "
        f"measurement (quad/mass ratio {coeffs}); the radial derivation "
        "pins the coefficient at 8, see check 9b and README"
    )


def test_criterion_9b_su4_radial_balance_derived():
    rows = []
    for prof in _su4_profiles():
        for r in _su4_measurement_points(prof):
            bal = su4_radial_balance(prof, r)
            scale = 8.0 * bal.mass_sum
            rel = abs(bal.defect_corrected_residual) / scale
            rel_flux = abs(bal.flux_balance_residual) / (3.0 * bal.mass_sum)
            rel_mv = abs(bal.mean_value_gap) / (1.0 + bal.flux_quadratic)
            rows.append((r, rel, rel_flux, rel_mv))
    assert rows
    worst = max(max(r[1:]) for r in rows)
    ok = worst < 0.01
    assert report(
        "9b",
        ok,
        f"derived radial balance (coefficient 8) holds to {worst:.2e} "
        f"at {len(rows)} fast-decay radii",
    )


def test_criterion_10_symmetric_slice(su3_ladder_profile, spectrum_400):
    prof = su3_ladder_profile
    sym_dev = float(np.max(np.abs(prof.values[:, 0] - prof.values[:, 1])))
    sym_ok = sym_dev <= 10 * prof.spec.rel_tol * (1 + np.max(np.abs(prof.values)))

    # fast-decay annuli with settled mass: measure the triple at the
    # deepest-witness radius of each contiguous run
    wit = np.max(prof.values + 2.0 * np.log(prof.grid)[:, None], axis=1)
    mask = (wit <= -3.0) & (prof.masses.sum(axis=1) > 1.0)
    runs = []
    start = None
    for k, m in enumerate(mask):
        if m and start is None:
            start = k
        elif not m and start is not None:
            runs.append((start, k))
            start = None
    if start is not None:
        runs.append((start, len(mask)))

    triples = []
    for a, b in runs:
        k = a + int(np.argmin(wit[a:b]))
        triples.append(prof.mass_at(float(prof.grid[k])))

    slice_ok = len(triples) >= 2
    details = []
    for tri in triples:
        member, _, dist = nearest_member(spectrum_400, tri)
        details.append(f"({tri[0]:.3f},{tri[1]:.3f},{tri[2]:.3f})->{member.as_tuple()}")
        if not (member.s1 == member.s2 and dist < 0.1):
            slice_ok = False

    ok = sym_ok and slice_ok
    assert report(
        "10",
        ok,
        f"u1=u2 within {sym_dev:.1e}; measured triples {'; '.join(details)}",
    )
