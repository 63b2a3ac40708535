"""The per-variant identities derived from the term table, checked exactly."""

import itertools
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from todalab.ode_engine import ShootSpec, mean_value_residuals, shoot
from todalab.spectrum import MassTriple, pohozaev_residual_su3
from todalab.systems import _TERMS, SystemKind, Variant

F = Fraction
EXP_LINEAR = {
    Variant.LIOUVILLE: (1,),
    Variant.LIMIT_PAIR: (1, 2),
    Variant.AFFINE_SU3: (1, 1, 2),
    Variant.AFFINE_SU4: (1, 1, 1),
}
# the constraint table the variants carried before it was derived
OLD_CONSTRAINT = {
    Variant.AFFINE_SU3: (1.0, 1.0, 2.0),
    Variant.AFFINE_SU4: (1.0, 1.0, 1.0),
}
N_COMPONENTS = {
    Variant.LIOUVILLE: 1, Variant.SINH_GORDON: 1, Variant.AFFINE_SU3: 3,
    Variant.LIMIT_PAIR: 2, Variant.TZITZEICA: 1, Variant.AFFINE_SU4: 3,
}


def quadratic(M, s):
    return sum(s[i] * M[i][j] * s[j] for i in range(len(s)) for j in range(len(s)))


def triples(seed=23, count=200):
    rng = random.Random(seed)
    return [
        tuple(F(rng.randint(-400, 400), rng.randint(1, 12)) for _ in range(3))
        for _ in range(count)
    ]


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_component_count_and_constraint(variant):
    sk = SystemKind(variant)
    assert sk.n_components == N_COMPONENTS[variant]
    assert sk.constraint_weights() == OLD_CONSTRAINT.get(variant)


def test_pickle_rebuilds_from_the_fields():
    sk = SystemKind(Variant.LIMIT_PAIR, (0.5, 0.0))
    back = pickle.loads(pickle.dumps(sk))
    assert back == sk and hash(back) == hash(sk) and repr(back) == repr(sk)
    assert back._t is sk._t


@pytest.mark.parametrize("variant", list(EXP_LINEAR), ids=lambda v: v.value)
def test_symmetrizer_and_symmetric_product(variant):
    ident = SystemKind(variant).identity
    n = len(EXP_LINEAR[variant])
    assert ident.d == tuple(F(x) for x in EXP_LINEAR[variant])
    assert all(isinstance(x, Fraction) for row in ident.DA for x in row)
    assert ident.DA == tuple(
        tuple(ident.d[i] * ident.A[i][j] for j in range(n)) for i in range(n)
    )
    assert all(ident.DA[i][j] == ident.DA[j][i] for i in range(n) for j in range(n))
    # the float copies are the exact values
    floats = SystemKind(variant).identity_floats
    assert floats.DA == [[float(x) for x in row] for row in ident.DA]


@pytest.mark.parametrize("variant", list(EXP_LINEAR), ids=lambda v: v.value)
def test_flux_form_reproduces_the_quadratic(variant):
    ident = SystemKind(variant).identity
    n = len(ident.d)
    for t in triples(seed=5, count=50):
        s = t[:n]
        As = [sum(ident.A[i][j] * s[j] for j in range(n)) for i in range(n)]
        flux = sum(m * a * a for m, a in zip(ident.flux_w, As)) + sum(
            q * x * x for q, x in zip(ident.flux_sigma, s)
        )
        assert flux == quadratic(ident.DA, s)


def test_flux_forms_of_each_variant():
    weights = {v: (SystemKind(v).identity.flux_w, SystemKind(v).identity.flux_sigma)
               for v in EXP_LINEAR}
    assert weights[Variant.LIOUVILLE] == ((1,), (0,))
    assert weights[Variant.LIMIT_PAIR] == ((1, 0), (0, 1))
    assert weights[Variant.AFFINE_SU3] == ((1, 1, 0), (0, 0, 0))
    assert weights[Variant.AFFINE_SU4] == ((F(2, 3),) * 3, (0, 0, 0))


@pytest.mark.parametrize("variant", [Variant.SINH_GORDON, Variant.TZITZEICA],
                         ids=lambda v: v.value)
def test_mixed_exponent_variants_have_no_identity(variant):
    assert SystemKind(variant).identity is None
    p = shoot(ShootSpec(SystemKind(variant), (0.0,), r_max=2.0))
    with pytest.raises(ValueError, match="exponential-linear"):
        mean_value_residuals(p)


def test_su3_identity_is_the_spectrum_quadric():
    ident = SystemKind(Variant.AFFINE_SU3).identity
    for s in triples():
        derived = quadratic(ident.DA, s) - 4 * sum(d * x for d, x in zip(ident.d, s))
        assert derived == pohozaev_residual_su3(MassTriple(*s))


def test_su4_identity_has_coefficient_eight():
    ident = SystemKind(Variant.AFFINE_SU4).identity
    for s in triples():
        quad = (s[0] - s[1]) ** 2 + (s[1] - s[2]) ** 2 + (s[2] - s[0]) ** 2
        assert 2 * quadratic(ident.DA, s) == quad
        # 2 sigma^T (D A) sigma = 2 * 4 d . sigma at fast decay: coefficient 8
        assert 2 * 4 * sum(d * x for d, x in zip(ident.d, s)) == 8 * sum(s)


def reference_rhs(variant, u):
    """C^T @ exp(min(E @ u, 700)), built here from the term rows with ``@``."""
    C = np.array([c for c, _ in _TERMS[variant]])
    E = np.array([e for _, e in _TERMS[variant]])
    return C.T @ np.exp(np.minimum(E @ u, 700.0))


def kernel_inputs(n, seed=41):
    """States (n,) over magnitudes 1e-3 to 1e300, transposed two-row node
    blocks (n, 2), the shape ``log_deriv_at`` passes, and states built from
    +-inf, NaN and -0.0 components."""
    rng = np.random.default_rng(seed)
    for _ in range(400):
        yield rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3.0, 300.0, n)
    for scale in (1e-3, 1.0, 30.0, 1e3, 1e300):
        for _ in range(40):
            yield (rng.standard_normal((2, n)) * scale).T
    special = (np.inf, -np.inf, np.nan, -0.0, 0.0, 1.5)
    for u in itertools.product(special, repeat=n):
        yield np.array(u)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_rhs_has_the_bits_of_the_term_table(variant):
    """``SystemKind.rhs`` is C^T exp(min(E u, 700)) to the last bit, NaN and
    infinities included, so shots share its bits with any copy of F."""
    sk = SystemKind(variant)
    with np.errstate(over="ignore", invalid="ignore"):
        for u in kernel_inputs(sk.n_components):
            got, want = sk.rhs(u), reference_rhs(variant, u)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), u


@pytest.mark.parametrize("spec", [
    ShootSpec(SystemKind(Variant.AFFINE_SU3), (-28.0, -28.0, 28.0), r_max=2.0),
    ShootSpec(SystemKind(Variant.LIMIT_PAIR), (2.0, -5.0), r_max=10.0),
], ids=["su3", "limitpair"])
def test_a_wrapper_on_the_class_rhs_sees_every_call(spec, monkeypatch):
    """The benchmark's tracer wraps the class attribute ``SystemKind.rhs``
    and divides shot time by its count; the count must be the shot's nfev."""
    calls = [0]
    original = SystemKind.rhs

    def counted(self, u):
        calls[0] += 1
        return original(self, u)

    monkeypatch.setattr(SystemKind, "rhs", counted)
    prof = shoot(spec)
    assert prof.stats.nfev > 0
    assert calls[0] == prof.stats.nfev
