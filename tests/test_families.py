import base64
import copy
import ctypes
import dataclasses
import json
import re
import zlib

import numpy as np
import pytest
from scipy.linalg import lapack, solve_triangular
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from bayesadmm import families
from bayesadmm.errors import (
    DegenerateMoment,
    FamilyMismatch,
    NonPositivePrecision,
)
from bayesadmm.families import (
    array_from_jsonable,
    array_to_jsonable,
    DualVec,
    ExpParam,
    Family,
    NatParam,
    dual_axpy,
    dual_from_jsonable,
    dual_inf_norm,
    dual_scale,
    dual_sum,
    dual_to_jsonable,
    dual_zero,
    exp_sub,
    kl,
    kl_grad_mu,
    log_density,
    log_partition,
    nat_from_jsonable,
    nat_sub,
    nat_to_jsonable,
    pair_with_stat,
    chol_spd,
    sample,
    to_expectation,
    to_natural,
)

LOG_2PI = np.log(2.0 * np.pi)


def random_spd(rng, d, lo=0.3, hi=4.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(lo, hi, d)) @ q.T


def random_nat(rng, fam):
    if fam.kind == "full":
        return NatParam(fam, rng.standard_normal(fam.dim), random_spd(rng, fam.dim))
    if fam.kind == "diag":
        return NatParam(fam, rng.standard_normal(fam.dim), rng.uniform(0.3, 4.0, fam.dim))
    return NatParam(fam, rng.standard_normal(fam.dim))


def all_families(d=3):
    return [Family.isotropic(d), Family.diag(d), Family.full(d)]


# ---------------------------------------------------------------------------
# dual maps
# ---------------------------------------------------------------------------


def test_full_expectation_matches_table():
    fam = Family.full(2)
    lam = NatParam(fam, np.array([1.0, 0.0]), np.eye(2))
    mu = to_expectation(lam)
    assert np.allclose(mu.m, [1.0, 0.0])
    assert np.allclose(mu.m2, [[2.0, 0.0], [0.0, 1.0]])


def test_isotropic_expectation_is_identity():
    fam = Family.isotropic(2)
    lam = NatParam(fam, np.zeros(2))
    assert np.allclose(to_expectation(lam).m, 0.0)


def test_diag_coordinates_and_moments():
    fam = Family.diag(1)
    lam = NatParam(fam, np.array([2.0]), np.array([4.0]))
    b1, b2 = lam.coords()
    assert np.allclose(b1, [8.0]) and np.allclose(b2, [-2.0])
    mu = to_expectation(lam)
    assert np.allclose(mu.m, [2.0]) and np.allclose(mu.m2, [4.25])
    # Monte-Carlo oracle for the moment map, 3 significant digits.
    draws = sample(lam, 1_000_000, seed=3)
    assert np.mean(draws) == pytest.approx(2.0, abs=2e-3)
    assert np.mean(draws**2) == pytest.approx(4.25, rel=1e-3)


def test_to_natural_standard_normal_diag():
    fam = Family.diag(1)
    lam = to_natural(ExpParam(fam, np.array([0.0]), np.array([1.0])))
    b1, b2 = lam.coords()
    assert np.allclose(b1, [0.0]) and np.allclose(b2, [-0.5])


def test_roundtrip_100_random_spd():
    rng = np.random.default_rng(12)
    fam = Family.full(2)
    for _ in range(100):
        lam = random_nat(rng, fam)
        back = to_natural(to_expectation(lam))
        assert np.allclose(back.m, lam.m, rtol=1e-10, atol=1e-12)
        assert np.allclose(back.prec, lam.prec, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("fam", all_families())
def test_roundtrip_all_families(fam):
    rng = np.random.default_rng(hash(fam.kind) % 2**32)
    for _ in range(20):
        lam = random_nat(rng, fam)
        back = to_natural(to_expectation(lam))
        assert dual_inf_norm(nat_sub(back, lam)) < 1e-10 * max(1.0, dual_inf_norm(lam.as_dual()))


def test_to_natural_rejects_degenerate_moments():
    fam = Family.diag(2)
    with pytest.raises(DegenerateMoment):
        ExpParam(fam, np.array([1.0, 0.0]), np.array([1.0, 0.5]))
    full = Family.full(2)
    with pytest.raises(DegenerateMoment):
        ExpParam(full, np.array([1.0, 0.0]), np.array([[0.5, 0.0], [0.0, 1.0]]))


def test_natparam_rejects_bad_precision():
    with pytest.raises(NonPositivePrecision):
        NatParam(Family.diag(2), np.zeros(2), np.array([1.0, -0.5]))
    with pytest.raises(NonPositivePrecision):
        NatParam(Family.full(2), np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NonPositivePrecision, match="not symmetric"):
        NatParam(Family.full(2), np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# log partition
# ---------------------------------------------------------------------------


def test_log_partition_standard_normal_full():
    fam = Family.full(2)
    lam = NatParam(fam, np.zeros(2), np.eye(2))
    assert log_partition(lam) == pytest.approx(LOG_2PI)


def test_log_partition_isotropic_quadratic_in_mean():
    lam = NatParam(Family.isotropic(1), np.array([3.0]))
    assert log_partition(lam) == pytest.approx(4.5 + 0.5 * LOG_2PI)


@pytest.mark.parametrize("fam", all_families())
def test_log_partition_gradient_matches_expectation(fam):
    # central differences along random directions, step 1e-5, tolerance 1e-6
    rng = np.random.default_rng(7)
    lam = random_nat(rng, fam)
    mu = to_expectation(lam)
    b1, b2 = lam.coords()
    for _ in range(5):
        d1 = rng.standard_normal(fam.dim)
        if fam.two_block:
            if fam.kind == "full":
                raw = rng.standard_normal((fam.dim, fam.dim))
                d2 = 0.1 * (raw + raw.T)
            else:
                d2 = 0.1 * rng.standard_normal(fam.dim)
        else:
            d2 = None
        eps = 1e-5

        def shifted(sign):
            nb1 = b1 + sign * eps * d1
            nb2 = None if d2 is None else b2 + sign * eps * d2
            return NatParam.from_dual(DualVec(fam, nb1, nb2))

        fd = (log_partition(shifted(+1)) - log_partition(shifted(-1))) / (2 * eps)
        exact = float(mu.m @ d1)
        if d2 is not None:
            exact += float(np.sum(mu.m2 * d2))
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("fam", all_families())
def test_log_partition_strictly_convex(fam):
    rng = np.random.default_rng(21)
    lam_a = random_nat(rng, fam)
    lam_b = random_nat(rng, fam)
    mid = NatParam.from_dual(
        dual_axpy(0.5, lam_a.as_dual(), dual_axpy(0.5, lam_b.as_dual(), dual_zero(fam)))
    )
    lhs = log_partition(mid)
    rhs = 0.5 * log_partition(lam_a) + 0.5 * log_partition(lam_b)
    assert lhs < rhs


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fam", all_families())
def test_kl_zero_iff_equal(fam):
    rng = np.random.default_rng(3)
    lam = random_nat(rng, fam)
    assert kl(lam, lam) == pytest.approx(0.0, abs=1e-12)
    other = random_nat(rng, fam)
    assert kl(lam, other) > 0.0


def test_kl_isotropic_is_half_squared_distance():
    fam = Family.isotropic(2)
    a = NatParam(fam, np.array([1.0, 1.0]))
    b = NatParam(fam, np.array([0.0, 0.0]))
    assert kl(a, b) == pytest.approx(1.0)


def test_kl_diag_against_monte_carlo():
    # independent oracle: scipy log-pdfs averaged over 10^6 draws
    fam = Family.diag(2)
    a = NatParam(fam, np.array([0.5, -0.2]), np.array([2.0, 0.7]))
    b = NatParam(fam, np.array([-0.3, 0.4]), np.array([1.1, 1.8]))
    draws = sample(a, 1_000_000, seed=9)
    sd_a = 1.0 / np.sqrt(a.prec)
    sd_b = 1.0 / np.sqrt(b.prec)
    per_draw = (
        norm.logpdf(draws, loc=a.m, scale=sd_a) - norm.logpdf(draws, loc=b.m, scale=sd_b)
    ).sum(axis=1)
    est = per_draw.mean()
    sigma = per_draw.std(ddof=1) / np.sqrt(per_draw.size)
    assert abs(kl(a, b) - est) < 3.0 * sigma


@pytest.mark.parametrize("fam", all_families())
def test_kl_matches_bregman_identity(fam):
    # KL(a||b) = A(b) - A(a) - <b - a, mu_a> ties A, the dual map and KL together
    rng = np.random.default_rng(17)
    a = random_nat(rng, fam)
    b = random_nat(rng, fam)
    mu_a = to_expectation(a)
    diff = nat_sub(b, a)
    pairing = float(diff.b1 @ mu_a.m)
    if fam.two_block:
        pairing += float(np.sum(diff.b2 * mu_a.m2))
    bregman = log_partition(b) - log_partition(a) - pairing
    assert kl(a, b) == pytest.approx(bregman, rel=1e-9, abs=1e-9)


def test_kl_grad_is_nat_sub_bitwise():
    rng = np.random.default_rng(5)
    fam = Family.full(3)
    a, b = random_nat(rng, fam), random_nat(rng, fam)
    g = kl_grad_mu(a, b)
    s = nat_sub(a, b)
    assert np.array_equal(g.b1, s.b1) and np.array_equal(g.b2, s.b2)


def test_kl_grad_isotropic_example():
    fam = Family.isotropic(1)
    g = kl_grad_mu(NatParam(fam, np.array([2.0])), NatParam(fam, np.array([1.0])))
    assert np.allclose(g.b1, [1.0])


def test_kl_grad_matches_finite_differences_in_mu():
    # perturb mu_a, map back through to_natural, difference-quotient the KL
    fam = Family.diag(2)
    rng = np.random.default_rng(11)
    a = random_nat(rng, fam)
    b = random_nat(rng, fam)
    grad = kl_grad_mu(a, b)
    mu = to_expectation(a)
    eps = 1e-6
    for block, gblock in ((0, grad.b1), (1, grad.b2)):
        for i in range(fam.dim):
            bump = np.zeros(fam.dim)
            bump[i] = eps
            if block == 0:
                hi = ExpParam(fam, mu.m + bump, mu.m2)
                lo = ExpParam(fam, mu.m - bump, mu.m2)
            else:
                hi = ExpParam(fam, mu.m, mu.m2 + bump)
                lo = ExpParam(fam, mu.m, mu.m2 - bump)
            fd = (kl(to_natural(hi), b) - kl(to_natural(lo), b)) / (2 * eps)
            assert fd == pytest.approx(gblock[i], rel=1e-5, abs=1e-5)


def test_kl_family_mismatch():
    with pytest.raises(FamilyMismatch):
        kl(NatParam(Family.isotropic(2), np.zeros(2)), NatParam(Family.isotropic(3), np.zeros(3)))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_standard_normal_clt_bound():
    fam = Family.full(2)
    lam = NatParam(fam, np.zeros(2), np.eye(2))
    draws = sample(lam, 1_000_000, seed=1)
    assert np.all(np.abs(draws.mean(axis=0)) < 4.0 / np.sqrt(1_000_000))


def test_sampling_deterministic_given_seed():
    fam = Family.diag(3)
    lam = NatParam(fam, np.arange(3.0), np.array([1.0, 2.0, 3.0]))
    a = sample(lam, 100, seed=42)
    b = sample(lam, 100, seed=42)
    assert np.array_equal(a, b)


def test_sampling_diag_variance():
    fam = Family.diag(1)
    lam = NatParam(fam, np.zeros(1), np.array([4.0]))
    draws = sample(lam, 1_000_000, seed=2)
    assert draws.var() == pytest.approx(0.25, abs=2e-3)


# ---------------------------------------------------------------------------
# dual arithmetic
# ---------------------------------------------------------------------------


def test_nat_sub_of_self_is_zero():
    rng = np.random.default_rng(6)
    lam = random_nat(rng, Family.full(2))
    z = nat_sub(lam, lam)
    assert dual_inf_norm(z) == 0.0


def test_dual_axpy_zero_coefficient_returns_y():
    fam = Family.diag(2)
    x = DualVec(fam, np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    y = DualVec(fam, np.array([-1.0, 0.0]), np.array([0.25, 0.75]))
    out = dual_axpy(0.0, x, y)
    assert np.allclose(out.b1, y.b1) and np.allclose(out.b2, y.b2)


def test_dual_axpy_reproduces_dual_update_step():
    rng = np.random.default_rng(13)
    fam = Family.full(2)
    lam_k, lam_g = random_nat(rng, fam), random_nat(rng, fam)
    eta = dual_zero(fam)
    new = dual_axpy(0.5, nat_sub(lam_k, lam_g), eta)
    ka, kg = lam_k.coords(), lam_g.coords()
    assert np.allclose(new.b1, 0.5 * (ka[0] - kg[0]))
    assert np.allclose(new.b2, 0.5 * (ka[1] - kg[1]))


def test_dual_unconstrained_allows_indefinite_blocks():
    fam = Family.full(2)
    # a dual second block that no NatParam could carry
    d = DualVec(fam, np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert d.u.shape == (2, 2)


def test_exp_sub_isotropic_equals_nat_sub():
    fam = Family.isotropic(2)
    a, b = NatParam(fam, np.array([1.0, 2.0])), NatParam(fam, np.array([0.5, -1.0]))
    assert np.allclose(
        exp_sub(to_expectation(a), to_expectation(b)).b1, nat_sub(a, b).b1
    )


def test_pair_with_stat_and_log_density():
    fam = Family.diag(1)
    lam = NatParam(fam, np.array([0.0]), np.array([1.0]))
    theta = np.array([0.7])
    # standard normal log density
    assert log_density(lam, theta) == pytest.approx(norm.logpdf(0.7))
    d = DualVec(fam, np.array([2.0]), np.array([-0.5]))
    assert pair_with_stat(d, theta) == pytest.approx(2.0 * 0.7 - 0.5 * 0.49)


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_roundtrip_and_kl_nonneg(seed):
    rng = np.random.default_rng(seed)
    fam = Family.full(2)
    a, b = random_nat(rng, fam), random_nat(rng, fam)
    back = to_natural(to_expectation(a))
    assert dual_inf_norm(nat_sub(back, a)) < 1e-9 * max(1.0, dual_inf_norm(a.as_dual()))
    assert kl(a, b) >= 0.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fam", all_families())
def test_json_roundtrip(fam):
    rng = np.random.default_rng(1)
    lam = random_nat(rng, fam)
    back = nat_from_jsonable(fam, nat_to_jsonable(lam))
    assert dual_inf_norm(nat_sub(back, lam)) == 0.0
    dual = nat_sub(lam, random_nat(rng, fam))
    dual_back = dual_from_jsonable(fam, dual_to_jsonable(dual))
    assert np.array_equal(dual_back.b1, dual.b1)
    if fam.two_block:
        assert np.array_equal(dual_back.b2, dual.b2)


def test_dual_sum_kahan_order():
    # naive left-to-right summation loses the small terms here
    fam = Family.isotropic(1)
    vals = [DualVec(fam, np.array([x])) for x in (1e16, 1.0, 1.0, -1e16)]
    assert dual_sum(vals).b1[0] == pytest.approx(2.0)


def kahan_reference(arrays):
    """The compensated sum with four temporaries per term that ``_kahan`` replaced."""
    total = np.zeros_like(arrays[0])
    carry = np.zeros_like(arrays[0])
    for a in arrays:
        y = a - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


EDGES = [0.0, -0.0, 1e16, -1e16, 1.0, 5e-324, -np.finfo(float).max, np.inf, -np.inf, np.nan]


def edge_block(rng, shape, edges, start=0):
    """Random entries over 25 orders of magnitude with ``edges`` from row ``start`` of the
    first column on; a square block is exactly symmetric, signed zeros and nans included."""
    b = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 17, shape)
    rows = slice(start, start + len(edges))
    if len(shape) == 1:
        b[rows] = edges
        return b
    b[rows, 0] = edges
    return np.where(np.tri(shape[0], dtype=bool), b, b.T)


def edge_dual(fam, rng, edges, start=0):
    shape = {"diag": (fam.dim,), "full": (fam.dim, fam.dim)}.get(fam.kind)
    second = None if shape is None else edge_block(rng, shape, edges, start)
    return DualVec(fam, edge_block(rng, (fam.dim,), edges, start), second)


def kahan_terms(fam, rng, count):
    """``count`` DualVecs of ``fam``; term ``i`` holds ``EDGES[i % 10]`` at entry ``i % dim``."""
    return [edge_dual(fam, rng, [EDGES[i % len(EDGES)]], i % fam.dim) for i in range(count)]


@pytest.mark.parametrize("count", [1, 2, 11, 23])
@pytest.mark.parametrize("fam", [Family.isotropic(12), Family.diag(12), Family.full(12)], ids=lambda f: f.kind)
def test_dual_sum_equals_the_four_temporary_loop_bit_for_bit(fam, count):
    vecs = kahan_terms(fam, np.random.default_rng(count), count)
    with np.errstate(invalid="ignore", over="ignore"):
        got = dual_sum(vecs)
        want = [kahan_reference([v.b1 for v in vecs])]
        if fam.two_block:
            want.append(kahan_reference([v.b2 for v in vecs]))
    for block, ref in zip((got.b1, got.b2), want):
        assert same_bits(block, ref) and block.flags.c_contiguous and not block.flags.writeable
    if count > 10:  # every edge value is among the terms
        assert np.isfinite(got.b1).any() and np.isnan(got.b1).any()


@pytest.mark.parametrize("a", [1.0, -1.0, 0.3, 0.0, -0.0])
@pytest.mark.parametrize("fam", [Family.isotropic(12), Family.diag(12), Family.full(12)], ids=lambda f: f.kind)
def test_dual_axpy_and_dual_scale_equal_their_expressions_bit_for_bit(fam, a):
    rng = np.random.default_rng(5)
    x, y = edge_dual(fam, rng, EDGES), edge_dual(fam, rng, EDGES[3:] + EDGES[:3])
    with np.errstate(invalid="ignore", over="ignore"):
        axpy, scale = dual_axpy(a, x, y), dual_scale(a, x)
        for got, xb, yb in ((axpy.b1, x.b1, y.b1), (axpy.b2, x.b2, y.b2)):
            assert got is None if xb is None else same_bits(got, a * xb + yb)
        # dual_scale is dual_axpy onto dual_zero: its + 0.0 turns a -0.0 into +0.0.
        for got, xb in ((scale.b1, x.b1), (scale.b2, x.b2)):
            assert got is None if xb is None else same_bits(got, a * xb + np.zeros_like(xb))
    if a == -1.0:
        assert np.signbit(a * x.b1[:2]).any() and not np.signbit(scale.b1[:2]).any()


@pytest.mark.parametrize("kind, prec", [
    ("diag", [np.inf]),
    ("full", [[np.inf]]),
    ("full", [[np.inf, 0.0], [0.0, 1.0]]),
], ids=["diag-inf", "full-inf", "full-diag-inf-1"])
def test_natparam_rejects_a_non_finite_precision(kind, prec):
    # np.linalg.cholesky factors [[inf]] and diag(inf, 1) without complaint.
    prec = np.array(prec)
    with pytest.raises(NonPositivePrecision, match="not finite|non-finite"):
        NatParam(Family(kind, len(prec)), np.zeros(len(prec)), prec)


@pytest.mark.parametrize("kind", ["diag", "full"])
def test_to_natural_rejects_a_covariance_whose_inverse_overflows(kind):
    # 1 / 1e-310 is past float64's largest value, so the precision would be inf.
    var = np.array([1e-310, 1.0])
    mu = ExpParam(Family(kind, 2), np.zeros(2), var if kind == "diag" else np.diag(var))
    with pytest.raises(DegenerateMoment), np.errstate(over="ignore", divide="ignore"):
        to_natural(mu)


# ---------------------------------------------------------------------------
# the cached Cholesky factor of a full precision
# ---------------------------------------------------------------------------


def full_duals():
    rng = np.random.default_rng(41)
    fam = Family.full(4)
    yield DualVec(fam, rng.standard_normal(4), -0.5 * random_spd(rng, 4))
    # Positive definite, as np.linalg.cholesky confirms, with a condition number of about 2e9.
    near = np.array([[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]])
    np.linalg.cholesky(near)
    yield DualVec(Family.full(2), np.array([0.3, -0.2]), -0.5 * near)


def test_a_singular_precision_is_rejected_after_one_factorization(monkeypatch):
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    calls = []
    real = np.linalg.cholesky

    def counting(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    fam = Family.full(2)
    for make in (lambda: chol_spd(singular), lambda: NatParam(fam, np.zeros(2), singular),
                 lambda: NatParam.from_dual(DualVec(fam, np.zeros(2), -0.5 * singular))):
        calls.clear()
        with pytest.raises(NonPositivePrecision):
            make()
        # from_dual factors its precision as a stack of one.
        assert len(calls) == 1 and np.array_equal(np.reshape(calls[0], singular.shape), singular)


@pytest.mark.parametrize("kind", ["diag", "full"])
def test_to_expectation_rejects_a_covariance_that_overflows(kind):
    # 1 / 1e-310 is past float64's largest value, so the covariance is inf.
    prec = np.full(2, 1e-310)
    lam = NatParam(Family(kind, 2), np.zeros(2), prec if kind == "diag" else np.diag(prec))
    with pytest.raises(DegenerateMoment, match="not finite"), np.errstate(over="ignore"):
        to_expectation(lam)


@pytest.mark.parametrize("dual", list(full_duals()))
def test_full_from_dual_factors_once_and_matches_two_factor_path(monkeypatch, dual):
    # One factorization of -2 b2, made by np.linalg.cholesky itself: a DualVec's
    # second block is exactly symmetric, so from_dual skips chol_spd's symmetry check.
    calls = []
    real = np.linalg.cholesky

    def counting(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    lam = NatParam.from_dual(dual)
    assert len(calls) == 1 and same_bits(np.reshape(calls[0], dual.b2.shape), -2.0 * dual.b2)
    monkeypatch.undo()
    # The path that factored twice: a solve through a fresh factor for the mean, the constructor again.
    prec = -2.0 * dual.b2
    assert np.array_equal(lam.m, families._chol_solve(chol_spd(prec), dual.b1))
    assert np.array_equal(lam.prec, 0.5 * (prec + prec.T))
    assert np.array_equal(lam._chol, chol_spd(lam.prec))
    z = np.random.default_rng(3).standard_normal((5, lam.fam.dim))
    want = lam.m + solve_triangular(chol_spd(lam.prec).T, z.T, lower=False).T
    assert np.array_equal(sample(lam, 5, 3), want)


@pytest.mark.parametrize("dual", list(full_duals()))
def test_dual_maps_reuse_the_factor_and_match_refactoring(monkeypatch, dual):
    lam = NatParam.from_dual(dual)
    d = lam.fam.dim
    other = NatParam(lam.fam, np.linspace(-1.0, 1.0, d), np.eye(d) + 0.1 * np.ones((d, d)))
    calls = []
    real = families.chol_spd

    def counting(mat, *args, **kwargs):
        calls.append(mat)
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(families, "chol_spd", counting)
    kl_ab, kl_ba = kl(lam, other), kl(other, lam)
    log_z = log_partition(lam)
    assert calls == []
    mu = to_expectation(lam)
    # The covariance is the inverse of a factored precision; nothing factors it again.
    assert calls == []
    monkeypatch.undo()
    # The expressions that factored each precision again.
    inverse = families._chol_inverse(chol_spd(lam.prec))
    want_m2 = ExpParam(lam.fam, lam.m, np.outer(lam.m, lam.m) + inverse).m2
    assert np.array_equal(mu.m2, want_m2)
    want_log_z = (
        0.5 * float(lam.m @ lam.prec @ lam.m)
        - 0.5 * families._chol_logdet(chol_spd(lam.prec))
        + 0.5 * d * LOG_2PI
    )
    assert log_z == want_log_z

    def old_kl(a, b):
        dm = a.m - b.m
        trace = float(np.sum(b.prec * families._chol_inverse(chol_spd(a.prec))))
        logdet_a = families._chol_logdet(chol_spd(a.prec))
        logdet_b = families._chol_logdet(chol_spd(b.prec))
        return 0.5 * (trace + float(dm @ b.prec @ dm) - d + logdet_a - logdet_b)

    assert kl_ab == old_kl(lam, other)
    assert kl_ba == old_kl(other, lam)


def test_cached_factor_is_outside_equality_repr_and_json():
    lam = NatParam.from_dual(next(full_duals()))
    other = copy.copy(lam)
    object.__setattr__(other, "_chol", None)
    assert lam == other
    assert "_chol" not in repr(lam)
    data = nat_to_jsonable(lam)
    assert set(data) == {"m", "S"}
    back = nat_from_jsonable(lam.fam, json.loads(json.dumps(data)))
    assert np.array_equal(back._chol, lam._chol)


def json_roundtrip(a):
    data = json.loads(json.dumps(array_to_jsonable(a)))
    assert data["dtype"] == "<f8" and data["shape"] == list(np.shape(a))
    return array_from_jsonable(data)


def assert_bit_exact(back, a):
    assert back.dtype == np.float64 and back.shape == np.shape(a)
    assert np.array_equal(back, a) and np.array_equal(np.signbit(back), np.signbit(a))


def test_array_codec_is_bit_exact_at_the_float_edges():
    edges = np.array([-0.0, 0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
                      np.finfo(float).tiny, 1.0 / 3.0])
    back = json_roundtrip(edges)
    assert_bit_exact(back, edges)
    assert back.flags.writeable and back.flags.c_contiguous
    back[0] = 1.0  # a copy, not a view of the decoded bytes
    assert_bit_exact(json_roundtrip(np.zeros(0)), np.zeros(0))


def test_array_codec_writes_c_order():
    a = np.arange(12.0).reshape(3, 4) / 7.0
    for view in (np.asfortranarray(a), a.T, a[:, ::2]):
        back = json_roundtrip(view)
        assert_bit_exact(back, view)
        assert back.flags.c_contiguous


@pytest.mark.parametrize("dual", list(full_duals()))
def test_nat_param_codec_keeps_the_precision_and_its_factor(dual):
    lam = NatParam.from_dual(dual)
    back = nat_from_jsonable(lam.fam, json.loads(json.dumps(nat_to_jsonable(lam))))
    assert_bit_exact(back.m, lam.m)
    assert_bit_exact(back.prec, lam.prec)
    assert np.array_equal(back._chol, lam._chol)


@pytest.mark.parametrize("edit, message", [
    ({"dtype": "<f4"}, "'<f8'"),
    ({"dtype": ">f8"}, "'<f8'"),
    ({"shape": [4]}, "needs 32 bytes, got 24"),
    ({"b64": "AAAA*AAA"}, None),
    ({"b64": "AAAAAAAAAAA"}, None),
], ids=["f4", "big-endian", "byte-count", "bad-char", "bad-padding"])
def test_array_codec_rejects_what_it_did_not_write(edit, message):
    data = {**array_to_jsonable(np.array([1.0, 2.0, 3.0])), **edit}
    with pytest.raises(ValueError, match=message):
        array_from_jsonable(data)


def test_array_codec_rejects_a_list():
    with pytest.raises(ValueError, match="'<f8'"):
        array_from_jsonable([1.0, 2.0])


def test_triangle_codec_stores_the_upper_triangle_row_by_row_and_mirrors_it():
    a = np.arange(16.0).reshape(4, 4) / 7.0
    a = a + a.T
    a[0, 3] = a[3, 0] = -0.0
    a[1, 2] = a[2, 1] = 5e-324
    data = json.loads(json.dumps(array_to_jsonable(a, triangle=True)))
    assert data["triangle"] == "upper" and data["shape"] == [4, 4]
    stored = np.frombuffer(base64.b64decode(data["b64"]), dtype="<f8")
    want = [a[i, j] for i in range(4) for j in range(i, 4)]
    assert np.array_equal(stored.view(np.uint64), np.array(want).view(np.uint64))
    back = array_from_jsonable(data)
    assert same_bits(back, a) and back.flags.writeable and back.flags.c_contiguous


@pytest.mark.parametrize("edit, message", [
    ({"b64": base64.b64encode(np.zeros(5).tobytes()).decode()}, "needs 48 bytes, got 40"),
    ({"b64": base64.b64encode(np.zeros(9).tobytes()).decode()}, "needs 48 bytes, got 72"),
    ({"shape": [3, 2]}, "not the upper triangle of a square"),
    ({"shape": [6]}, "not the upper triangle of a square"),
    ({"triangle": "lower"}, "not the upper triangle of a square"),
], ids=["short", "full-square", "not-square", "vector", "lower"])
def test_triangle_codec_rejects_what_it_did_not_write(edit, message):
    data = {**array_to_jsonable(np.eye(3), triangle=True), **edit}
    with pytest.raises(ValueError, match=message):
        array_from_jsonable(data)


def xor_pair(kind: str, case: str) -> tuple[NatParam, NatParam]:
    """A server's and a client's natural parameter of one ``kind`` for an XOR-codec ``case``."""
    rng = np.random.default_rng(33)
    fam = Family(kind, 4)
    server = random_nat(rng, fam)
    if case == "equal":
        return server, NatParam(fam, server.m.copy(), None if server.prec is None else server.prec.copy())
    if case == "every-word":  # a new sign bit in every mean word, a new exponent in every precision word
        return server, NatParam(fam, -server.m, None if server.prec is None else 2.0 * server.prec)
    # -0.0 where the server holds +0.0, and subnormal entries on both sides.
    server = NatParam(fam, np.array([0.0, -5e-324, 1.0, 2.0]), server.prec)
    m = np.array([-0.0, 5e-324, 1.0, -5e-324])
    if kind == "diag":
        return server, NatParam(fam, m, np.array([5e-324, 1.0, 2.0, 3.0]))
    if kind == "full":
        prec = np.eye(4)
        prec[0, 1] = prec[1, 0] = -0.0
        prec[2, 3] = prec[3, 2] = 5e-324
        return server, NatParam(fam, m, prec)
    return server, NatParam(fam, m)


@pytest.mark.parametrize("case", ["equal", "every-word", "edges"])
@pytest.mark.parametrize("kind", ["isotropic", "diag", "full"])
def test_xor_codec_round_trips_a_client_block_bit_for_bit(kind, case):
    server, client = xor_pair(kind, case)
    blocks = [(client.m, server.m)] + ([] if client.prec is None else [(client.prec, server.prec)])
    if case == "every-word":
        assert all(np.all(a.view(np.uint64) != b.view(np.uint64)) for a, b in blocks)
    data = json.loads(json.dumps(nat_to_jsonable(client, xor=server)))
    assert set(data) == set(nat_to_jsonable(client))
    for (block, ref), stored in zip(blocks, data.values()):
        assert stored["encoding"] == "xor-deflate" and stored["shape"] == list(block.shape)
        words = np.frombuffer(zlib.decompress(base64.b64decode(stored["b64"])), dtype="<u8")
        cut = np.triu_indices(4) if kind == "full" and block.ndim == 2 else ...
        assert np.array_equal(words, block[cut].ravel().view(np.uint64) ^ ref[cut].ravel().view(np.uint64))
        assert (case == "equal") == (not words.any())
    back = nat_from_jsonable(client.fam, data, xor=server)
    assert same_bits(back.m, client.m)
    assert client.prec is None and back.prec is None or same_bits(back.prec, client.prec)


def test_xor_codec_reads_only_xor_blocks_and_only_with_their_reference():
    server, client = xor_pair("full", "every-word")
    data = nat_to_jsonable(client, xor=server)
    with pytest.raises(ValueError, match="^m: an 'xor-deflate' array has no reference array to XOR against$"):
        nat_from_jsonable(client.fam, data)
    with pytest.raises(ValueError, match="^m: encoding None is not 'xor-deflate'$"):
        nat_from_jsonable(client.fam, nat_to_jsonable(client), xor=server)
    with pytest.raises(ValueError, match="^encoding 'gzip' is not 'plain'$"):
        array_from_jsonable({**array_to_jsonable(client.m), "encoding": "gzip"})
    with pytest.raises(ValueError, match=re.escape("shape (4, 4) is not the reference's (4,)")):
        array_from_jsonable(data["S"], server.m)
    with pytest.raises(ValueError, match=re.escape("reference of shape (4,) for an array of shape (4, 4)")):
        array_to_jsonable(client.prec, triangle=True, xor=server.m)


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw[:-4], "corrupt or truncated deflate stream"),
    (lambda raw: b"\x00" + raw[1:], "corrupt or truncated deflate stream: .*incorrect header check"),
    (lambda raw: zlib.compress(zlib.decompress(raw)[:-8], 1),
     re.escape("upper triangle of shape (4, 4) needs 80 bytes, got 72")),
    (lambda raw: zlib.compress(zlib.decompress(raw) * 2, 1),
     re.escape("upper triangle of shape (4, 4) needs 80 bytes, got 160")),
], ids=["truncated", "corrupt", "short", "long"])
def test_xor_codec_rejects_a_bad_stream_or_length(edit, message):
    server, client = xor_pair("full", "every-word")
    data = nat_to_jsonable(client, xor=server)
    data["S"]["b64"] = base64.b64encode(edit(base64.b64decode(data["S"]["b64"]))).decode("ascii")
    with pytest.raises(ValueError, match=f"^S: {message}"):
        nat_from_jsonable(client.fam, data, xor=server)


# ---------------------------------------------------------------------------
# the triangular solve, the symmetric shortcut, and the constructors' boundary
# ---------------------------------------------------------------------------


def same_bits(got, want):
    return (
        got.shape == want.shape
        and got.dtype == want.dtype == np.float64
        and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    )


def lower_factors():
    rng = np.random.default_rng(5)
    lows = [chol_spd(random_spd(rng, d)) for d in (1, 30, 201)]
    # The second full_duals case's precision has a condition number of about 2e9.
    lows += [NatParam.from_dual(dual)._chol for dual in full_duals()]
    for low in lows:
        yield pytest.param(low, id=f"C-d{low.shape[0]}")
        yield pytest.param(np.asfortranarray(low), id=f"F-d{low.shape[0]}")


@pytest.mark.parametrize("low", list(lower_factors()))
def test_triangular_solve_matches_scipy_bit_for_bit(low):
    d = low.shape[0]
    rng = np.random.default_rng(d)
    rhs_cases = [rng.standard_normal(d), rng.standard_normal((d, 3)), np.eye(d),
                 rng.standard_normal((4, d)).T]
    for rhs in rhs_cases:
        for tri, lower in ((low, True), (low.T, False)):
            assert same_bits(families._solve_triangular(tri, rhs, lower), solve_triangular(tri, rhs, lower=lower))
        want = solve_triangular(low.T, solve_triangular(low, rhs, lower=True), lower=False)
        assert same_bits(families._chol_solve(low, rhs), want)


def test_stacked_cholesky_solves_equal_one_solve_per_row_bit_for_bit():
    rng = np.random.default_rng(11)
    for d, count in ((1, 3), (30, 5), (201, 2)):
        lows = np.stack([chol_spd(random_spd(rng, d)) for _ in range(count)])
        rhs = rng.standard_normal((count, d))
        want = np.stack([families._chol_solve(low, row) for low, row in zip(lows, rhs)])
        # Rows may share one factor through a zero stride.
        shared = np.broadcast_to(lows[0], lows.shape)
        for stack, expected in ((lows, want), (np.asfortranarray(lows), want),
                                (shared, np.stack([families._chol_solve(lows[0], row) for row in rhs]))):
            got = families._chol_solve_rows(stack, rhs)
            assert same_bits(got, expected) and got.flags.c_contiguous


def test_stacked_cholesky_solves_keep_the_row_solves_errors():
    low = chol_spd(np.eye(3) + 0.5)
    singular = low.copy()
    singular[1, 1] = 0.0
    # A diagonal entry so small that the first solve overflows, which only the check between the solves catches.
    tiny = low.copy()
    tiny[0, 0] = 1e-300
    bad_rhs = np.ones(3)
    bad_rhs[2] = np.inf
    cases = [(np.stack([low, singular]), np.ones((2, 3))), (np.stack([low, low]), np.stack([np.ones(3), bad_rhs])),
             (np.stack([low, tiny]), np.full((2, 3), 1e10))]
    for lows, rhs in cases:
        with pytest.raises((ValueError, np.linalg.LinAlgError)) as theirs:
            for tri, row in zip(lows, rhs):
                families._chol_solve(tri, row)
        with pytest.raises(type(theirs.value), match=f"^{re.escape(str(theirs.value))}$"):
            families._chol_solve_rows(lows, rhs)


def test_lapack_routines_release_the_gil():
    # A ctypes function type made by CFUNCTYPE drops the GIL for the call; one made by PYFUNCTYPE keeps it.
    for routine in families._lapack():
        assert not routine._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_triangular_solve_keeps_scipys_errors():
    low = chol_spd(np.eye(3) + 0.5)
    cases = []
    for bad in (np.nan, np.inf, -np.inf):
        rhs = np.ones(3)
        rhs[1] = bad
        tri = low.copy()
        tri[2, 0] = bad
        cases += [(ValueError, low, rhs), (ValueError, tri, np.ones(3))]
    singular = low.copy()
    singular[1, 1] = 0.0
    cases += [(np.linalg.LinAlgError, singular, np.ones(3)),
              (np.linalg.LinAlgError, np.asfortranarray(singular), np.ones((3, 2)))]
    for error, tri, rhs in cases:
        with pytest.raises(error) as theirs:
            solve_triangular(tri, rhs, lower=True)
        with pytest.raises(error, match=f"^{re.escape(str(theirs.value))}$"):
            families._solve_triangular(tri, rhs, True)


def test_chol_solve_keeps_the_two_triangular_solves_errors():
    # An infinite diagonal entry solves to finite values, so only the check of the factor catches it.
    low = chol_spd(np.eye(3) + 0.5)
    cases = []
    for bad in (np.nan, np.inf, -np.inf):
        for at in ((2, 2), (2, 0)):
            tri = low.copy()
            tri[at] = bad
            cases.append((tri, np.ones(3)))
        rhs = np.ones(3)
        rhs[1] = bad
        cases.append((low, rhs))
    singular = low.copy()
    singular[1, 1] = 0.0
    cases.append((singular, np.ones((3, 2))))
    for tri, rhs in cases:
        with pytest.raises((ValueError, np.linalg.LinAlgError)) as theirs:
            solve_triangular(tri.T, solve_triangular(tri, rhs, lower=True), lower=False)
        with pytest.raises(type(theirs.value), match=f"^{re.escape(str(theirs.value))}$"):
            families._chol_solve(tri, rhs)


def inverse_factors():
    rng = np.random.default_rng(6)
    lows = [chol_spd(random_spd(rng, d)) for d in (1, 30, 201)]
    # A condition number of 1e8, so the derived bound is far from trivial.
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    lows.append(chol_spd(q @ np.diag(np.geomspace(1e-4, 1e4, 30)) @ q.T))
    # The second full_duals case's precision has a condition number of about 2e9.
    lows += [NatParam.from_dual(dual)._chol for dual in full_duals()]
    return [pytest.param(low, id=f"d{low.shape[0]}-{i}") for i, low in enumerate(lows)]


@pytest.mark.parametrize("low", inverse_factors())
def test_chol_inverse_is_symmetric_and_within_the_inverse_error_bound(low):
    """``dpotri``'s inverse against the two triangular solves it replaced.

    Given the factor L of A = L L^T, each way of forming A^-1 (``dpotri``:
    L^-1 by ``dtrtri``, then L^-T L^-1; or two ``dtrtrs`` solves against I) is
    within d * eps * cond_2(A) * ||A^-1||_2 of the exact inverse to first order
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 14.3),
    so the two differ by at most twice that in any entry.
    """
    d = low.shape[0]
    inv = families._chol_inverse(low)
    assert inv.flags.c_contiguous and inv.dtype == np.float64
    assert same_bits(inv, inv.T)
    assert same_bits(families._chol_inverse(np.asfortranarray(low)), inv)
    solved = families._chol_solve(low, np.eye(d))
    sing = np.linalg.svd(low @ low.T, compute_uv=False)
    bound = 2.0 * d * np.finfo(float).eps * (sing[0] / sing[-1]) / sing[-1]
    assert np.max(np.abs(inv - 0.5 * (solved + solved.T))) <= bound


def chol_inverse_reference(low):
    """scipy's ``dpotri`` mirrored by two ``np.tril`` copies, as ``_chol_inverse`` once did."""
    inv, info = lapack.dpotri(low.T, lower=0)
    assert info == 0
    tri = inv.T
    out = np.tril(tri)
    out += np.tril(tri, -1).T
    return out


def mirror_factors():
    yield from inverse_factors()
    yield pytest.param(np.diag([1.0, 2.0, 0.5, 3.0]), id="diagonal")
    # Signed zeros below the diagonal of the factor.
    low = chol_spd(random_spd(np.random.default_rng(7), 5))
    low[2, 0], low[4, 1], low[3, 3] = -0.0, 0.0, -low[3, 3]
    yield pytest.param(low, id="signed-zeros")


@pytest.mark.parametrize("low", list(mirror_factors()))
def test_chol_inverse_equals_the_two_tril_mirror_bit_for_bit(low):
    for tri in (low, np.asfortranarray(low)):
        inv = families._chol_inverse(tri)
        assert same_bits(inv, chol_inverse_reference(low)) and inv.flags.c_contiguous


def test_dpotri_leaves_negative_zeros_that_the_mirror_clears():
    # dpotri writes -0.0 off the diagonal of a diagonal factor's inverse; the
    # mirror's ``+ 0.0`` turns each into +0.0, as the two np.tril copies did.
    low = np.diag([1.0, 2.0, 0.5, 3.0])
    filled = np.tril(lapack.dpotri(low.T, lower=0)[0].T)
    assert np.any((filled == 0.0) & np.signbit(filled))
    inv = families._chol_inverse(low)
    assert same_bits(inv, chol_inverse_reference(low)) and not np.signbit(inv).any()


def test_chol_inverse_keeps_the_triangular_solves_errors():
    low = chol_spd(np.eye(3) + 0.5)
    singular = low.copy()
    singular[1, 1] = 0.0
    cases = [singular, np.asfortranarray(singular)]
    for bad in (np.nan, np.inf, -np.inf):
        tri = low.copy()
        tri[2, 0] = bad
        cases.append(tri)
    for tri in cases:
        with pytest.raises((ValueError, np.linalg.LinAlgError)) as theirs:
            families._chol_solve(tri, np.eye(3))
        with pytest.raises(type(theirs.value), match=f"^{re.escape(str(theirs.value))}$"):
            families._chol_inverse(tri)


def test_dual_maps_keep_the_covariance_they_built():
    rng = np.random.default_rng(9)
    lam = random_nat(rng, Family.full(4))
    mu = to_expectation(lam)
    assert same_bits(mu._cov, families._chol_inverse(lam._chol))
    assert same_bits(mu.m2, np.outer(lam.m, lam.m) + mu._cov)
    assert "_cov" not in repr(mu)
    diag = random_nat(rng, Family.diag(4))
    assert same_bits(to_expectation(diag)._cov, 1.0 / diag.prec)
    # The public constructor derives the covariance from m2, as the maps used to.
    pub = ExpParam(diag.fam, diag.m, diag.m * diag.m + 1.0 / diag.prec)
    assert same_bits(pub._cov, pub.m2 - pub.m * pub.m)
    assert same_bits(to_natural(pub).prec, 1.0 / pub._cov)


@pytest.mark.parametrize("kind", ["diag", "full"])
def test_dual_maps_do_not_cancel_a_large_mean(kind):
    # A client state from ivon_admm's blow-up: means near 6e7, precisions near 800.
    # m * m + 1/s rounds to m * m there, so m2 - m m^T has no variance left.
    fam = Family(kind, 3)
    m = np.array([6e7, -4e7, 1.0])
    prec = np.array([800.0, 900.0, 1000.0])
    lam = NatParam(fam, m, prec if kind == "diag" else np.diag(prec) + 10.0)
    mu = to_expectation(lam)
    with pytest.raises(DegenerateMoment):
        ExpParam(fam, mu.m, mu.m2)
    back = to_natural(mu)
    assert same_bits(back.m, lam.m)
    assert np.max(np.abs(back.prec - lam.prec)) <= 1e-12 * np.max(np.abs(lam.prec))


def symmetric_edge_block():
    """Exactly symmetric, with signed zeros and subnormals among its entries."""
    b = np.random.default_rng(2).standard_normal((5, 5))
    a = b + b.T
    a[0, 1] = a[1, 0] = -0.0
    a[2, 2] = -0.0
    a[3, 3] = 0.0
    a[3, 4] = a[4, 3] = 5e-324
    a[0, 4] = a[4, 0] = -np.finfo(float).tiny / 4
    return a


@pytest.mark.parametrize("order", ["C", "F"])
def test_symmetric_shortcut_equals_the_average_bit_for_bit(order):
    a = np.asarray(symmetric_edge_block(), order=order)
    fam = Family.full(5)

    def results(mat):
        return [families._symmetrize(mat), families._symmetrize(mat, tol=None),
                DualVec(fam, np.zeros(5), mat).b2]

    for got in results(a):
        assert same_bits(got, 0.5 * (a + a.T)) and got.flags.c_contiguous
    # +0.0 against -0.0 is not symmetric bit for bit, so it is averaged to +0.0.
    zeros = a.copy()
    zeros[1, 0] = 0.0
    for got in results(zeros):
        assert same_bits(got, 0.5 * (zeros + zeros.T)) and not np.signbit(got[0, 1])
    # Asymmetric within tolerance: still averaged.
    near = a.copy()
    near[1, 2] += 1e-12
    for got in results(near):
        assert same_bits(got, 0.5 * (near + near.T))
    # Far from symmetric: a precision rejects it, a DualVec's unconstrained block is averaged.
    far = a.copy()
    far[1, 2] += 1.0
    with pytest.raises(NonPositivePrecision, match="not symmetric"):
        families._symmetrize(far)
    for got in (families._symmetrize(far, tol=None), DualVec(fam, np.zeros(5), far).b2):
        assert same_bits(got, 0.5 * (far + far.T)) and got.flags.c_contiguous


def private_results(fam):
    """Every container the family algebra builds through its private constructor."""
    rng = np.random.default_rng(8)
    a, b = random_nat(rng, fam), random_nat(rng, fam)
    mu_a, mu_b = to_expectation(a), to_expectation(b)
    diff = nat_sub(a, b)
    return {
        "to_expectation": mu_a,
        "from_dual": NatParam.from_dual(a.as_dual()),
        "as_dual": a.as_dual(),
        "nat_sub": diff,
        "exp_sub": exp_sub(mu_a, mu_b),
        "dual_axpy": dual_axpy(0.3, diff, b.as_dual()),
        "dual_scale": dual_scale(-0.3, diff),
        "dual_sum": dual_sum([diff, a.as_dual(), b.as_dual()]),
    }


ARRAY_FIELDS = {NatParam: ("m", "prec", "_chol"), ExpParam: ("m", "m2"), DualVec: ("b1", "b2")}


@pytest.mark.parametrize("fam", all_families())
def test_private_results_equal_the_public_constructors_bit_for_bit(fam):
    for name, got in private_results(fam).items():
        cls = type(got)
        want = cls(got.fam, *(getattr(got, f) for f in ARRAY_FIELDS[cls][:2]))
        for field_name in ARRAY_FIELDS[cls]:
            g, w = getattr(got, field_name), getattr(want, field_name)
            assert (g is None) == (w is None), (name, field_name)
            if g is not None:
                assert same_bits(g, w), (name, field_name)
                assert g.flags.c_contiguous and not g.flags.writeable, (name, field_name)


@pytest.mark.parametrize("read_only", [False, True], ids=["writable", "read-only"])
@pytest.mark.parametrize("kind", ["diag", "full"])
def test_constructors_do_not_share_the_callers_arrays(kind, read_only):
    fam = Family(kind, 3)
    m = np.array([0.5, -1.0, 2.0])
    # Exactly symmetric, so the symmetric shortcut returns the block it was given.
    prec = np.diag([1.0, 2.0, 3.0]) + 0.25 if kind == "full" else np.array([1.0, 2.0, 3.0])
    mom = -0.5 * prec
    arrays = (m, prec, mom)
    for a in arrays:
        a.setflags(write=not read_only)
    lam, dual = NatParam(fam, m, prec), DualVec(fam, m, mom)
    before = [a.copy() for a in (lam.m, lam.prec, dual.b1, dual.b2)]
    for a in arrays:
        a.setflags(write=True)
        a[...] = 7.0
    after = (lam.m, lam.prec, dual.b1, dual.b2)
    assert all(same_bits(x, y) for x, y in zip(after, before))


# ---------------------------------------------------------------------------
# one layout rule for the containers
# ---------------------------------------------------------------------------


def off_layout_blocks():
    """(family, first, second) block pairs that fit no container of that family."""
    for fam in all_families():
        d = fam.dim
        second = {"diag": np.ones(d), "full": np.eye(d)}.get(fam.kind)
        yield pytest.param(fam, np.zeros(d + 1), second, id=f"{fam.kind}-long-first")
        yield pytest.param(fam, np.zeros((d, 1)), second, id=f"{fam.kind}-2d-first")
        if second is None:
            yield pytest.param(fam, np.zeros(d), np.ones(d), id=f"{fam.kind}-extra-second")
            continue
        yield pytest.param(fam, np.zeros(d), None, id=f"{fam.kind}-missing-second")
        wrong = {"diag": [np.ones(d + 1), np.eye(d)],
                 "full": [np.eye(d + 1), np.ones(d), np.ones((d, d + 1))]}[fam.kind]
        for bad in wrong:
            yield pytest.param(fam, np.zeros(d), bad, id=f"{fam.kind}-second-{'x'.join(map(str, bad.shape))}")


@pytest.mark.parametrize("cls", [NatParam, ExpParam, DualVec])
@pytest.mark.parametrize("fam, first, second", list(off_layout_blocks()))
def test_a_block_off_the_family_layout_is_a_family_mismatch(cls, fam, first, second):
    # A non-square full precision or second moment once raised NonPositivePrecision
    # or a broadcasting ValueError; every layout error is now a FamilyMismatch.
    with pytest.raises(FamilyMismatch):
        cls(fam, first, second)


def test_a_family_is_its_kind_and_dim():
    # Equality and hash are the dataclass's own, over the two fields.
    assert [f.name for f in dataclasses.fields(Family)] == ["kind", "dim"]
    assert Family.full(3) == Family("full", 3) and hash(Family.diag(2)) == hash(Family("diag", 2))
    assert len({Family.isotropic(3), Family.diag(3), Family.full(3), Family.full(4), Family.full(4)}) == 4


@pytest.mark.parametrize("kind", ["fixed", "Full", ""], ids=["fixed", "capitalized", "empty"])
def test_a_kind_outside_the_three_is_a_family_mismatch(kind):
    with pytest.raises(FamilyMismatch, match="unknown family kind"):
        Family(kind, 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Family.isotropic(0), FamilyMismatch, "dim must be >= 1"),
    (lambda: DualVec(Family.isotropic(2), np.ones(2)).u, FamilyMismatch, "isotropic family has no second block"),
    (lambda: dual_sum([]), ValueError, "dual_sum of an empty list"),
    (lambda: sample(NatParam(Family.isotropic(2), np.zeros(2)), 0), ValueError, "count must be >= 1"),
    (lambda: families._symmetrize(np.ones(3)), NonPositivePrecision, "expected a square matrix, got shape (3,)"),
    (lambda: families._solve_triangular(np.eye(2), np.ones(3), lower=True), ValueError,
     "cannot solve a (2, 2) triangular system for a right-hand side of shape (3,)"),
    (lambda: families._chol_solve_rows(np.ones((2, 3, 3)), np.ones((2, 2))), ValueError,
     "cannot solve with factors of shape (2, 3, 3) for rows of shape (2, 2)"),
    (lambda: families._chol_inverse(np.ones((2, 3))), ValueError, "cannot invert from a factor of shape (2, 3)"),
], ids=["zero-dim", "second-block-of-one", "empty-sum", "no-draws", "not-square", "triangular-rhs",
        "stacked-factors", "inverse-factor"])
def test_an_argument_off_its_layout_is_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_a_one_block_dual_pairs_with_the_parameter_alone():
    dual = DualVec(Family.isotropic(3), np.array([1.0, -2.0, 0.5]))
    assert pair_with_stat(dual, np.array([4.0, 1.0, 2.0])) == 3.0


@pytest.mark.parametrize("kind, keys", [("diag", ("s", "u")), ("full", ("S", "V"))])
def test_checkpoint_codec_keeps_its_keys_and_bits(kind, keys):
    rng = np.random.default_rng(21)
    fam = Family(kind, 3)
    lam = random_nat(rng, fam)
    dual = nat_sub(lam, random_nat(rng, fam))
    nat_data = json.loads(json.dumps(nat_to_jsonable(lam)))
    dual_data = json.loads(json.dumps(dual_to_jsonable(dual)))
    assert set(nat_data) == {"m", keys[0]} and set(dual_data) == {"v", keys[1]}
    # A full family stores its two symmetric blocks as upper triangles: 6 of 9 floats.
    for block in (nat_data[keys[0]], dual_data[keys[1]]):
        assert block.get("triangle") == ("upper" if kind == "full" else None)
        assert len(base64.b64decode(block["b64"])) == 8 * (6 if kind == "full" else 3)
    assert same_bits(array_from_jsonable(nat_data[keys[0]]), lam.prec)
    assert same_bits(array_from_jsonable(dual_data[keys[1]]), dual.u)
    back, dual_back = nat_from_jsonable(fam, nat_data), dual_from_jsonable(fam, dual_data)
    for got, want in ((back.m, lam.m), (back.prec, lam.prec), (dual_back.b1, dual.b1),
                      (dual_back.b2, dual.b2)):
        assert same_bits(got, want)
