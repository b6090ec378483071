import re

import numpy as np
import pytest
from scipy.special import expit, softmax

from bayesadmm import losses as losses_mod
from bayesadmm.errors import DimensionMismatch, EstimatorUnsupported, FamilyMismatch
from bayesadmm.families import DualVec, Family, NatParam, sample, to_expectation
from bayesadmm.federation import InnerConfig, resolve_estimator
from bayesadmm.losses import (
    Delta,
    LinearInT,
    Logistic,
    MonteCarlo,
    MulticlassLogistic,
    Quadratic,
    Reparam,
    conjugate_coefficient,
    expected_moments,
    loss_grad,
    loss_hess,
    loss_value,
    natural_gradient,
    scale_loss,
)


def analytic(loss):
    """What ``estimator = analytic`` resolves to for ``loss``."""
    return resolve_estimator(InnerConfig(estimator="analytic"), loss, 0)


def random_spd(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(0.3, 3.0, d)) @ q.T


def make_losses(rng, d=3):
    a = random_spd(rng, d)
    x = rng.standard_normal((12, d))
    yb = (rng.random(12) < 0.5).astype(float)
    ym = rng.integers(0, 3, 12)
    fam = Family.full(d)
    c = DualVec(fam, rng.standard_normal(d), -0.5 * random_spd(rng, d))
    return [
        Quadratic(a, rng.standard_normal(d)),
        LinearInT(c),
        Logistic(x, yb, scale=1.7),
    ], MulticlassLogistic(x, ym, 3, scale=1.3)


# ---------------------------------------------------------------------------
# pointwise calculus
# ---------------------------------------------------------------------------


def test_quadratic_point_values():
    loss = Quadratic(np.eye(1), np.zeros(1))
    theta = np.array([3.0])
    assert loss_value(loss, theta) == pytest.approx(4.5)
    assert np.allclose(loss_grad(loss, theta), [3.0])
    assert np.allclose(loss_hess(loss, theta), [[1.0]])


def test_logistic_zero_feature_gives_zero_gradient_coordinate():
    loss = Logistic(np.array([[0.0, 1.0]]), np.array([1.0]))
    g = loss_grad(loss, np.array([5.0, -2.0]))
    assert g[0] == 0.0


def test_gradients_match_finite_differences():
    # 50 seeded random points across all loss kinds, tolerance 1e-6
    rng = np.random.default_rng(0)
    simple, multi = make_losses(rng)
    eps = 1e-6
    for loss in simple + [multi]:
        d = loss.dim
        for _ in range(50 // 4 + 1):
            theta = rng.standard_normal(d)
            g = loss_grad(loss, theta)
            for i in range(d):
                bump = np.zeros(d)
                bump[i] = eps
                fd = (loss_value(loss, theta + bump) - loss_value(loss, theta - bump)) / (2 * eps)
                assert fd == pytest.approx(g[i], rel=1e-6, abs=1e-6)


def test_hessians_match_gradient_finite_differences():
    rng = np.random.default_rng(1)
    simple, multi = make_losses(rng)
    eps = 1e-6
    for loss in simple + [multi]:
        d = loss.dim
        theta = rng.standard_normal(d)
        h = loss_hess(loss, theta)
        for i in range(d):
            bump = np.zeros(d)
            bump[i] = eps
            fd = (loss_grad(loss, theta + bump) - loss_grad(loss, theta - bump)) / (2 * eps)
            assert np.allclose(fd, h[i], rtol=1e-5, atol=1e-5)
        diag = loss_hess(loss, theta, diag_only=True)
        assert np.allclose(diag, np.diag(h), rtol=1e-12, atol=1e-12)


def test_logistic_hessians_are_psd():
    rng = np.random.default_rng(2)
    _, multi = make_losses(rng)
    x = rng.standard_normal((20, 4))
    y = (rng.random(20) < 0.5).astype(float)
    bin_loss = Logistic(x, y)
    for loss in (bin_loss, multi):
        for _ in range(5):
            theta = rng.standard_normal(loss.dim)
            eigs = np.linalg.eigvalsh(loss_hess(loss, theta))
            assert eigs.min() > -1e-12


def test_dimension_mismatch_raises():
    loss = Quadratic(np.eye(2), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        loss_value(loss, np.zeros(3))


# ---------------------------------------------------------------------------
# expected moments
# ---------------------------------------------------------------------------


def test_quadratic_analytic_moments_and_mc_agreement():
    fam = Family.full(1)
    lam = NatParam(fam, np.array([2.0]), np.eye(1))
    loss = Quadratic(np.eye(1), np.zeros(1))
    mom = expected_moments(loss, lam, analytic(loss))
    assert np.allclose(mom.g, [2.0]) and np.allclose(mom.h, [[1.0]])
    mc = expected_moments(loss, lam, MonteCarlo(1_000_000, seed=0))
    assert mc.g[0] == pytest.approx(2.0, rel=1e-3)
    assert mc.h[0, 0] == pytest.approx(1.0, rel=1e-3)


def test_linear_in_t_natural_gradient_is_minus_c():
    rng = np.random.default_rng(3)
    fam = Family.full(3)
    c = DualVec(fam, rng.standard_normal(3), -0.5 * random_spd(rng, 3))
    loss = LinearInT(c)
    for _ in range(3):
        lam = NatParam(fam, rng.standard_normal(3), random_spd(rng, 3))
        ng = natural_gradient(loss, lam, analytic(loss))
        assert np.allclose(ng.b1, -c.b1, atol=1e-12)
        assert np.allclose(ng.b2, -c.b2, atol=1e-12)


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("d", [3, 30])
@pytest.mark.parametrize("name", ["analytic", "delta"])
def test_t_linear_moments_are_the_closed_forms_bit_for_bit(name, d):
    # Exact for a T-linear loss: the gradient at the mean and the constant Hessian.
    rng = np.random.default_rng(d)
    fam = Family.full(d)
    lam = NatParam(fam, rng.standard_normal(d), random_spd(rng, d))
    quad = Quadratic(random_spd(rng, d), rng.standard_normal(d))
    mom = expected_moments(quad, lam, resolve_estimator(InnerConfig(estimator=name), quad, 0))
    assert same_bits(mom.g, quad.A @ lam.m + quad.b) and same_bits(mom.h, quad.A)
    c = DualVec(fam, rng.standard_normal(d), -0.5 * random_spd(rng, d))
    linear = LinearInT(c)
    mom = expected_moments(linear, lam, resolve_estimator(InnerConfig(estimator=name), linear, 0))
    assert same_bits(mom.g, -c.b1 + (-2.0 * c.b2) @ lam.m) and same_bits(mom.h, -2.0 * c.b2)


def test_delta_moments_evaluate_at_the_mean():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((15, 2))
    y = (rng.random(15) < 0.5).astype(float)
    loss = Logistic(x, y)
    fam = Family.full(2)
    lam = NatParam(fam, np.array([0.3, -0.7]), random_spd(rng, 2))
    mom = expected_moments(loss, lam, Delta())
    assert np.allclose(mom.g, loss_grad(loss, lam.m))
    assert np.allclose(mom.h, loss_hess(loss, lam.m))


def test_analytic_unsupported_for_logistic():
    loss = Logistic(np.ones((3, 1)), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(EstimatorUnsupported, match="Analytic moments unavailable for Logistic"):
        analytic(loss)
    assert resolve_estimator(InnerConfig(estimator="delta"), loss, 0) == Delta()


def test_linear_in_t_of_a_full_coefficient_under_a_diag_q_is_exact():
    """The delta path needs no family match: for l = -<c, T_full>, c = (b1, B),

        E_q[l] = -b1.m - m^T B m - sum_i B_ii / s_i
               = -b1.mu1 - mu1^T B_off mu1 - diag(B).mu2,

    with mu1 = m and mu2 = m*m + 1/s the diag family's expectation coordinates,
    so its natural gradient is (-b1 - 2 B_off m, -diag B).  The delta moments
    g = -b1 - 2 B m and h = -2 diag(B) give (g - h*m, h/2), the same pair.
    """
    rng = np.random.default_rng(8)
    d = 4
    c = DualVec(Family.full(d), rng.standard_normal(d), -0.5 * random_spd(rng, d))
    loss = LinearInT(c)
    lam = NatParam(Family.diag(d), rng.standard_normal(d), rng.uniform(0.5, 2.0, d))
    off = c.b2 - np.diag(np.diag(c.b2))
    for est in (Delta(), analytic(loss)):
        ng = natural_gradient(loss, lam, est)
        assert np.allclose(ng.b1, -c.b1 - 2.0 * off @ lam.m, rtol=1e-13, atol=1e-13)
        assert same_bits(ng.b2, -np.diag(c.b2))


def test_mc_error_shrinks_like_root_count():
    # log-log slope of the gradient error vs count, logistic loss, fixed seeds
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 2))
    y = (rng.random(30) < 0.5).astype(float)
    loss = Logistic(x, y)
    fam = Family.diag(2)
    lam = NatParam(fam, np.array([0.2, -0.4]), np.array([1.5, 2.0]))
    truth = expected_moments(loss, lam, MonteCarlo(400_000, seed=123)).g
    errs = []
    counts = [1_000, 10_000, 100_000]
    for i, count in enumerate(counts):
        est = expected_moments(loss, lam, MonteCarlo(count, seed=i)).g
        errs.append(np.linalg.norm(est - truth))
    slope = np.polyfit(np.log(counts), np.log(errs), 1)[0]
    assert -0.9 < slope < -0.2
    assert errs[2] < errs[0]


def test_mc_quadratic_rate_vs_analytic():
    # spec'd counts 1e3/1e4/1e5: gradient error shrinks like 1/sqrt(count)
    fam = Family.full(2)
    rng = np.random.default_rng(21)
    lam = NatParam(fam, np.array([0.4, -0.8]), random_spd(rng, 2))
    loss = Quadratic(random_spd(rng, 2), rng.standard_normal(2))
    exact = expected_moments(loss, lam, analytic(loss))
    errs = []
    counts = [1_000, 10_000, 100_000]
    for i, count in enumerate(counts):
        mc = expected_moments(loss, lam, MonteCarlo(count, seed=100 + i))
        errs.append(np.linalg.norm(mc.g - exact.g))
        assert np.allclose(mc.h, exact.h)  # constant Hessian is exact under MC
    slope = np.polyfit(np.log(counts), np.log(errs), 1)[0]
    assert -0.9 < slope < -0.2


def test_reparam_hessian_estimate_on_quadratic():
    fam = Family.diag(2)
    lam = NatParam(fam, np.array([0.5, -0.5]), np.array([2.0, 1.0]))
    a = np.diag([0.7, 1.3])
    loss = Quadratic(a, np.zeros(2))
    mom = expected_moments(loss, lam, Reparam(200_000, seed=6))
    assert np.allclose(mom.h, np.diag(a), atol=0.02)
    with pytest.raises(EstimatorUnsupported):
        expected_moments(loss, NatParam(Family.full(2), np.zeros(2), np.eye(2)), Reparam(8, 0))


# ---------------------------------------------------------------------------
# batched kernels against per-point oracles
# ---------------------------------------------------------------------------


def oracle_grad(loss, theta):
    """Per-point logistic gradient, written out independently of the kernels."""
    if isinstance(loss, Logistic):
        return loss.X.T @ (expit(loss.X @ theta) - loss.y) / loss.scale
    probs = softmax(loss.X @ theta.reshape(loss.n_classes, -1).T, axis=1)
    probs[np.arange(loss.n_examples), loss.y] -= 1.0
    return (probs.T @ loss.X).ravel() / loss.scale


def oracle_hess(loss, theta, diag_only=False):
    """Per-point logistic Hessian; the multiclass one is the 3-operand einsum."""
    if isinstance(loss, Logistic):
        p = expit(loss.X @ theta)
        hess = loss.X.T @ (loss.X * (p * (1.0 - p) / loss.scale)[:, None])
    else:
        probs = softmax(loss.X @ theta.reshape(loss.n_classes, -1).T, axis=1)
        blocks = -np.einsum("ia,ib->iab", probs, probs)
        idx = np.arange(loss.n_classes)
        blocks[:, idx, idx] += probs
        hess = np.einsum("iab,ie,if->aebf", blocks, loss.X, loss.X) / loss.scale
        hess = hess.reshape(loss.dim, loss.dim)
    return np.diag(hess).copy() if diag_only else hess


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * max(np.max(np.abs(want)), 1e-300)


def random_multiclass(rng, n, c, d, scale=1.0):
    x = rng.standard_normal((n, d))
    return MulticlassLogistic(x, rng.integers(0, c, n), c, scale=scale)


@pytest.mark.parametrize(
    "n,c,d,scale",
    [(1, 2, 1, 1.0), (1, 10, 3, 1.0), (9, 2, 1, 0.4), (200, 10, 3, 1.0), (200, 10, 3, 3.7), (40, 4, 7, 2.5)],
)
def test_multiclass_hessian_matches_einsum(n, c, d, scale):
    rng = np.random.default_rng(n * 100 + c * 10 + d)
    loss = random_multiclass(rng, n, c, d, scale)
    theta = rng.standard_normal(loss.dim)
    assert_rel_close(loss_hess(loss, theta), oracle_hess(loss, theta))
    assert_rel_close(loss_grad(loss, theta), oracle_grad(loss, theta))


def test_diag_only_is_the_diagonal_of_the_full_hessian():
    rng = np.random.default_rng(31)
    binary, multi = make_losses(rng)[0][2], random_multiclass(rng, 50, 4, 3, scale=1.9)
    for loss in (binary, multi):
        theta = rng.standard_normal(loss.dim)
        assert_rel_close(loss_hess(loss, theta, diag_only=True), np.diag(loss_hess(loss, theta)))


def sampled_cases(rng):
    binary = make_losses(rng)[0][2]
    multi = random_multiclass(rng, 12, 3, 2, scale=1.3)
    cases = []
    for loss in (binary, multi):
        d = loss.dim
        cases.append((loss, NatParam(Family.full(d), rng.standard_normal(d), random_spd(rng, d))))
        cases.append((loss, NatParam(Family.diag(d), rng.standard_normal(d), rng.uniform(0.5, 3.0, d))))
    return cases


def assert_mc_matches_per_draw_loop(loss, lam, count):
    diag = lam.fam.kind == "diag"
    mom = expected_moments(loss, lam, MonteCarlo(count, seed=9))
    thetas = sample(lam, count, 9)
    assert_rel_close(mom.g, np.mean([oracle_grad(loss, t) for t in thetas], axis=0))
    assert_rel_close(mom.h, np.mean([oracle_hess(loss, t, diag_only=diag) for t in thetas], axis=0))


@pytest.mark.parametrize("count", [1, 8, 37])
def test_batched_monte_carlo_matches_per_draw_loop(monkeypatch, count):
    monkeypatch.setattr(losses_mod, "DRAW_CHUNK", 8)
    for loss, lam in sampled_cases(np.random.default_rng(17)):
        assert_mc_matches_per_draw_loop(loss, lam, count)


def test_monte_carlo_one_draw_past_the_chunk_size():
    loss, lam = sampled_cases(np.random.default_rng(17))[0]
    assert_mc_matches_per_draw_loop(loss, lam, losses_mod.DRAW_CHUNK + 1)


@pytest.mark.parametrize("count", [1, 8, 37])
def test_batched_reparam_matches_per_draw_loop(monkeypatch, count):
    monkeypatch.setattr(losses_mod, "DRAW_CHUNK", 8)
    rng = np.random.default_rng(23)
    d = 2
    quad = Quadratic(random_spd(rng, d), rng.standard_normal(d))
    for loss, lam in [case for case in sampled_cases(rng) if case[1].fam.kind == "diag"] + [
        (quad, NatParam(Family.diag(d), rng.standard_normal(d), rng.uniform(0.5, 3.0, d)))
    ]:
        mom = expected_moments(loss, lam, Reparam(count, seed=4))
        thetas = sample(lam, count, 4)
        if isinstance(loss, Quadratic):
            grads = np.stack([loss.A @ t + loss.b for t in thetas])
        else:
            grads = np.stack([oracle_grad(loss, t) for t in thetas])
        assert_rel_close(mom.g, grads.mean(axis=0))
        assert_rel_close(mom.h, np.mean(grads * (thetas - lam.m) * lam.prec, axis=0))


def accumulated_mean_moments(loss, thetas, diag):
    """Gradient and Hessian from ``(0.0 + sum) / count`` of the probabilities and weights.

    The multiclass weights are written as ``-(p p^T)`` plus ``diag(p)``, which
    holds -0.0 wherever a product of probabilities is 0.
    """
    rows = losses_mod._rows(loss)
    probs = losses_mod._probs(rows, thetas[None])[0]
    if isinstance(loss, Logistic) or diag:
        weights = np.sum(probs * (1.0 - probs), axis=0)
    else:
        weights = -np.einsum("sai,sbi->abi", probs, probs)
        idx = np.arange(loss.n_classes)
        weights[idx, idx] += probs.sum(axis=0)
    count = len(thetas)
    prob_mean = (0.0 + probs.sum(axis=0))[None] / count
    grad = losses_mod._prob_grads(rows, prob_mean[None])[0, 0]
    return grad, losses_mod._hess(rows, ((0.0 + weights) / count)[None], diag)[0]


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("diag", [False, True], ids=["full", "diag"])
@pytest.mark.parametrize("multiclass", [False, True], ids=["binary", "multiclass"])
def test_mean_moments_equal_the_accumulated_average_bit_for_bit(multiclass, diag, count):
    # Rows 500 times longer than the rest drive probabilities to exactly 0 and 1.
    rng = np.random.default_rng(16)
    x = rng.standard_normal((30, 4))
    x[20:] *= 500.0
    if multiclass:
        loss = MulticlassLogistic(x, rng.integers(0, 3, 30), 3, scale=1.3)
    else:
        loss = Logistic(x, (rng.random(30) < 0.5).astype(float), scale=1.3)
    thetas = rng.standard_normal((count, loss.dim))
    rows = losses_mod._rows(loss)
    probs = losses_mod._probs(rows, thetas[None])
    assert np.any(probs == 0.0)
    weights = losses_mod._weight_sum(rows, probs, diag)
    assert not np.any((weights == 0.0) & np.signbit(weights))
    grad, hess = losses_mod._mean_moments(loss, thetas, diag)
    want_grad, want_hess = accumulated_mean_moments(loss, thetas, diag)
    assert same_bits(grad, want_grad) and same_bits(hess, want_hess)


def test_kept_outer_products_give_the_hessian_of_a_fresh_loss():
    rng = np.random.default_rng(18)
    loss = random_multiclass(rng, 30, 4, 3, scale=1.5)
    assert loss._outer is None
    thetas = rng.standard_normal((3, loss.dim))
    loss_hess(loss, thetas[0])
    kept = loss._outer
    assert kept.shape == (30, 9) and not kept.flags.writeable
    for theta in thetas:
        fresh = MulticlassLogistic(loss.X, loss.y, 4, scale=1.5)
        assert same_bits(loss_hess(loss, theta), loss_hess(fresh, theta))
    assert loss._outer is kept
    scaled = scale_loss(loss, 2.5)
    fresh = MulticlassLogistic(loss.X, loss.y, 4, scale=1.5 * 2.5)
    for theta in thetas:
        assert same_bits(loss_hess(scaled, theta), loss_hess(fresh, theta))


# ---------------------------------------------------------------------------
# natural gradients
# ---------------------------------------------------------------------------


def test_quadratic_natural_gradient_closed_form():
    # E[l] is linear in mu for quadratics: grad = (b, A/2) exactly
    fam = Family.full(1)
    lam = NatParam(fam, np.array([2.0]), np.eye(1))
    loss = Quadratic(np.eye(1), np.zeros(1))
    ng = natural_gradient(loss, lam, analytic(loss))
    assert np.allclose(ng.b1, [0.0])
    assert np.allclose(ng.b2, [[0.5]])


@pytest.mark.parametrize("kind", ["full", "diag"])
def test_natural_gradient_matches_mu_finite_differences(kind):
    # exact expectations for quadratics allow a clean FD check through the dual map
    rng = np.random.default_rng(7)
    d = 2
    fam = Family.full(d) if kind == "full" else Family.diag(d)
    if kind == "full":
        lam = NatParam(fam, rng.standard_normal(d), random_spd(rng, d))
        a = random_spd(rng, d)
    else:
        lam = NatParam(fam, rng.standard_normal(d), rng.uniform(0.5, 2.0, d))
        a = np.diag(rng.uniform(0.5, 2.0, d))
    b = rng.standard_normal(d)
    loss = Quadratic(a, b)

    def exact_expected_loss(mu):
        m2 = np.diag(mu.m2) if kind == "diag" else mu.m2
        return 0.5 * float(np.sum(a * m2)) + float(b @ mu.m)

    ng = natural_gradient(loss, lam, analytic(loss))
    mu = to_expectation(lam)
    eps = 1e-6
    from bayesadmm.families import ExpParam

    for i in range(d):
        bump = np.zeros(d)
        bump[i] = eps
        hi = ExpParam(fam, mu.m + bump, mu.m2)
        lo = ExpParam(fam, mu.m - bump, mu.m2)
        fd = (exact_expected_loss(hi) - exact_expected_loss(lo)) / (2 * eps)
        assert fd == pytest.approx(ng.b1[i], rel=1e-6, abs=1e-6)


def t_linear_cases():
    rng = np.random.default_rng(31)
    d = 5
    for kind in ("isotropic", "diag", "full"):
        fam = Family(kind, d)
        a = random_spd(rng, d)
        if kind == "diag":
            a = np.diag(np.diag(a))
        second = {"diag": -0.5 * rng.uniform(0.3, 3.0, d), "full": -0.5 * random_spd(rng, d)}.get(kind)
        losses = [("quadratic", Quadratic(a, rng.standard_normal(d))),
                  ("linear-in-t", LinearInT(DualVec(fam, rng.standard_normal(d), second)))]
        for name, loss in losses:
            for label, est in (("Analytic", analytic(loss)), ("Delta", Delta()),
                               ("MonteCarlo", MonteCarlo(count=4, seed=2))):
                yield pytest.param(loss, fam, est, id=f"{name}-{kind}-{label}")


@pytest.mark.parametrize("loss, fam, estimator", list(t_linear_cases()))
def test_t_linear_natural_gradient_equals_the_public_constructor_bit_for_bit(loss, fam, estimator):
    # The block arrays are wrapped as they are, not copied and checked for symmetry.
    rng = np.random.default_rng(4)
    prec = {"diag": rng.uniform(0.5, 2.0, fam.dim), "full": random_spd(rng, fam.dim)}.get(fam.kind)
    lam = NatParam(fam, rng.standard_normal(fam.dim), prec)
    got = natural_gradient(loss, lam, estimator)
    mom = expected_moments(loss, lam, estimator)
    if fam.kind == "isotropic":
        want = DualVec(fam, mom.g)
    elif fam.kind == "diag":
        want = DualVec(fam, mom.g - mom.h * lam.m, 0.5 * mom.h)
    else:
        want = DualVec(fam, mom.g - mom.h @ lam.m, 0.5 * mom.h)
    for block, ref in ((got.b1, want.b1), (got.b2, want.b2)):
        assert (block is None) == (ref is None)
        if block is not None:
            assert same_bits(block, ref) and block.flags.c_contiguous and not block.flags.writeable
    if fam.kind == "full":
        assert same_bits(got.b2, got.b2.T)


def test_full_conjugate_coefficient_equals_the_public_constructor_bit_for_bit():
    rng = np.random.default_rng(33)
    fam = Family.full(6)
    quad = Quadratic(rng.standard_normal((6, 6)) * 1e-14 + random_spd(rng, 6), rng.standard_normal(6))
    for loss in (quad, scale_loss(quad, 3.0)):
        got = conjugate_coefficient(loss, fam)
        want = DualVec(fam, -loss.b, -0.5 * loss.A)
        for block, ref in ((got.b1, want.b1), (got.b2, want.b2)):
            assert same_bits(block, ref) and block.flags.c_contiguous and not block.flags.writeable
        assert same_bits(got.b2, got.b2.T)


@pytest.mark.parametrize("multiclass", [False, True], ids=["binary", "multiclass"])
def test_logistic_natural_gradient_is_exactly_symmetric(multiclass):
    # The Hessian is a matrix product, not symmetric bit for bit, so the
    # public constructor averages it with its transpose.
    rng = np.random.default_rng(12)
    x = rng.standard_normal((40, 6))
    if multiclass:
        loss = MulticlassLogistic(x, rng.integers(0, 3, 40), 3)
    else:
        loss = Logistic(x, (rng.random(40) < 0.5).astype(float))
    fam = Family.full(loss.dim)
    lam = NatParam(fam, 0.3 * rng.standard_normal(loss.dim), random_spd(rng, loss.dim))
    hess = expected_moments(loss, lam, Delta()).h
    assert not same_bits(hess, hess.T)
    ng = natural_gradient(loss, lam, Delta())
    assert same_bits(ng.b2, ng.b2.T) and same_bits(ng.b2, 0.5 * (0.5 * hess + 0.5 * hess.T))


@pytest.mark.parametrize("estimator", [Delta(), MonteCarlo(5, seed=3)], ids=["delta", "mc"])
@pytest.mark.parametrize("kind", ["isotropic", "diag", "full"])
@pytest.mark.parametrize("multiclass", [False, True], ids=["binary", "multiclass"])
def test_logistic_natural_gradient_equals_the_public_constructor_bit_for_bit(multiclass, kind, estimator):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((40, 4))
    if multiclass:
        loss = MulticlassLogistic(x, rng.integers(0, 3, 40), 3, scale=1.7)
    else:
        loss = Logistic(x, (rng.random(40) < 0.5).astype(float), scale=1.7)
    d = loss.dim
    m = 0.3 * rng.standard_normal(d)
    lam = {
        "isotropic": lambda: NatParam(Family.isotropic(d), m),
        "diag": lambda: NatParam(Family.diag(d), m, rng.uniform(0.5, 3.0, d)),
        "full": lambda: NatParam(Family.full(d), m, random_spd(rng, d)),
    }[kind]()
    mom = expected_moments(loss, lam, estimator)
    if kind == "isotropic":
        want = DualVec(lam.fam, mom.g)
    elif kind == "diag":
        want = DualVec(lam.fam, mom.g - mom.h * lam.m, 0.5 * mom.h)
    else:
        want = DualVec(lam.fam, mom.g - mom.h @ lam.m, 0.5 * mom.h)
    ng = natural_gradient(loss, lam, estimator)
    assert same_bits(ng.b1, want.b1) and not ng.b1.flags.writeable
    if kind == "isotropic":
        assert ng.b2 is None
    else:
        assert same_bits(ng.b2, want.b2) and not ng.b2.flags.writeable
    if kind == "full":
        assert same_bits(ng.b2, ng.b2.T) and ng.b2.flags.c_contiguous


def test_natural_gradient_isotropic_is_expected_gradient():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((10, 2))
    y = (rng.random(10) < 0.5).astype(float)
    loss = Logistic(x, y)
    fam = Family.isotropic(2)
    lam = NatParam(fam, np.array([0.1, 0.2]))
    ng = natural_gradient(loss, lam, Delta())
    assert np.allclose(ng.b1, loss_grad(loss, lam.m))
    assert ng.b2 is None


# ---------------------------------------------------------------------------
# scaling, conjugate representation, serialization
# ---------------------------------------------------------------------------


def test_scale_loss_divides_values():
    rng = np.random.default_rng(9)
    simple, multi = make_losses(rng)
    for loss in simple + [multi]:
        theta = rng.standard_normal(loss.dim)
        scaled = scale_loss(loss, 2.5)
        assert loss_value(scaled, theta) == pytest.approx(loss_value(loss, theta) / 2.5)
        assert np.allclose(loss_grad(scaled, theta), loss_grad(loss, theta) / 2.5)


def test_conjugate_coefficient_round_trips_quadratic():
    rng = np.random.default_rng(10)
    fam = Family.full(2)
    a = random_spd(rng, 2)
    b = rng.standard_normal(2)
    loss = Quadratic(a, b)
    c = conjugate_coefficient(loss, fam)
    theta = rng.standard_normal(2)
    assert loss_value(LinearInT(c), theta) == pytest.approx(loss_value(loss, theta))
    with pytest.raises(EstimatorUnsupported):
        conjugate_coefficient(loss, Family.isotropic(2))
    with pytest.raises(EstimatorUnsupported):
        conjugate_coefficient(loss, Family.diag(2))  # off-diagonal A
    diag_ok = conjugate_coefficient(Quadratic(np.diag([1.0, 2.0]), b), Family.diag(2))
    assert np.allclose(diag_ok.u, [1.0, 2.0])


def test_conjugate_coefficient_of_a_linear_loss_on_the_isotropic_family_is_minus_b():
    b = np.array([0.5, -1.5])
    c = conjugate_coefficient(Quadratic(np.zeros((2, 2)), b), Family.isotropic(2))
    assert c.fam == Family.isotropic(2) and c.b2 is None and np.array_equal(c.b1, -b)


DIAG2 = NatParam(Family.diag(2), np.zeros(2), np.ones(2))
LOGIT2 = Logistic(np.eye(2), np.array([0.0, 1.0]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Quadratic(np.eye(2), np.zeros(3)), DimensionMismatch, "A shape (2, 2) incompatible with b of size 3"),
    (lambda: Quadratic(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2)), DimensionMismatch, "A must be symmetric"),
    (lambda: Logistic(np.ones((3, 2)), np.ones(2)), DimensionMismatch, "X must be (n, d) with matching label vector"),
    (lambda: Logistic(np.ones((3, 2)), np.ones(3), scale=0.0), DimensionMismatch, "scale must be > 0"),
    (lambda: MulticlassLogistic(np.ones(3), np.zeros(3), 2), DimensionMismatch,
     "X must be (n, d) with matching label vector"),
    (lambda: MulticlassLogistic(np.ones((3, 2)), np.array([0, 1, 2]), 2), DimensionMismatch,
     "labels out of range for declared class count"),
    (lambda: MulticlassLogistic(np.ones((3, 2)), np.zeros(3), 1), DimensionMismatch,
     "labels out of range for declared class count"),
    (lambda: MulticlassLogistic(np.ones((3, 2)), np.zeros(3), 2, scale=-1.0), DimensionMismatch, "scale must be > 0"),
    (lambda: scale_loss(LOGIT2, 0.0), ValueError, "divisor must be > 0"),
    (lambda: expected_moments(Quadratic(np.eye(3), np.zeros(3)), DIAG2, Delta()), DimensionMismatch,
     "loss dim 3 != family dim 2"),
    (lambda: expected_moments(LOGIT2, DIAG2, MonteCarlo(count=0)), EstimatorUnsupported, "MonteCarlo needs count >= 1"),
    (lambda: expected_moments(LOGIT2, DIAG2, Reparam(count=0)), EstimatorUnsupported, "Reparam needs count >= 1"),
    (lambda: expected_moments(LOGIT2, DIAG2, "delta"), EstimatorUnsupported, "unknown estimator 'delta'"),
    (lambda: conjugate_coefficient(LinearInT(DualVec(Family.diag(2), np.zeros(2), np.zeros(2))), Family.full(2)),
     FamilyMismatch, "LinearInT coefficient family differs from target family"),
    (lambda: conjugate_coefficient(LOGIT2, Family.diag(2)), EstimatorUnsupported, "Logistic is not linear in T"),
], ids=["quadratic-shape", "quadratic-asymmetric", "logistic-labels", "logistic-scale", "multiclass-rows",
        "multiclass-label-range", "multiclass-one-class", "multiclass-scale", "scale-divisor", "moments-dim",
        "mc-count", "reparam-count", "unknown-estimator", "coefficient-family", "coefficient-not-t-linear"])
def test_a_loss_or_estimator_off_its_layout_is_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


# ---------------------------------------------------------------------------
# minibatches and the scipy.special kernels
# ---------------------------------------------------------------------------


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("multiclass", [False, True], ids=["binary", "multiclass"])
def test_minibatch_grad_equals_the_subset_loss_bit_for_bit(multiclass):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((40, 5))
    if multiclass:
        loss = MulticlassLogistic(x, rng.integers(0, 4, 40), 4, scale=2.5)
    else:
        loss = Logistic(x, (rng.random(40) < 0.5).astype(float), scale=2.5)
    theta = rng.standard_normal(loss.dim)
    for rows in (rng.choice(40, size=8, replace=False), np.arange(40), np.array([3])):
        sub = (MulticlassLogistic(x[rows], loss.y[rows], 4, 2.5) if multiclass
               else Logistic(x[rows], loss.y[rows], 2.5))
        assert np.array_equal(bits(losses_mod.minibatch_grad(loss, theta, rows)),
                              bits(loss_grad(sub, theta)))


def test_binary_kernels_equal_scipy_special_bit_for_bit():
    from scipy.special import log_expit, logsumexp

    rng = np.random.default_rng(15)
    x = 6.0 * rng.standard_normal((50, 4))
    loss = Logistic(x, (rng.random(50) < 0.5).astype(float), scale=3.0)
    thetas = rng.standard_normal((7, 4))
    probs = losses_mod._probs(losses_mod._rows(loss), thetas[None])[0]
    assert np.array_equal(bits(probs), bits(expit(thetas @ x.T)))
    z = x @ thetas[0]
    want = float(-np.sum(loss.y * log_expit(z) + (1.0 - loss.y) * log_expit(-z))) / 3.0
    assert loss_value(loss, thetas[0]) == want
    multi = MulticlassLogistic(x, rng.integers(0, 3, 50), 3)
    theta = rng.standard_normal(multi.dim)
    logits = theta.reshape(3, 4) @ x.T
    want = float(np.sum(logsumexp(logits, axis=0) - logits[multi.y, np.arange(50)]))
    assert loss_value(multi, theta) == want


@pytest.mark.parametrize("kind", ["diag", "full"])
def test_natural_gradients_stack_small_losses_and_leave_large_ones_alone(monkeypatch, kind):
    # Two small losses of one shape share a stack; two above STACK_MAX rows * features are
    # each a stack of one on their own rows, so their rows are never copied into a stack.
    rng = np.random.default_rng(21)
    n_big = losses_mod.STACK_MAX // 2 + 1
    losses = [MulticlassLogistic(rng.standard_normal((n, 2)), rng.integers(0, 3, n), 3)
              for n in (8, 8, n_big, n_big)]
    fam = getattr(Family, kind)(6)
    lams = [NatParam(fam, 0.1 * rng.standard_normal(6), np.ones(6) if kind == "diag" else np.eye(6))
            for _ in losses]
    stacked = []
    stack_rows = losses_mod._stack_rows
    monkeypatch.setattr(losses_mod, "_stack_rows",
                        lambda members, full: stacked.append(len(members)) or stack_rows(members, full))
    gradients = losses_mod.NaturalGradients(losses, [Delta()] * 4, fam)
    assert stacked == [2]
    b1, b2 = gradients.blocks(lams)
    for k, (loss, lam, ng) in enumerate(zip(losses, lams, gradients.duals(lams))):
        want = natural_gradient(loss, lam, Delta())
        for got, ref in ((ng.b1, want.b1), (ng.b2, want.b2), (b1[k], want.b1), (b2[k], want.b2)):
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_a_large_loss_on_the_isotropic_family_builds_no_hessian(monkeypatch):
    # The isotropic family's natural gradient is the gradient alone.  A loss above STACK_MAX
    # is a stack of one on its own rows, so neither a Hessian nor the rows' outer products are made.
    rng = np.random.default_rng(22)
    n, d = 400, 42
    assert n * d > losses_mod.STACK_MAX
    loss = MulticlassLogistic(rng.standard_normal((n, d)), rng.integers(0, 3, n), 3)
    lam = NatParam(Family.isotropic(3 * d), 0.1 * rng.standard_normal(3 * d))
    monkeypatch.setattr(losses_mod, "_hess", lambda *args: pytest.fail("a Hessian was built"))
    ng = natural_gradient(loss, lam, Delta())
    b1, b2 = losses_mod.delta_natural_rows(losses_mod._rows(loss), lam.m[None], "isotropic")
    assert ng.b2 is None and b2 is None and np.array_equal(bits(ng.b1), bits(b1[0]))
    assert loss._outer is None
