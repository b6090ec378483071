import importlib.util
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bayesadmm.solvers as solvers_mod
from bayesadmm.errors import (
    EstimatorUnsupported,
    FamilyMismatch,
    NonFiniteUpdate,
    NonPositivePrecision,
    ResultNotInFamily,
)
from bayesadmm.families import (
    DualVec,
    Family,
    NatParam,
    dual_axpy,
    dual_inf_norm,
    dual_zero,
    nat_sub,
)
from bayesadmm.losses import (
    Delta,
    LinearInT,
    Logistic,
    MonteCarlo,
    MulticlassLogistic,
    Quadratic,
    Reparam,
    loss_grad,
    natural_gradient,
)
from bayesadmm.solvers import (
    IvonConfig,
    IvonState,
    SolveReport,
    SubproblemSpec,
    _ivon_step,
    solve_admm_client,
    solve_conjugate,
    solve_ivon,
    solve_von,
    von_lockstep,
)


def random_spd(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(0.3, 3.0, d)) @ q.T


@pytest.fixture
def full3():
    return Family.full(3)


@pytest.fixture
def prior3(full3):
    return NatParam(full3, np.zeros(3), np.eye(3))


# ---------------------------------------------------------------------------
# conjugate solve
# ---------------------------------------------------------------------------


def test_conjugate_zero_loss_returns_server(full3, prior3):
    loss = LinearInT(dual_zero(full3))
    spec = SubproblemSpec(loss, dual_zero(full3), prior3, rho=0.7)
    lam, report = solve_conjugate(spec)
    assert dual_inf_norm(nat_sub(lam, prior3)) == 0.0
    assert report == SolveReport(0, grad_norm=0.0, converged=True)


def test_conjugate_inverse_k_step(full3, prior3):
    rng = np.random.default_rng(0)
    c = DualVec(full3, rng.standard_normal(3), -0.5 * random_spd(rng, 3))
    k = 4
    spec = SubproblemSpec(LinearInT(c), dual_zero(full3), prior3, rho=1.0 / k)
    lam, _ = solve_conjugate(spec)
    expect = dual_axpy(float(k), c, prior3.as_dual())
    assert dual_inf_norm(dual_axpy(-1.0, expect, lam.as_dual())) < 1e-12


def test_conjugate_eta_cancels_loss(full3, prior3):
    rng = np.random.default_rng(1)
    c = DualVec(full3, rng.standard_normal(3), -0.5 * random_spd(rng, 3))
    spec = SubproblemSpec(LinearInT(c), c, prior3, rho=0.3)
    lam, _ = solve_conjugate(spec)
    assert dual_inf_norm(nat_sub(lam, prior3)) < 1e-14


def test_conjugate_dual_invariant_exact(full3, prior3):
    rng = np.random.default_rng(2)
    c = DualVec(full3, rng.standard_normal(3), -0.5 * random_spd(rng, 3))
    eta = DualVec(full3, 0.1 * rng.standard_normal(3), -0.05 * random_spd(rng, 3))
    rho = 0.6
    spec = SubproblemSpec(LinearInT(c), eta, prior3, rho=rho)
    lam, _ = solve_conjugate(spec)
    eta_new = dual_axpy(rho, nat_sub(lam, prior3), eta)
    ng = natural_gradient(spec.loss, lam, Delta())
    assert dual_inf_norm(dual_axpy(1.0, ng, eta_new)) < 1e-12


def test_conjugate_reports_family_escape(full3, prior3):
    # a strongly concave "loss" pushes the precision negative
    c = DualVec(full3, np.zeros(3), 0.5 * np.eye(3) * 10.0)
    spec = SubproblemSpec(LinearInT(c), dual_zero(full3), prior3, rho=1.0)
    with pytest.raises(ResultNotInFamily):
        solve_conjugate(spec)


# ---------------------------------------------------------------------------
# natural-gradient solver
# ---------------------------------------------------------------------------


def test_von_matches_conjugate_on_quadratic(full3, prior3):
    rng = np.random.default_rng(3)
    loss = Quadratic(random_spd(rng, 3), rng.standard_normal(3))
    eta = DualVec(full3, 0.2 * rng.standard_normal(3), -0.1 * random_spd(rng, 3))
    spec = SubproblemSpec(loss, eta, prior3, rho=0.5)
    exact, _ = solve_conjugate(spec)
    lam, report = solve_von(spec, steps=200, beta=0.5, estimator=Delta(), tol=1e-12)
    assert report.converged and report.grad_norm <= 1e-12 and report.halvings == 0
    assert dual_inf_norm(nat_sub(lam, exact)) < 1e-8


def test_von_zero_steps_returns_start(full3, prior3):
    rng = np.random.default_rng(4)
    loss = Quadratic(random_spd(rng, 3), rng.standard_normal(3))
    spec = SubproblemSpec(loss, dual_zero(full3), prior3, rho=1.0)
    lam, report = solve_von(spec, steps=0)
    assert dual_inf_norm(nat_sub(lam, prior3)) == 0.0
    assert report.steps == 0 and not report.converged


def test_von_gradient_norm_decreases_on_logistic(full3, prior3):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((25, 3))
    y = (rng.random(25) < 0.5).astype(float)
    spec = SubproblemSpec(Logistic(x, y), dual_zero(full3), prior3, rho=0.5)
    _, report = solve_von(spec, steps=200, beta=0.5, estimator=Delta(), tol=1e-10)
    _, norms, _ = von_reference(spec, 200, 0.5, Delta(), 1e-10)
    burn = 5
    assert all(b <= a * (1 + 1e-9) for a, b in zip(norms[burn:], norms[burn + 1:]))
    assert report.converged and report.grad_norm == norms[-1]


def test_von_gradient_norm_decreases_on_outlier_toy_client():
    # the mislabeled-point client is the awkward subproblem; the residual
    # trace still decays monotonically after burn-in
    from bayesadmm.harness import classification_losses, gen_outlier_toy

    toy = gen_outlier_toy(seed=0)
    shard = toy.data.subset(toy.client_indices[0])
    loss = classification_losses([shard], 2)[0]
    fam = Family.full(toy.data.d)
    prior = NatParam(fam, np.zeros(toy.data.d), 0.2 * np.eye(toy.data.d))
    spec = SubproblemSpec(loss, dual_zero(fam), prior, rho=0.2)
    _, report = solve_von(spec, steps=500, beta=0.5, estimator=Delta(), tol=1e-9)
    assert report.converged
    _, norms, _ = von_reference(spec, 500, 0.5, Delta(), 1e-9)
    assert report.grad_norm == norms[-1]
    burn = 5
    # monotone over the whole decay; only rounding jitter at the noise floor
    decay = [v for v in norms[burn:] if v > 1e-6]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(decay, decay[1:]))
    assert len(decay) > 50


def test_von_dual_invariant_within_tolerance(full3, prior3):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20, 3))
    y = (rng.random(20) < 0.5).astype(float)
    eta = DualVec(full3, 0.1 * rng.standard_normal(3), -0.02 * random_spd(rng, 3))
    rho, tol = 0.8, 1e-9
    spec = SubproblemSpec(Logistic(x, y), eta, prior3, rho=rho)
    lam, report = solve_von(spec, steps=500, beta=0.5, estimator=Delta(), tol=tol)
    assert report.converged
    eta_new = dual_axpy(rho, nat_sub(lam, prior3), eta)
    ng = natural_gradient(spec.loss, lam, Delta())
    assert dual_inf_norm(dual_axpy(1.0, ng, eta_new)) <= 10 * tol


def von_reference(spec, steps, beta, estimator, tol):
    """The VON loop with its coordinate maps written out: ``nat_sub`` and ``as_dual`` every step.

    Returns the last iterate, the gradient norm of every step, and the step-halvings of all steps.
    """
    lam, tempered, norms, halvings = spec.lam_g, spec.tempered_loss(), [], 0
    for taken in range(steps + 1):
        ng = natural_gradient(tempered, lam, estimator)
        grad = dual_axpy(spec.rho, nat_sub(lam, spec.lam_g), dual_axpy(1.0, spec.eta, ng))
        norms.append(dual_inf_norm(grad))
        if norms[-1] <= tol or taken == steps:
            return lam, norms, halvings
        trial = beta
        while True:
            try:
                lam = NatParam.from_dual(dual_axpy(-trial, grad, lam.as_dual()))
                break
            except NonPositivePrecision:
                trial *= 0.5
                halvings += 1


def von_cases():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 3))
    y = (rng.random(30) < 0.5).astype(float)
    binary, multi = Logistic(x, y), MulticlassLogistic(x, rng.integers(0, 3, 30), 3, scale=1.3)
    full, diag = Family.full(3), Family.diag(3)
    eta = DualVec(full, 0.1 * rng.standard_normal(3), -0.05 * random_spd(rng, 3))
    prior = NatParam(full, 0.2 * rng.standard_normal(3), random_spd(rng, 3))
    yield SubproblemSpec(binary, eta, prior, rho=0.7), 0.5, Delta(), 0
    yield SubproblemSpec(multi, dual_zero(Family.full(9)), NatParam(Family.full(9), np.zeros(9), np.eye(9)),
                         rho=0.4, tau=1.5), 0.5, Delta(), 0
    yield SubproblemSpec(binary, dual_zero(diag), NatParam(diag, np.zeros(3), np.ones(3)), rho=0.5), 0.5, \
        MonteCarlo(3, seed=2), 0
    # Unit steps at a large rho overshoot out of the family: this case halves 13 times.
    yield SubproblemSpec(binary, DualVec(diag, np.zeros(3), np.full(3, -0.3)), NatParam(diag, np.zeros(3), np.ones(3)),
                         rho=3.0), 1.0, Delta(), 13


@pytest.mark.parametrize("case", list(von_cases()), ids=["full", "multiclass_tempered", "diag_mc", "halving"])
def test_von_equals_the_loop_that_maps_every_coordinate_bit_for_bit(case):
    spec, beta, estimator, halvings = case
    got, report = solve_von(spec, steps=25, beta=beta, estimator=estimator, tol=1e-12)
    lam, norms, ref_halvings = von_reference(spec, 25, beta, estimator, 1e-12)
    assert ref_halvings == halvings
    assert (report.steps, report.halvings, report.grad_norm) == (len(norms) - 1, halvings, norms[-1])
    assert report.converged == (norms[-1] <= 1e-12)
    assert np.array_equal(got.m.view(np.uint64), lam.m.view(np.uint64))
    assert np.array_equal(got.prec.view(np.uint64), lam.prec.view(np.uint64))


def test_von_maps_the_server_once_and_each_new_iterate_once(monkeypatch, full3, prior3):
    mapped = []
    coords = NatParam.coords

    def counting(lam):
        mapped.append(lam)
        return coords(lam)

    monkeypatch.setattr(NatParam, "coords", counting)
    # Each new iterate is mapped with the stack's own coordinate map, as a stack of one.
    stacked = []
    coords_rows = solvers_mod.coords_rows
    monkeypatch.setattr(solvers_mod, "coords_rows",
                        lambda fam, m, prec: stacked.append(m) or coords_rows(fam, m, prec))
    rng = np.random.default_rng(10)
    x = rng.standard_normal((25, 3))
    spec = SubproblemSpec(Logistic(x, (rng.random(25) < 0.5).astype(float)), dual_zero(full3), prior3, rho=0.5)
    _, report = solve_von(spec, steps=12, beta=0.5, estimator=Delta(), tol=0.0)
    assert report.steps == 12 and not report.converged
    assert mapped == [prior3] and len(stacked) == report.steps
    assert all(m.shape == (1, 3) for m in stacked)


def test_a_von_solve_unpacks_to_result_and_report_and_reads_its_counts_through(full3, prior3):
    # perfbench's span tracer reads ``steps`` and ``converged`` off what solve_von returns.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    loss = Quadratic(np.eye(3), np.ones(3))
    solved = solve_von(SubproblemSpec(loss, dual_zero(full3), prior3, rho=1.0), steps=3, tol=0.0)
    lam, report = solved
    assert solved.result is lam and solved.report is report and report.steps == 3
    assert (solved.steps, solved.converged) == (report.steps, report.converged)
    assert spans._extra("solvers.solve_von", (), {}, solved) == (3, 0)


def test_a_spec_maps_its_server_unless_given_the_map(full3, prior3):
    loss = Quadratic(np.eye(3), np.ones(3))
    spec = SubproblemSpec(loss, dual_zero(full3), prior3, rho=1.0)
    want = prior3.as_dual()
    assert np.array_equal(spec._lam_g_dual.b1, want.b1) and np.array_equal(spec._lam_g_dual.b2, want.b2)
    given = SubproblemSpec(loss, dual_zero(full3), prior3, rho=1.0, _lam_g_dual=want)
    assert given._lam_g_dual is want


def test_von_respects_tempering(full3, prior3):
    rng = np.random.default_rng(7)
    loss = Quadratic(random_spd(rng, 3), rng.standard_normal(3))
    hot = SubproblemSpec(loss, dual_zero(full3), prior3, rho=1.0, tau=2.0)
    cold = SubproblemSpec(loss, dual_zero(full3), prior3, rho=1.0, tau=1.0)
    lam_hot, _ = solve_conjugate(hot)
    lam_cold, _ = solve_conjugate(cold)
    # tempering shrinks the data influence
    assert dual_inf_norm(nat_sub(lam_hot, prior3)) < dual_inf_norm(nat_sub(lam_cold, prior3))


# ---------------------------------------------------------------------------
# stochastic diagonal solver
# ---------------------------------------------------------------------------


def tempered_posterior(a, b, m_p, s_p, lscale):
    s = lscale * a + s_p
    m = (s_p * m_p - lscale * b) / s
    return m, s


def test_ivon_zero_steps_keeps_initialization():
    fam = Family.diag(2)
    prior = NatParam(fam, np.array([0.3, -0.3]), np.array([2.0, 1.0]))
    cfg = IvonConfig(steps=0, h0=0.1, seed=0)
    lam, report = solve_ivon(Quadratic(np.eye(2), np.zeros(2)), prior, 1.5, np.zeros(2), np.zeros(2), cfg)
    assert lam.fam == prior.fam and np.allclose(lam.m, prior.m)
    # s = scale * (h0 + delta) with delta = s_p / scale
    assert np.allclose(lam.prec, 1.5 * 0.1 + prior.prec)
    # A fixed schedule with no tolerance: no gradient norm and no convergence claim.
    assert report == SolveReport(0, 0, None, None)


def test_ivon_step_u_term_is_additive():
    # with u = 0 the curvature estimate is the plain reparameterization one
    cfg = IvonConfig(steps=1)
    state = IvonState(np.array([0.2]), np.array([0.5]), np.array([0.1]))
    theta = np.array([0.9])
    ghat = np.array([1.3])
    delta = np.array([0.4])
    sigma2 = 1.0 / (state.h + delta)
    base = _ivon_step(state, theta, ghat, sigma2, 0.1, cfg, delta, np.zeros(1), np.zeros(1), np.zeros(1))
    hhat_plain = ghat * (theta - state.m) / sigma2
    u = np.array([0.7])
    shifted = _ivon_step(state, theta, ghat, sigma2, 0.1, cfg, delta, np.zeros(1), np.zeros(1), u)
    hhat_mod = hhat_plain - u
    beta2 = cfg.beta2
    expect = (
        beta2 * state.h
        + (1 - beta2) * hhat_mod
        + 0.5 * (1 - beta2) ** 2 * (state.h - hhat_mod) ** 2 / (state.h + delta)
    )
    assert np.allclose(shifted.h, expect)
    expect_plain = (
        beta2 * state.h
        + (1 - beta2) * hhat_plain
        + 0.5 * (1 - beta2) ** 2 * (state.h - hhat_plain) ** 2 / (state.h + delta)
    )
    assert np.allclose(base.h, expect_plain)


def test_ivon_keeps_h_plus_delta_positive():
    # adversarial hhat cannot push h below -delta thanks to the quadratic term
    cfg = IvonConfig(steps=1, beta2=0.95)
    delta = np.array([0.4])
    state = IvonState(np.zeros(1), np.array([0.5]), np.zeros(1))
    for hhat_target in (-1e3, -1e6):
        sigma2 = 1.0 / (state.h + delta)
        ghat = np.array([hhat_target]) * sigma2  # theta - m == 1
        new = _ivon_step(state, np.array([1.0]), ghat, sigma2, 0.1, cfg, delta,
                         np.zeros(1), np.zeros(1), np.zeros(1))
        assert new.h + delta > 0


def test_ivon_matches_tempered_quadratic_posterior():
    fam = Family.diag(1)
    prior = NatParam(fam, np.zeros(1), np.array([0.5]))
    a, b, lscale = 0.01, -0.02, 1.0
    loss = Quadratic(np.array([[a]]), np.array([b]))
    steps = 10_000
    sched = tuple(0.03 / (1.0 + t / 150.0) for t in range(steps))
    cfg = IvonConfig(steps=steps, lr=0.03, lr_schedule=sched, beta1=0.9, beta2=0.999, h0=0.1, seed=0)
    lam, report = solve_ivon(loss, prior, lscale, np.zeros(1), np.zeros(1), cfg)
    m_true, s_true = tempered_posterior(a, b, 0.0, 0.5, lscale)
    assert abs(lam.m[0] - m_true) < 1e-3
    assert abs(lam.prec[0] - s_true) < 1e-3
    assert report.steps == steps and report.converged is None


def test_ivon_deterministic_given_seed():
    fam = Family.diag(2)
    prior = NatParam(fam, np.zeros(2), np.ones(2))
    loss = Quadratic(np.diag([0.3, 0.1]), np.array([0.2, -0.1]))
    cfg = IvonConfig(steps=50, seed=11)
    a, _ = solve_ivon(loss, prior, 1.0, np.zeros(2), np.zeros(2), cfg)
    b, _ = solve_ivon(loss, prior, 1.0, np.zeros(2), np.zeros(2), cfg)
    assert np.array_equal(a.m, b.m) and np.array_equal(a.prec, b.prec)


def test_ivon_aborts_on_non_finite_with_last_state():
    fam = Family.diag(1)
    prior = NatParam(fam, np.zeros(1), np.ones(1))
    loss = Quadratic(np.array([[1e300]]), np.zeros(1))
    cfg = IvonConfig(steps=20, lr=10.0, seed=0)
    # Outside a round nothing sets numpy's error state, so the test sets its own.
    with pytest.raises(NonFiniteUpdate) as info, np.errstate(over="ignore", invalid="ignore"):
        solve_ivon(loss, prior, 1.0, np.zeros(1), np.zeros(1), cfg)
    assert info.value.mean is not None and np.all(np.isfinite(info.value.mean))


def test_ivon_requires_diag_prior():
    prior = NatParam(Family.full(1), np.zeros(1), np.eye(1))
    with pytest.raises(EstimatorUnsupported):
        solve_ivon(Quadratic(np.eye(1), np.zeros(1)), prior, 1.0, np.zeros(1), np.zeros(1), IvonConfig(steps=1))


def test_ivon_minibatching_is_unbiased_and_seeded():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((40, 2))
    y = (rng.random(40) < 0.5).astype(float)
    loss = Logistic(x, y)
    fam = Family.diag(2)
    prior = NatParam(fam, np.zeros(2), np.ones(2))
    cfg = IvonConfig(steps=300, lr=0.05, beta2=0.999, batch_size=8, seed=3)
    lam1, _ = solve_ivon(loss, prior, 1.0, np.zeros(2), np.zeros(2), cfg)
    lam2, _ = solve_ivon(loss, prior, 1.0, np.zeros(2), np.zeros(2), cfg)
    assert np.array_equal(lam1.m, lam2.m)


# ---------------------------------------------------------------------------
# classical proximal client step
# ---------------------------------------------------------------------------


def test_admm_client_quadratic_closed_form():
    loss = Quadratic(np.eye(1), np.zeros(1))
    theta, report = solve_admm_client(loss, np.zeros(1), np.array([2.0]), rho=1.0)
    assert np.allclose(theta, [1.0])
    assert report == SolveReport(0, grad_norm=0.0, converged=True)


def test_admm_client_stationary_when_dual_balances():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((15, 2))
    y = (rng.random(15) < 0.5).astype(float)
    loss = Logistic(x, y)
    theta_g = np.array([0.3, -0.2])
    v = -loss_grad(loss, theta_g)
    theta, _ = solve_admm_client(loss, v, theta_g, rho=0.5, tol=1e-10)
    assert np.allclose(theta, theta_g, atol=1e-9)


def test_admm_client_post_identity():
    # v + rho (theta - theta_g) = -grad l(theta) at the solution
    rng = np.random.default_rng(14)
    x = rng.standard_normal((15, 2))
    y = (rng.random(15) < 0.5).astype(float)
    loss = Logistic(x, y)
    v = 0.1 * rng.standard_normal(2)
    theta_g = rng.standard_normal(2)
    rho = 0.7
    theta, report = solve_admm_client(loss, v, theta_g, rho, steps=5000, tol=1e-10)
    assert report.converged and report.grad_norm <= 1e-10
    lhs = v + rho * (theta - theta_g)
    assert np.allclose(lhs, -loss_grad(loss, theta), atol=1e-9)


def test_admm_client_iteration_cap_returns_best_iterate():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((15, 2))
    y = (rng.random(15) < 0.5).astype(float)
    loss = Logistic(x, y)
    theta, report = solve_admm_client(loss, np.zeros(2), np.zeros(2), rho=0.1, steps=2, tol=1e-14)
    assert not report.converged and report.steps == 2 and report.grad_norm > 1e-14
    assert np.all(np.isfinite(theta))


@pytest.mark.parametrize("fam, b2, bound", [
    (Family.isotropic(2), None, 0.0),
    (Family.diag(3), np.array([-0.5, 2.0, -1.5]), 4.0),
    (Family.full(2), np.array([[0.5, -1.5], [-1.5, 0.5]]), 4.0),
], ids=["isotropic", "diag", "full"])
def test_admm_client_bound_of_a_linear_in_t_loss_is_its_largest_curvature(fam, b2, bound):
    # l = -<c, T>, whose Hessian is the payload -2 c.b2: none (l is linear), the diagonal
    # [1, -4, 3], or the matrix [[-1, 3], [3, -1]] with eigenvalues 2 and -4.
    loss = LinearInT(DualVec(fam, np.zeros(fam.dim), b2))
    assert solvers_mod._gd_lipschitz(loss) == pytest.approx(bound, rel=1e-12)


# ---------------------------------------------------------------------------
# VON solves in lockstep
# ---------------------------------------------------------------------------


def same_solve(got, want):
    """Two solves agree bit for bit: mean, precision, factor and every report field."""
    (lam, report), (ref, ref_report) = got, want
    assert (report.steps, report.halvings, report.converged) == (ref_report.steps, ref_report.halvings,
                                                               ref_report.converged)
    assert report.grad_norm.hex() == ref_report.grad_norm.hex()
    for a, b in ((lam.m, ref.m), (lam.prec, ref.prec), (lam._chol, ref._chol)):
        assert (a is None and b is None) or np.array_equal(a.view(np.uint64), b.view(np.uint64))


def lone_solves(specs, estimators, **kw):
    """``solve_von`` of each spec alone: its result, or what it raised."""
    out = []
    for spec, est in zip(specs, estimators):
        try:
            out.append(solve_von(spec, estimator=est, **kw))
        except Exception as exc:
            out.append(exc)
    return out


def assert_stack_equals_lone_solves(specs, estimators, **kw):
    """Each lockstep outcome up to the first failing client's is that client's lone outcome."""
    lone = lone_solves(specs, estimators, **kw)
    stacked = von_lockstep(specs, estimator=estimators, **kw)
    assert len(stacked) == len(specs)
    first = next((k for k, o in enumerate(lone) if isinstance(o, Exception)), len(specs))
    for got, want in zip(stacked[:first], lone):
        same_solve(got, want)
    if first < len(specs):
        assert type(stacked[first]) is type(lone[first]) and str(stacked[first]) == str(lone[first])
    return stacked


def random_dual(rng, fam, scale, push):
    """A small random dual; ``push`` > 0 lowers its second block, so that unit steps at a large rho
    overshoot out of the family and halve."""
    if fam.kind == "full":
        second = -scale * random_spd(rng, fam.dim) - push * np.eye(fam.dim)
        return DualVec(fam, scale * rng.standard_normal(fam.dim), second)
    second = None if fam.kind == "isotropic" else scale * rng.standard_normal(fam.dim) - push
    return DualVec(fam, scale * rng.standard_normal(fam.dim), second)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["isotropic", "diag", "full"]), multiclass=st.booleans(),
       sizes=st.lists(st.sampled_from([6, 9]), min_size=1, max_size=4), sampled=st.booleans(),
       push=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**16))
def test_lockstep_solves_equal_lone_solves_bit_for_bit(kind, multiclass, sizes, sampled, push, seed):
    # Clients with 6 and with 9 examples make two stacks; 3-draw Monte Carlo clients go alone.
    rng = np.random.default_rng(seed)
    d = 2
    fam = getattr(Family, kind)(3 * d if multiclass else d)
    prec = {"isotropic": None, "diag": rng.uniform(0.5, 2.0, fam.dim)}.get(kind, random_spd(rng, fam.dim))
    prior = NatParam(fam, 0.3 * rng.standard_normal(fam.dim), prec)
    specs, estimators = [], []
    for k, n in enumerate(sizes):
        x = rng.standard_normal((n, d))
        loss = (MulticlassLogistic(x, rng.integers(0, 3, n), 3) if multiclass
                else Logistic(x, (rng.random(n) < 0.5).astype(float)))
        rho, tau = float(rng.uniform(0.3, 4.0)), float(rng.choice([1.0, 1.5]))
        specs.append(SubproblemSpec(loss, random_dual(rng, fam, 0.05, push), prior, rho=rho, tau=tau))
        estimators.append(MonteCarlo(3, seed=seed + k) if sampled else Delta())
    assert_stack_equals_lone_solves(specs, estimators, steps=8, beta=float(rng.choice([0.5, 1.0])),
                                    tol=float(rng.choice([0.0, 1e-3])))


def halving_specs():
    """Three diag clients; the quadratic one's first step leaves the family and halves once."""
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((30, 2)), (rng.random(30) < 0.5).astype(float)
    diag = Family.diag(2)
    prior = NatParam(diag, np.zeros(2), np.ones(2))
    return [SubproblemSpec(Logistic(x[:20], y[:20]), dual_zero(diag), prior, rho=0.5),
            SubproblemSpec(Quadratic(np.diag([-3.0, 1.0]), np.zeros(2)), dual_zero(diag), prior, rho=4.0),
            SubproblemSpec(Logistic(x[10:], y[10:]), dual_zero(diag), prior, rho=0.5)]


def test_a_client_halving_alone_in_a_stack_changes_no_other_client(monkeypatch):
    rows = []
    from_dual_rows = solvers_mod.from_dual_rows
    monkeypatch.setattr(solvers_mod, "from_dual_rows", lambda fam, b1, b2: rows.append(len(b1)) or
                        from_dual_rows(fam, b1, b2))
    solved = assert_stack_equals_lone_solves(halving_specs(), [Delta()] * 3, steps=20, beta=0.5, tol=1e-10)
    assert [report.halvings for _, report in solved] == [0, 1, 0]
    # The quadratic client converges at step 1 and leaves the stack; the other two take all 20 steps.
    assert [(r.steps, r.converged) for _, r in solved] == [(20, False), (1, True), (20, False)]
    # The lone solves step one row at a time; the stack's steps are the rest.
    assert [r for r in rows if r > 1] == [3] + [2] * 19


def test_the_lowest_failing_client_id_is_raised_even_when_a_later_one_fails_first():
    # Nonconvex quadratics on the diag family: no minimizer in the family, so the precision
    # shrinks until no halving repairs a step; the steeper one fails sooner.
    diag = Family.diag(2)
    prior = NatParam(diag, np.zeros(2), np.ones(2))
    specs = [SubproblemSpec(Quadratic(np.diag([a, 1.0]), np.zeros(2)), dual_zero(diag), prior, rho=1.0)
             for a in (-5.0, -1000.0)]
    lone = lone_solves(specs, [Delta()] * 2, steps=30, beta=0.5, tol=1e-10)
    assert [str(exc) for exc in lone] == [f"iterate left the family at step {t} and halving did not repair it"
                                          for t in (6, 1)]
    assert [str(exc) for exc in von_lockstep(specs, steps=30, beta=0.5, tol=1e-10)] == [str(exc) for exc in lone]
    fine = halving_specs()[0]
    outcomes = von_lockstep([fine] + specs, steps=30, beta=0.5, tol=1e-10)
    same_solve(outcomes[0], solve_von(fine, steps=30, beta=0.5, tol=1e-10))
    assert [str(exc) for exc in outcomes[1:]] == [str(exc) for exc in lone]


def test_a_client_whose_gradient_raises_stops_the_clients_after_it():
    # Reparam on the full family raises from its natural gradient, so the stacked step is
    # redone client by client: client 0 solves on, client 1 fails and client 2 stops.
    fine, _, later = halving_specs()
    full = Family.full(2)
    prior = NatParam(full, np.zeros(2), np.eye(2))
    specs = [SubproblemSpec(spec.loss, dual_zero(full), prior, rho=0.5) for spec in (fine, fine, later)]
    estimators = [Delta(), Reparam(4, seed=1), Delta()]
    outcomes = von_lockstep(specs, steps=5, beta=0.5, estimator=estimators, tol=1e-10)
    same_solve(outcomes[0], solve_von(specs[0], steps=5, beta=0.5, tol=1e-10))
    assert isinstance(outcomes[1], EstimatorUnsupported) and outcomes[2] is None


# ---------------------------------------------------------------------------
# argument checks
# ---------------------------------------------------------------------------


QUAD2 = Quadratic(np.eye(2), np.zeros(2))
DIAG2 = NatParam(Family.diag(2), np.zeros(2), np.ones(2))
SPEC2 = SubproblemSpec(QUAD2, dual_zero(Family.diag(2)), DIAG2, rho=1.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: SubproblemSpec(QUAD2, dual_zero(Family.diag(2)), DIAG2, rho=0.0), ValueError, "rho must be > 0"),
    (lambda: SubproblemSpec(QUAD2, dual_zero(Family.diag(2)), DIAG2, rho=1.0, tau=0.0), ValueError, "tau must be > 0"),
    (lambda: SubproblemSpec(QUAD2, dual_zero(Family.full(2)), DIAG2, rho=1.0), FamilyMismatch,
     "eta and lam_g families differ"),
    (lambda: von_lockstep([SPEC2], beta=0.0), ValueError, "beta must lie in (0, 1]"),
    (lambda: von_lockstep([SPEC2], beta=1.5), ValueError, "beta must lie in (0, 1]"),
    (lambda: von_lockstep([SPEC2], steps=-1), ValueError, "steps must be >= 0"),
    (lambda: IvonConfig(steps=-1), ValueError, "steps must be >= 0"),
    (lambda: IvonConfig(beta1=1.0), ValueError, "beta1, beta2 must lie in (0, 1)"),
    (lambda: IvonConfig(beta2=0.0), ValueError, "beta1, beta2 must lie in (0, 1)"),
    (lambda: IvonConfig(h0=-0.1), ValueError, "h0 must be >= 0"),
    (lambda: IvonConfig(steps=3, lr_schedule=(0.1, 0.1)), ValueError, "lr_schedule shorter than steps"),
    (lambda: solve_ivon(QUAD2, DIAG2, 0.0, np.zeros(2), np.zeros(2), IvonConfig()), ValueError,
     "loss_scale must be > 0"),
    (lambda: solve_ivon(QUAD2, DIAG2, 1.0, np.zeros(3), np.zeros(2), IvonConfig()), FamilyMismatch,
     "multiplier vectors must match the parameter dimension"),
    (lambda: solve_admm_client(QUAD2, np.zeros(2), np.zeros(2), 0.0), ValueError, "rho must be > 0"),
], ids=["spec-rho", "spec-tau", "spec-families", "lockstep-beta-zero", "lockstep-beta-above-one",
        "lockstep-steps", "ivon-steps", "ivon-beta1", "ivon-beta2", "ivon-h0", "ivon-schedule",
        "ivon-loss-scale", "ivon-multipliers", "admm-rho"])
def test_a_solver_argument_out_of_range_is_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_lockstep_of_no_subproblems_has_no_outcomes():
    assert von_lockstep([]) == []
