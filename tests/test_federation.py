import json
import re

import numpy as np
import pytest

import bayesadmm.federation as federation_mod
from bayesadmm.errors import CheckpointError, FamilyMismatch, PrecisionEscape
from bayesadmm.families import (
    DualVec,
    Family,
    NatParam,
    array_from_jsonable,
    array_to_jsonable,
    dual_axpy,
    dual_inf_norm,
    dual_scale,
    dual_sum,
    dual_zero,
    is_guessed,
    log_density,
    nat_sub,
    pair_with_stat,
    sample,
    to_expectation,
)
from bayesadmm.federation import (
    ROUND_ENGINES,
    InnerConfig,
    MethodConfig,
    ServerState,
    admm_round,
    bayes_admm_round,
    bregman_admm_round,
    checkpoint_from_jsonable,
    checkpoint_to_jsonable,
    fedavg_round,
    init_bayes_states,
    init_point_states,
    ivon_admm_round,
    pvi_round,
    resolve_estimator,
    run_rounds,
    seed_for,
    verify_fixed_point,
)
from bayesadmm.losses import (
    Delta,
    LinearInT,
    Logistic,
    MulticlassLogistic,
    Quadratic,
    conjugate_coefficient,
    loss_grad,
    natural_gradient,
    scale_loss,
)
from bayesadmm.solvers import IvonConfig, solve_ivon


def random_spd(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(0.3, 3.0, d)) @ q.T


def ridge_problem(rng, K, d, n):
    losses, shards = [], []
    for _ in range(K):
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        losses.append(Quadratic(x.T @ x, -(x.T @ y), n))
        shards.append((x, y))
    return losses, shards


def joint_ridge_solution(losses, delta):
    d = losses[0].dim
    prec = delta * np.eye(d)
    rhs = np.zeros(d)
    for loss in losses:
        prec = prec + loss.A
        rhs = rhs - loss.b
    return np.linalg.solve(prec, rhs), prec


# ---------------------------------------------------------------------------
# classical consensus round
# ---------------------------------------------------------------------------


def test_admm_single_client_converges_to_joint_optimum():
    rng = np.random.default_rng(0)
    losses, _ = ridge_problem(rng, 1, 3, 10)
    theta_star, _ = joint_ridge_solution(losses, 1.0)
    server, clients = init_point_states(3, losses, [10], rho=0.3, delta=1.0)
    cfg = MethodConfig("admm")
    dists = []
    for r in range(200):
        admm_round(server, clients, cfg, r)
        dists.append(np.max(np.abs(server.theta_g - theta_star)))
    grad = loss_grad(losses[0], server.theta_g) + server.theta_g
    assert np.max(np.abs(grad)) < 1e-8
    # geometric decay: halfway error already collapsed relative to the start
    assert dists[99] < dists[0] * 1e-6


def test_admm_dual_equals_negative_gradient():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((12, 2))
    y = (rng.random(12) < 0.5).astype(float)
    losses = [Logistic(x, y)]
    server, clients = init_point_states(2, losses, [12], rho=0.4, delta=1.0)
    cfg = MethodConfig("admm", inner=InnerConfig(tol=1e-11, steps=8000))
    admm_round(server, clients, cfg, 0)
    c = clients[0]
    assert np.allclose(c.v, -loss_grad(losses[0], c.theta), atol=1e-9)


def test_alpha_formula():
    server = ServerState(rho=0.5, K=10)
    assert server.alpha == pytest.approx(1.0 / 6.0)
    server.alpha_override = 1.0
    assert server.alpha == 1.0


@pytest.mark.parametrize("call, message", [
    (lambda: ServerState(rho=0.0, K=1), "need rho > 0, tau > 0 and K >= 1"),
    (lambda: ServerState(rho=1.0, K=0), "need rho > 0, tau > 0 and K >= 1"),
    (lambda: ServerState(rho=1.0, K=1, tau=0.0), "need rho > 0, tau > 0 and K >= 1"),
    (lambda: MethodConfig("gossip"), "unknown method 'gossip'"),
    (lambda: MethodConfig("pvi", damping=0.0), "damping must lie in (0, 1]"),
    (lambda: MethodConfig("pvi", damping=1.5), "damping must lie in (0, 1]"),
    (lambda: MethodConfig("admm", client_repeats=0), "client_repeats must be >= 1"),
    (lambda: resolve_estimator(InnerConfig(estimator="exact"), Quadratic(np.eye(1), np.zeros(1)), 0),
     "unknown estimator 'exact'"),
], ids=["rho", "k", "tau", "method", "damping-zero", "damping-above-one", "client-repeats", "estimator"])
def test_a_server_or_method_setting_out_of_range_is_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def two_ridge_clients(fam):
    prior = NatParam(fam, np.zeros(2), {"diag": np.ones(2), "full": np.eye(2)}[fam.kind])
    return init_bayes_states(prior, [Quadratic(np.eye(2), np.ones(2))] * 2, [3, 3], rho=1.0)


@pytest.mark.parametrize("fam, round_fn, cfg, error, message", [
    (Family.diag(2), bayes_admm_round, MethodConfig("bayes_admm", inner=InnerConfig(solver="prox")), FamilyMismatch,
     "prox inner solver requires the isotropic family"),
    (Family.full(2), bayes_admm_round, MethodConfig("bayes_admm", inner=InnerConfig(solver="newton")), ValueError,
     "unknown inner solver 'newton'"),
    (Family.full(2), ivon_admm_round, MethodConfig("ivon_admm"), FamilyMismatch,
     "ivon_admm requires the diagonal-precision family"),
], ids=["prox-on-diag", "unknown-solver", "ivon-on-full"])
def test_a_round_whose_solver_cannot_serve_its_family_raises(fam, round_fn, cfg, error, message):
    server, clients = two_ridge_clients(fam)
    with pytest.raises(error, match=re.escape(message)):
        round_fn(server, clients, cfg, 0)


# ---------------------------------------------------------------------------
# Bayesian round
# ---------------------------------------------------------------------------


def test_one_round_convergence_on_conjugate_losses():
    rng = np.random.default_rng(3)
    K, d = 4, 3
    fam = Family.full(d)
    cs = [DualVec(fam, rng.standard_normal(d), -0.5 * random_spd(rng, d)) for _ in range(K)]
    losses = [LinearInT(c) for c in cs]
    prior = NatParam(fam, np.zeros(d), np.eye(d))
    server, clients = init_bayes_states(prior, losses, [0] * K, rho=1.0 / K)
    cfg = MethodConfig("bayes_admm")
    bayes_admm_round(server, clients, cfg, 0)
    target = NatParam.from_dual(dual_sum([prior.as_dual()] + cs))
    assert dual_inf_norm(nat_sub(server.lam_g, target)) < 1e-12
    frozen = server.lam_g
    bayes_admm_round(server, clients, cfg, 1)
    assert dual_inf_norm(nat_sub(server.lam_g, frozen)) < 1e-12
    for c in clients:
        assert dual_inf_norm(nat_sub(c.lam, server.lam_g)) < 1e-12


def test_auto_solver_takes_a_ridge_clients_coefficient_once(monkeypatch):
    import bayesadmm.federation as federation
    import bayesadmm.solvers as solvers

    rng = np.random.default_rng(5)
    K, d, n = 2, 3, 10
    losses, _ = ridge_problem(rng, K, d, n)
    prior = NatParam(Family.full(d), np.zeros(d), np.eye(d))
    server, clients = init_bayes_states(prior, losses, [n] * K, rho=0.5)
    calls = []

    def counting(loss, fam):
        calls.append(loss)
        return conjugate_coefficient(loss, fam)

    # Patched where the round could reach it: in the conjugate solver and in the round itself.
    for module in (solvers, federation):
        monkeypatch.setattr(module, "conjugate_coefficient", counting, raising=False)
    bayes_admm_round(server, clients, MethodConfig("bayes_admm"), 0)
    assert len(calls) == K


@pytest.mark.parametrize("solver", ["conjugate", "von"])
def test_a_round_maps_the_server_to_coordinates_once(monkeypatch, solver):
    rng = np.random.default_rng(6)
    K, d, n = 3, 3, 10
    losses, _ = ridge_problem(rng, K, d, n)
    prior = NatParam(Family.full(d), np.zeros(d), np.eye(d))
    server, clients = init_bayes_states(prior, losses, [n] * K, rho=0.5)
    mapped = []
    coords = NatParam.coords

    def counting(lam):
        mapped.append(lam)
        return coords(lam)

    monkeypatch.setattr(NatParam, "coords", counting)
    cfg = MethodConfig("bayes_admm", inner=InnerConfig(solver=solver, estimator="analytic", steps=3))
    for rnd in range(2):
        lam_g = server.lam_g
        mapped.clear()
        bayes_admm_round(server, clients, cfg, rnd)
        assert sum(lam is lam_g for lam in mapped) == 1


def test_admm_recovery_isotropic_delta_method():
    rng = np.random.default_rng(4)
    K, d, n = 3, 4, 12
    losses, _ = ridge_problem(rng, K, d, n)
    rho = 0.7
    server_a, clients_a = init_point_states(d, losses, [n] * K, rho, delta=1.0)
    prior = NatParam(Family.isotropic(d), np.zeros(d))
    server_b, clients_b = init_bayes_states(prior, losses, [n] * K, rho)
    cfg_a = MethodConfig("admm")
    cfg_b = MethodConfig("bayes_admm", delta_method=True, inner=InnerConfig(solver="prox"))
    for r in range(50):
        admm_round(server_a, clients_a, cfg_a, r)
        bayes_admm_round(server_b, clients_b, cfg_b, r)
        assert np.max(np.abs(server_a.theta_g - server_b.lam_g.m)) <= 1e-10
        for ca, cb in zip(clients_a, clients_b):
            assert np.max(np.abs(ca.theta - cb.lam.m)) <= 1e-10
            assert np.max(np.abs(ca.v - cb.eta.b1)) <= 1e-10


def test_blr_equivalence_with_converged_clients():
    # client steps iterated to convergence make the server step a BLR step
    rng = np.random.default_rng(5)
    d, K = 2, 2
    fam = Family.full(d)
    losses = []
    for _ in range(K):
        x = rng.standard_normal((15, d))
        y = (rng.random(15) < 0.5).astype(float)
        losses.append(Logistic(x, y))
    prior = NatParam(fam, np.zeros(d), 0.5 * np.eye(d))
    server, clients = init_bayes_states(prior, losses, [15] * K, rho=0.8)
    cfg = MethodConfig(
        "bayes_admm",
        inner=InnerConfig(solver="von", estimator="delta", tol=1e-12, steps=2000),
        client_repeats=400,
        repeat_tol=1e-12,
    )
    lam_old = server.lam_g
    alpha = server.alpha
    mu_old = to_expectation(lam_old)
    blr_target = dual_axpy(
        -1.0,
        dual_sum([natural_gradient(l, lam_old, Delta()) for l in losses]),
        server.eta0,
    )
    expect = NatParam.from_dual(
        dual_axpy(alpha, blr_target, dual_scale(1.0 - alpha, lam_old.as_dual()))
    )
    bayes_admm_round(server, clients, cfg, 0)
    assert dual_inf_norm(nat_sub(server.lam_g, expect)) < 1e-8


def test_gamma_defaults_to_rho_and_can_differ():
    server = ServerState(rho=0.4, K=2)
    assert server.dual_step == pytest.approx(0.4)
    server.gamma = 0.1
    assert server.dual_step == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# PVI round
# ---------------------------------------------------------------------------


def test_pvi_single_client_exact_posterior_in_one_round():
    rng = np.random.default_rng(6)
    d = 3
    fam = Family.full(d)
    c = DualVec(fam, rng.standard_normal(d), -0.5 * random_spd(rng, d))
    prior = NatParam(fam, np.zeros(d), np.eye(d))
    server, clients = init_bayes_states(prior, [LinearInT(c)], [0], rho=1.0)
    cfg = MethodConfig("pvi", damping=1.0)
    pvi_round(server, clients, cfg, 0)
    target = NatParam.from_dual(dual_axpy(1.0, c, prior.as_dual()))
    assert dual_inf_norm(nat_sub(server.lam_g, target)) < 1e-12


def test_pvi_site_increment_matches_density_ratio():
    # log t_k increment = log q_k - log q_g up to a theta-independent constant
    rng = np.random.default_rng(7)
    d = 2
    fam = Family.full(d)
    x = rng.standard_normal((10, d))
    y = (rng.random(10) < 0.5).astype(float)
    prior = NatParam(fam, np.zeros(d), np.eye(d))
    server, clients = init_bayes_states(prior, [Logistic(x, y)], [10], rho=1.0)
    cfg = MethodConfig("pvi", damping=1.0, inner=InnerConfig(solver="von", estimator="delta", tol=1e-10, steps=1000))
    lam_g = server.lam_g
    eta_before = clients[0].eta
    pvi_round(server, clients, cfg, 0)
    lam_k = clients[0].lam
    delta_eta = dual_axpy(-1.0, eta_before, clients[0].eta)
    thetas = sample(lam_k, 6, seed=1)
    gaps = [
        pair_with_stat(delta_eta, th) - (log_density(lam_k, th) - log_density(lam_g, th))
        for th in thetas
    ]
    assert np.std(gaps) < 1e-9


def test_pvi_site_equals_dual_by_construction():
    fam = Family.diag(2)
    eta = DualVec(fam, np.array([0.4, -0.2]), np.array([-0.1, 0.05]))
    theta = np.array([1.0, 2.0])
    assert pair_with_stat(eta, theta) == pytest.approx(
        0.4 * 1.0 - 0.2 * 2.0 - 0.1 * 1.0 + 0.05 * 4.0
    )


# ---------------------------------------------------------------------------
# Bregman round
# ---------------------------------------------------------------------------


def test_bregman_does_not_converge_in_one_round_on_conjugate():
    rng = np.random.default_rng(8)
    K, d = 3, 2
    fam = Family.full(d)
    cs = [DualVec(fam, rng.standard_normal(d), -0.5 * random_spd(rng, d)) for _ in range(K)]
    losses = [LinearInT(c) for c in cs]
    prior = NatParam(fam, np.zeros(d), np.eye(d))
    server, clients = init_bayes_states(prior, losses, [0] * K, rho=1.0 / K)
    cfg = MethodConfig("bregman_admm")
    bregman_admm_round(server, clients, cfg, 0)
    target = NatParam.from_dual(dual_sum([prior.as_dual()] + cs))
    assert dual_inf_norm(nat_sub(server.lam_g, target)) > 1e-3


def test_bregman_fixed_point_leaves_dual_unchanged():
    rng = np.random.default_rng(9)
    fam = Family.full(2)
    prior = NatParam(fam, np.zeros(2), np.eye(2))
    # zero loss: client solution equals the server, so mu_k - mu_g = 0
    server, clients = init_bayes_states(prior, [LinearInT(dual_zero(fam))], [0], rho=0.5)
    cfg = MethodConfig("bregman_admm")
    bregman_admm_round(server, clients, cfg, 0)
    assert dual_inf_norm(clients[0].eta) < 1e-14


def test_bregman_coincides_with_bayes_on_isotropic():
    rng = np.random.default_rng(10)
    d, K, n = 3, 2, 10
    losses = []
    for _ in range(K):
        x = rng.standard_normal((n, d))
        y = (rng.random(n) < 0.5).astype(float)
        losses.append(Logistic(x, y))
    prior = NatParam(Family.isotropic(d), np.zeros(d))
    s1, c1 = init_bayes_states(prior, losses, [n] * K, rho=0.6)
    s2, c2 = init_bayes_states(prior, losses, [n] * K, rho=0.6)
    inner = InnerConfig(solver="von", estimator="delta", tol=1e-11, steps=2000)
    for r in range(5):
        bayes_admm_round(s1, c1, MethodConfig("bayes_admm", inner=inner), r)
        bregman_admm_round(s2, c2, MethodConfig("bregman_admm", inner=inner), r)
        assert dual_inf_norm(nat_sub(s1.lam_g, s2.lam_g)) < 1e-12


# ---------------------------------------------------------------------------
# IVON round
# ---------------------------------------------------------------------------


def test_ivon_round_initialization_matches_contract():
    fam = Family.diag(2)
    delta = 0.8
    prior = NatParam(fam, np.zeros(2), delta * np.ones(2))
    losses = [Quadratic(np.diag([0.1, 0.2]), np.zeros(2), 5)]
    server, clients = init_bayes_states(prior, losses, [5], rho=1.0)
    assert np.allclose(server.lam_g.m, 0.0)
    assert np.allclose(server.lam_g.prec, delta)
    assert np.allclose(clients[0].eta.b1, 0.0)
    assert np.allclose(clients[0].eta.u, 0.0)


def test_ivon_round_single_client_reaches_conjugate_posterior():
    fam = Family.diag(1)
    delta = 0.5
    prior = NatParam(fam, np.zeros(1), np.array([delta]))
    a, b = 0.01, -0.02
    losses = [Quadratic(np.array([[a]]), np.array([b]), 0)]
    server, clients = init_bayes_states(prior, losses, [0], rho=1.0)
    steps = 10_000
    sched = tuple(0.03 / (1.0 + t / 150.0) for t in range(steps))
    icfg = IvonConfig(steps=steps, lr=0.03, lr_schedule=sched, beta2=0.999, h0=0.1)
    cfg = MethodConfig("ivon_admm", inner=InnerConfig(solver="ivon", ivon=icfg))
    ivon_admm_round(server, clients, cfg, 0, base_seed=0)
    s_true = a + delta
    m_true = -b / s_true
    assert abs(server.lam_g.m[0] - m_true) < 1e-3
    assert abs(server.lam_g.prec[0] - s_true) < 1e-3


def test_ivon_round_alpha_one_is_pvi_with_ivon():
    # independently coded site/server arithmetic, same inner solver seeds
    rng = np.random.default_rng(11)
    d, K = 2, 2
    fam = Family.diag(d)
    delta = 0.7
    losses, ns = [], []
    for _ in range(K):
        x = rng.standard_normal((20, d))
        y = (rng.random(20) < 0.5).astype(float)
        losses.append(Logistic(x, y))
        ns.append(20)
    prior = NatParam(fam, np.zeros(d), delta * np.ones(d))
    gamma = 0.4
    icfg = IvonConfig(steps=150, lr=0.05, beta2=0.999, h0=0.1)
    server, clients = init_bayes_states(prior, losses, ns, rho=1.0, gamma=gamma, alpha_override=1.0)
    cfg = MethodConfig("ivon_admm", inner=InnerConfig(solver="ivon", ivon=icfg))
    mg, sg = np.zeros(d), delta * np.ones(d)
    vs = [np.zeros(d) for _ in range(K)]
    us = [np.zeros(d) for _ in range(K)]
    for r in range(3):
        ivon_admm_round(server, clients, cfg, r, base_seed=7)
        for k in range(K):
            n = ns[k]
            lam, _ = solve_ivon(
                scale_loss(losses[k], n),
                NatParam(fam, mg, sg),
                n / 1.0,
                vs[k] / n,
                us[k] / n,
                IvonConfig(steps=150, lr=0.05, beta2=0.999, h0=0.1, seed=seed_for(7, r, k)),
            )
            vs[k] = vs[k] + gamma * (lam.prec * lam.m - sg * mg)
            us[k] = us[k] + gamma * (lam.prec - sg)
        sg = delta + sum(us)
        mg = sum(vs) / sg
        assert np.max(np.abs(server.lam_g.m - mg)) < 1e-12
        assert np.max(np.abs(server.lam_g.prec - sg)) < 1e-12


def test_inner_converged_is_false_only_when_a_solve_reports_so():
    # IVON runs a fixed schedule with no tolerance and fedavg runs no solver, so their
    # rounds make no claim and record true; VON and proximal solves cut at one step do not
    # converge, and a conjugate solve is exact.
    rng = np.random.default_rng(16)
    x = rng.standard_normal((12, 2))
    losses = [Logistic(x, (rng.random(12) < 0.5).astype(float)) for _ in range(2)]
    quads = [Quadratic(np.eye(2), rng.standard_normal(2)) for _ in range(2)]
    one_step = InnerConfig(steps=1, tol=1e-12, ivon=IvonConfig(steps=3))
    cases = [
        (ivon_admm_round, "ivon_admm", Family.diag(2), losses, True),
        (bayes_admm_round, "bayes_admm", Family.full(2), losses, False),
        (bayes_admm_round, "bayes_admm", Family.full(2), quads, True),
        (bayes_admm_round, "bayes_admm", Family.isotropic(2), losses, False),
        (admm_round, "admm", None, losses, False),
        (fedavg_round, "fedavg", None, losses, True),
    ]
    for engine, method, fam, problem, want in cases:
        cfg = MethodConfig(method, inner=one_step, delta_method=fam is not None and fam.kind == "isotropic")
        if fam is None:
            server, clients = init_point_states(2, problem, [12, 12], rho=1.0)
        else:
            prec = {"diag": np.ones(2), "full": np.eye(2)}.get(fam.kind)
            server, clients = init_bayes_states(NatParam(fam, np.zeros(2), prec), problem, [12, 12], rho=1.0)
        assert engine(server, clients, cfg, 0) == {"inner_converged": want}, (method, fam)


# ---------------------------------------------------------------------------
# FedAvg round
# ---------------------------------------------------------------------------


def test_fedavg_identical_clients_match_centralized_gd():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((10, 2))
    y = (rng.random(10) < 0.5).astype(float)
    loss = Logistic(x, y)
    server, clients = init_point_states(2, [loss, loss], [10, 10], rho=1.0)
    cfg = MethodConfig("fedavg", local_steps=5, lr=0.05)
    fedavg_round(server, clients, cfg, 0)
    theta = np.zeros(2)
    for _ in range(5):
        theta = theta - 0.05 * loss_grad(loss, theta)
    assert np.allclose(server.theta_g, theta, atol=1e-12)


def test_fedavg_zero_local_steps_is_identity():
    rng = np.random.default_rng(13)
    losses, _ = ridge_problem(rng, 2, 2, 6)
    server, clients = init_point_states(2, losses, [6, 6], rho=1.0)
    server.theta_g = np.array([0.5, -0.5])
    cfg = MethodConfig("fedavg", local_steps=0)
    fedavg_round(server, clients, cfg, 0)
    assert np.allclose(server.theta_g, [0.5, -0.5])


def test_fedavg_heterogeneous_quadratic_settles():
    rng = np.random.default_rng(14)
    losses, _ = ridge_problem(rng, 3, 2, 8)
    server, clients = init_point_states(2, losses, [8, 8, 8], rho=1.0)
    cfg = MethodConfig("fedavg", local_steps=5, lr=0.01)
    last = None
    for r in range(300):
        fedavg_round(server, clients, cfg, r)
        moved = None if last is None else np.max(np.abs(server.theta_g - last))
        last = server.theta_g.copy()
    assert moved < 1e-8  # converged to its own fixed point; residual recorded, no claim
    theta_star, _ = joint_ridge_solution(losses, 0.0)
    assert np.all(np.isfinite(theta_star))


# ---------------------------------------------------------------------------
# fixed-point verification
# ---------------------------------------------------------------------------


def make_conjugate_states(rng, K=3, d=2, rho=0.5):
    fam = Family.full(d)
    cs = [DualVec(fam, rng.standard_normal(d), -0.5 * random_spd(rng, d)) for _ in range(K)]
    losses = [LinearInT(c) for c in cs]
    prior = NatParam(fam, np.zeros(d), np.eye(d))
    lam_star = NatParam.from_dual(dual_sum([prior.as_dual()] + cs))
    server, clients = init_bayes_states(prior, losses, [0] * K, rho=rho)
    return server, clients, lam_star, cs


def test_verify_fixed_point_at_oracle():
    rng = np.random.default_rng(15)
    server, clients, lam_star, cs = make_conjugate_states(rng)
    server.lam_g = lam_star
    for client, c in zip(clients, cs):
        client.lam = lam_star
        client.eta = c  # -grad L = c
    report = verify_fixed_point(server, clients)
    assert report.max_residual < 1e-10


def test_verify_fixed_point_zero_duals_shows_gradient():
    rng = np.random.default_rng(16)
    server, clients, _, cs = make_conjugate_states(rng, K=1)
    report = verify_fixed_point(server, clients)
    # eta = 0, lam_k = lam_g: dual residual equals ||grad L(mu_g)|| = ||c||
    assert report.dual == pytest.approx(dual_inf_norm(cs[0]), rel=1e-12)


def test_fixed_point_residuals_shrink_during_bayes_rounds():
    rng = np.random.default_rng(17)
    d, K = 2, 2
    fam = Family.full(d)
    losses = []
    for _ in range(K):
        x = rng.standard_normal((15, d))
        y = (rng.random(15) < 0.5).astype(float)
        losses.append(Logistic(x, y))
    prior = NatParam(fam, np.zeros(d), np.eye(d))
    server, clients = init_bayes_states(prior, losses, [15] * K, rho=1.0)
    cfg = MethodConfig("bayes_admm", inner=InnerConfig(solver="von", estimator="delta", tol=1e-10, steps=2000))
    first = verify_fixed_point(server, clients, estimator=Delta()).max_residual
    for r in range(25):
        bayes_admm_round(server, clients, cfg, r)
    last = verify_fixed_point(server, clients, estimator=Delta()).max_residual
    assert last < first * 1e-3


# ---------------------------------------------------------------------------
# run driver, determinism, checkpoints
# ---------------------------------------------------------------------------


def scenario_records():
    rng = np.random.default_rng(42)
    d, K = 2, 3
    losses = []
    for _ in range(K):
        x = rng.standard_normal((12, d))
        y = (rng.random(12) < 0.5).astype(float)
        losses.append(Logistic(x, y))
    prior = NatParam(Family.full(d), np.zeros(d), np.eye(d))
    server, clients = init_bayes_states(prior, losses, [12] * K, rho=0.8)
    cfg = MethodConfig(
        "bayes_admm",
        inner=InnerConfig(solver="von", estimator="mc", mc_count=16, tol=1e-8, steps=200),
    )
    metrics_fn = lambda s, c: {"norm": float(np.max(np.abs(s.lam_g.m)))}  # noqa: E731
    result = run_rounds(server, clients, cfg, 6, metrics_fn=metrics_fn)
    return json.dumps(result.records, sort_keys=True)


def test_runs_identical_across_repeats():
    assert scenario_records() == scenario_records()


def lockstep_scenario(method, repeats, repeat_tol, kind, data="logistic"):
    """A round's checkpoint, records and event after three rounds, with ``solver = auto``.

    ``data`` is ``logistic`` (multiclass losses; client 2 has fewer examples),
    ``ridge`` (quadratics, which the diag family cannot represent) or
    ``mixed`` (client 1's logistic loss swapped for a quadratic).
    """
    rng = np.random.default_rng(7)
    d, sizes = 2, (12, 12, 9, 12)
    losses = [MulticlassLogistic(rng.standard_normal((n, d)), rng.integers(0, 3, n), 3) for n in sizes]
    if data == "ridge":
        losses, _ = ridge_problem(rng, len(sizes), 3 * d, 12)
    elif data == "mixed":
        losses[1] = ridge_problem(rng, 1, 3 * d, 12)[0][0]
    fam = getattr(Family, kind)(3 * d)
    prior = NatParam(fam, np.zeros(3 * d), None if kind == "isotropic" else
                     (np.ones(3 * d) if kind == "diag" else np.eye(3 * d)))
    server, clients = init_bayes_states(prior, losses, list(sizes), rho=0.8)
    cfg = MethodConfig(method, inner=InnerConfig(solver="auto", tol=1e-6, steps=15),
                       client_repeats=repeats, repeat_tol=repeat_tol)
    result = run_rounds(server, clients, cfg, 3)
    return (json.dumps(checkpoint_to_jsonable(server, clients, result.rounds_committed)),
            json.dumps(result.records), result.event)


@pytest.mark.parametrize("method, repeats, repeat_tol, kind, data", [
    ("bayes_admm", 1, 0.0, "full", "logistic"), ("bregman_admm", 1, 0.0, "full", "logistic"),
    ("pvi", 1, 0.0, "diag", "logistic"), ("bayes_admm", 3, 0.0, "diag", "logistic"),
    ("bayes_admm", 4, 1e-3, "full", "logistic"), ("bayes_admm", 2, 0.0, "isotropic", "logistic"),
    ("bayes_admm", 1, 0.0, "diag", "ridge"), ("bayes_admm", 2, 0.0, "full", "mixed"),
])
def test_lockstep_rounds_equal_client_by_client_rounds_bit_for_bit(monkeypatch, method, repeats, repeat_tol,
                                                                   kind, data):
    calls = []
    lockstep = federation_mod.von_lockstep
    monkeypatch.setattr(federation_mod, "von_lockstep", lambda specs, *a: calls.append([s.loss for s in specs])
                        or lockstep(specs, *a))
    stacked = lockstep_scenario(method, repeats, repeat_tol, kind, data)
    # One call per repeat, with the VON clients still going: every client but the mixed round's quadratic.
    von = 3 if data == "mixed" else 4
    assert calls and len(calls[0]) == von
    if repeat_tol == 0.0 and stacked[2] is None:
        assert [len(call) for call in calls] == [von] * (repeats * 3)
    assert all(isinstance(loss, Quadratic) == (data == "ridge") for call in calls for loss in call)

    def stacks_of_one(specs, steps, beta, estimators, tol):
        return [lockstep([spec], steps, beta, [est], tol)[0] for spec, est in zip(specs, estimators)]

    monkeypatch.setattr(federation_mod, "von_lockstep", stacks_of_one)
    assert lockstep_scenario(method, repeats, repeat_tol, kind, data) == stacked


def test_run_rounds_reports_divergence_event():
    # a strongly concave conjugate "loss" drives the server combine out of the family
    fam = Family.full(2)
    c = DualVec(fam, np.zeros(2), 0.5 * 10.0 * np.eye(2))
    prior = NatParam(fam, np.zeros(2), np.eye(2))
    server, clients = init_bayes_states(prior, [LinearInT(c)], [0], rho=1.0)
    cfg = MethodConfig("bayes_admm")
    result = run_rounds(server, clients, cfg, 10)
    assert result.diverged
    assert result.event["type"] == "divergence"
    assert result.event["reason"] in ("ResultNotInFamily", "PrecisionEscape")


def test_failed_round_leaves_every_state_as_it_was():
    # Each conjugate client solve stays in the family (precision 1 - 0.6), but
    # with alpha = 1 the combine's precision is 1 - 2 * 0.6 < 0.
    fam = Family.full(2)
    c = DualVec(fam, np.array([0.1, -0.2]), 0.5 * 0.6 * np.eye(2))
    prior = NatParam(fam, np.zeros(2), np.eye(2))
    server, clients = init_bayes_states(
        prior, [LinearInT(c), LinearInT(c)], [1, 1], rho=1.0, alpha_override=1.0
    )
    before = [(client.lam, client.eta) for client in clients]
    result = run_rounds(server, clients, MethodConfig("bayes_admm"), 3)
    assert result.event["reason"] == "ResultNotInFamily" and result.event["round"] == 0
    for client, (lam, eta) in zip(clients, before):
        assert client.lam is lam and client.eta is eta
    assert server.lam_g is prior


def test_non_finite_round_is_reported_and_not_committed():
    losses = [Quadratic(np.eye(2), np.array([1.0, -1.0]), 4)] * 2
    server, clients = init_point_states(2, losses, [4, 4], rho=1.0)
    before = [client.theta for client in clients]
    theta_g = server.theta_g
    cfg = MethodConfig("fedavg", local_steps=5, lr=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_rounds(server, clients, cfg, 2)
    assert result.event["reason"] == "NonFiniteUpdate"
    assert result.event["detail"] == "server point estimate is non-finite"
    assert server.theta_g is theta_g
    assert all(client.theta is theta for client, theta in zip(clients, before))


def test_terminal_divergence_keeps_the_earlier_metric_event(monkeypatch):
    rng = np.random.default_rng(21)
    losses, _ = ridge_problem(rng, 2, 2, 6)
    prior = NatParam(Family.full(2), np.zeros(2), np.eye(2))
    server, clients = init_bayes_states(prior, losses, [6, 6], rho=0.5)
    engine = ROUND_ENGINES["bayes_admm"]

    def failing_engine(server, clients, cfg, rnd, base_seed):
        if rnd == 1:
            raise PrecisionEscape("forced at round 1")
        return engine(server, clients, cfg, rnd, base_seed)

    monkeypatch.setitem(ROUND_ENGINES, "bayes_admm", failing_engine)
    metrics_fn = lambda s, c: {"score": float("nan")}  # noqa: E731
    result = run_rounds(server, clients, MethodConfig("bayes_admm"), 4, metrics_fn=metrics_fn)
    assert result.diverged and result.rounds_completed == 1
    assert result.event["reason"] == "PrecisionEscape" and result.event["round"] == 1
    assert result.event["detail"] == "forced at round 1"
    metric_event = result.event["preceded_by"]
    assert metric_event["reason"] == "NonFiniteMetric" and metric_event["round"] == 0



def test_failing_verifier_ends_the_run_after_an_earlier_metric_event():
    rng = np.random.default_rng(21)
    losses, _ = ridge_problem(rng, 2, 2, 6)
    prior = NatParam(Family.full(2), np.zeros(2), np.eye(2))
    server, clients = init_bayes_states(prior, losses, [6, 6], rho=0.5)

    def verify_fn(s, c):
        if len(seen) == 2:
            raise KeyError("residual")
        return {"residual": float("nan")}

    seen = []
    result = run_rounds(server, clients, MethodConfig("bayes_admm"), 4,
                        metrics_fn=lambda s, c: seen.append(s.lam_g) or {}, verify_fn=verify_fn)
    assert result.rounds_completed == 1 and result.diverged
    assert result.failed and isinstance(result.error, KeyError)
    assert {k: v for k, v in result.event.items() if k != "preceded_by"} == {
        "type": "failure", "round": 1, "method": "bayes_admm", "phase": "verify",
        "reason": "KeyError", "detail": "'residual'"}
    assert result.event["preceded_by"]["reason"] == "NonFiniteMetric"
    # The state is the one round 1 committed, not round 0's.
    assert server.lam_g is seen[1]

@pytest.mark.parametrize("gamma", [0.2, 0.5], ids=["unconverged", "converged"])
@pytest.mark.parametrize("kind", ["isotropic", "diag", "full"])
def test_checkpoint_roundtrip(kind, gamma):
    rng = np.random.default_rng(18)
    d, K = 2, 2
    losses, _ = ridge_problem(rng, K, d, 8)
    prior = NatParam(Family(kind, d), np.zeros(d), {"isotropic": None, "diag": np.ones(d), "full": np.eye(d)}[kind])
    server, clients = init_bayes_states(prior, losses, [8] * K, rho=0.5, gamma=gamma, tau=1.5)
    cfg = MethodConfig("bayes_admm", inner=InnerConfig(solver="auto", estimator="delta"))
    bayes_admm_round(server, clients, cfg, 0)
    blob = json.dumps(checkpoint_to_jsonable(server, clients, 1))
    data = json.loads(blob)
    assert "eta0" not in data
    # Every array is one string; its shape is the family's.
    records = [data["lam_g"]] + [c[part] for c in data["clients"] for part in ("lam", "eta")]
    assert all(isinstance(a, str) for rec in records for a in rec.values())
    # With gamma = rho = 1/K one round takes each client's dual to minus its natural gradient, and
    # every dual block is stored against that guess; a shorter dual step leaves some block plain.
    guessed = [is_guessed(a) for c in data["clients"] for a in c["eta"].values()]
    assert all(guessed) if gamma == 0.5 else not all(guessed)
    server2, clients2 = init_bayes_states(prior, losses, [8] * K, rho=0.5, gamma=gamma, tau=1.5)
    eta0 = server2.eta0
    assert checkpoint_from_jsonable(json.loads(blob), server2, clients2) == 1
    assert server2.eta0 is eta0  # the prior's, rebuilt with the states
    for c, c2 in zip(clients, clients2):
        pairs = [(c2.lam.m, c.lam.m), (c2.eta.b1, c.eta.b1)]
        if kind != "isotropic":
            pairs += [(c2.lam.prec, c.lam.prec), (c2.eta.b2, c.eta.b2)]
        for got, want in pairs:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert server2.tau == pytest.approx(1.5)
    assert dual_inf_norm(nat_sub(server2.lam_g, server.lam_g)) == 0.0
    r1 = verify_fixed_point(server, clients, estimator=Delta())
    r2 = verify_fixed_point(server2, clients2, estimator=Delta())
    assert r1.max_residual == pytest.approx(r2.max_residual)


def converged_ridge():
    """A full-family ridge problem's server and clients after the one round that takes them to the fixed point."""
    losses, _ = ridge_problem(np.random.default_rng(5), 3, 6, 20)
    prior = NatParam(Family.full(6), np.zeros(6), np.eye(6))
    server, clients = init_bayes_states(prior, losses, [20] * 3, rho=1 / 3)
    bayes_admm_round(server, clients, MethodConfig("bayes_admm"), 0)
    assert verify_fixed_point(server, clients).dual < 1e-12
    return prior, losses, server, clients


def test_a_converged_ridge_dual_is_stored_against_its_guess():
    _, _, server, clients = converged_ridge()
    data = checkpoint_to_jsonable(server, clients, 1)
    for rec in data["clients"]:
        eta = rec["eta"]
        assert set(eta) == {"v", "V"} and all(map(is_guessed, eta.values()))
        # The XOR leaves zero bits where the plain block's mantissas are noise.
        assert len(eta["V"]) < len(array_to_jsonable(clients[rec["id"]].eta.u, triangle=True)) / 2
        # The guess matches the dual to its low mantissa bits: the XORed words keep no sign or
        # exponent bit, where plus the natural gradient would leave every sign bit set.
        for key, shape in (("v", (6,)), ("V", (6, 6))):
            xored = array_from_jsonable(eta[key].rpartition(":")[2], shape, key == "V")
            assert not np.any(xored.view(np.uint64) >> np.uint64(52))


@pytest.mark.parametrize("client, key", [(0, "v"), (2, "V")])
def test_a_guess_rebuilt_one_ulp_off_fails_its_crc_naming_the_record_and_key(monkeypatch, client, key):
    prior, losses, server, clients = converged_ridge()
    data = json.loads(json.dumps(checkpoint_to_jsonable(server, clients, 1)))
    rebuilt = federation_mod._eta_guess

    def one_ulp_off(server, c):
        guess = rebuilt(server, c)
        if c.id != client:
            return guess
        b1, b2 = guess.b1.copy(), guess.b2.copy()
        if key == "v":
            b1[3] = np.nextafter(b1[3], np.inf)
        else:  # a diagonal word, so the block stays symmetric
            b2[1, 1] = np.nextafter(b2[1, 1], np.inf)
        return DualVec(guess.fam, b1, b2)

    monkeypatch.setattr(federation_mod, "_eta_guess", one_ulp_off)
    server2, clients2 = init_bayes_states(prior, losses, [20] * 3, rho=1 / 3)
    with pytest.raises(CheckpointError, match=rf"^checkpoint clients\[{client}\]: {key}: CRC-32 [0-9a-f]{{8}} of the "
                                              r"words decoded against the rebuilt guess is not the stored [0-9a-f]{8}"):
        checkpoint_from_jsonable(data, server2, clients2)


def test_point_checkpoint_roundtrip_is_bit_exact():
    rng = np.random.default_rng(3)
    losses, _ = ridge_problem(rng, 2, 3, 10)
    server, clients = init_point_states(3, losses, [10, 10], rho=0.3, delta=1.0)
    admm_round(server, clients, MethodConfig("admm"), 0)
    data = json.loads(json.dumps(checkpoint_to_jsonable(server, clients, 1)))
    assert data["format"] == 6
    assert isinstance(data["theta_g"], str)
    assert all(isinstance(rec[k], str) for rec in data["clients"] for k in ("theta", "v"))
    server2, clients2 = init_point_states(3, losses, [10, 10], rho=0.3, delta=1.0)
    assert checkpoint_from_jsonable(data, server2, clients2) == 1
    assert np.array_equal(server2.theta_g, server.theta_g)
    for c, c2 in zip(clients, clients2):
        assert np.array_equal(c2.theta, c.theta) and np.array_equal(c2.v, c.v)


@pytest.mark.parametrize("record, key", [(None, "theta_g"), (1, "theta"), (1, "v")])
def test_a_point_checkpoints_corrupt_array_names_its_record_and_key(record, key):
    rng = np.random.default_rng(3)
    losses, _ = ridge_problem(rng, 2, 3, 10)
    server, clients = init_point_states(3, losses, [10, 10], rho=0.3, delta=1.0)
    data = checkpoint_to_jsonable(server, clients, 0)
    (data if record is None else data["clients"][record])[key] = 3
    where = key if record is None else f"clients[{record}]: {key}"
    with pytest.raises(CheckpointError, match=re.escape(f"checkpoint {where}: expected a base64 string, got int")):
        checkpoint_from_jsonable(data, server, clients)


@pytest.mark.parametrize("fmt", [None, 1, 2, 3, 4, 5])
def test_checkpoint_of_another_format_is_rejected(fmt):
    rng = np.random.default_rng(3)
    losses, _ = ridge_problem(rng, 2, 3, 10)
    server, clients = init_point_states(3, losses, [10, 10], rho=0.3, delta=1.0)
    data = checkpoint_to_jsonable(server, clients, 0)
    if fmt is None:
        del data["format"]
    else:
        data["format"] = fmt
    with pytest.raises(CheckpointError, match=f"checkpoint format {fmt!r} is not 6"):
        checkpoint_from_jsonable(data, server, clients)


@pytest.mark.parametrize("value", [-1, 1.5, True, "2", None, "missing"])
def test_a_checkpoints_rounds_completed_must_be_a_count(value):
    rng = np.random.default_rng(3)
    losses, _ = ridge_problem(rng, 2, 3, 10)
    server, clients = init_point_states(3, losses, [10, 10], rho=0.3, delta=1.0)
    data = checkpoint_to_jsonable(server, clients, 0)
    if value == "missing":
        del data["rounds_completed"]
    else:
        data["rounds_completed"] = value
    shown = None if value == "missing" else value
    with pytest.raises(CheckpointError, match=re.escape(f"checkpoint rounds_completed {shown!r} is not an int >= 0")):
        checkpoint_from_jsonable(data, server, clients)
