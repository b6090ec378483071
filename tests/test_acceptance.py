"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  All
tolerances are pinned here; nothing is deferred to later calibration.
"""

import json
import time

import numpy as np
import pytest

from bayesadmm.families import (
    DualVec,
    Family,
    NatParam,
    dual_axpy,
    dual_inf_norm,
    dual_scale,
    dual_sum,
    dual_zero,
    kl,
    log_partition,
    nat_sub,
    to_expectation,
    to_natural,
)
from bayesadmm.federation import (
    InnerConfig,
    MethodConfig,
    admm_round,
    bayes_admm_round,
    bregman_admm_round,
    init_bayes_states,
    init_point_states,
    ivon_admm_round,
    pvi_round,
    run_rounds,
    seed_for,
)
from bayesadmm.losses import (
    Delta,
    LinearInT,
    Logistic,
    Quadratic,
    loss_grad,
    loss_value,
    natural_gradient,
    scale_loss,
)
from bayesadmm.harness import (
    SplitPlan,
    append_bias,
    classification_losses,
    conjugate_oracle,
    gen_blobs,
    gen_outlier_toy,
    gen_ridge,
    metrics,
    nll_accuracy,
    predict_proba,
    reference_solution,
    ridge_losses,
    split,
    split_indices,
)
from bayesadmm.solvers import IvonConfig, solve_ivon


def report(number: int, name: str, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {number} [{status}] {name}: {detail} ({elapsed:.2f}s / budget {budget:.0f}s)",
        flush=True,
    )
    assert passed, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"


def random_spd(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(0.3, 3.0, d)) @ q.T


def ridge_setup(K, d=10, delta=1.0, seed=5):
    ds = gen_ridge(40 * K, d, 0.3, seed=seed)
    shards = split(ds, SplitPlan("homogeneous", K, seed=1))
    losses = ridge_losses(shards)
    oracle = conjugate_oracle(delta, shards)
    return shards, losses, oracle


# ---------------------------------------------------------------------------


def test_criterion_1_one_round_convergence():
    t0 = time.monotonic()
    ok = True
    details = []
    for K in (2, 5):
        shards, losses, oracle = ridge_setup(K)
        ns = [s.n for s in shards]
        prior = NatParam(Family.full(10), np.zeros(10), np.eye(10))

        server, clients = init_bayes_states(prior, losses, ns, rho=1.0 / K)
        bayes_admm_round(server, clients, MethodConfig("bayes_admm", inner=InnerConfig(solver="conjugate")), 0)
        one_round = dual_inf_norm(nat_sub(server.lam_g, oracle.lam))
        ok &= one_round <= 1e-8

        sa, ca = init_point_states(10, losses, ns, rho=1.0 / K, delta=1.0)
        admm_dists = []
        for r in range(5):
            admm_round(sa, ca, MethodConfig("admm"), r)
            admm_dists.append(float(np.max(np.abs(sa.theta_g - oracle.lam.m))))
        ok &= min(admm_dists) > 1e-4

        sb, cb = init_bayes_states(prior, losses, ns, rho=1.0 / K)
        breg_dists = []
        for r in range(5):
            try:
                bregman_admm_round(sb, cb, MethodConfig("bregman_admm", inner=InnerConfig(solver="conjugate")), r)
                breg_dists.append(dual_inf_norm(nat_sub(sb.lam_g, oracle.lam)))
            except Exception:
                breg_dists.append(float("inf"))
                break
        ok &= min(breg_dists) > 1e-4
        details.append(f"K={K}: 1-round {one_round:.1e}, admm@5 {admm_dists[-1]:.1e}, bregman@5 {breg_dists[-1]:.1e}")
    report(1, "one-round convergence (quadratic)", ok, "; ".join(details), time.monotonic() - t0, 1.0)


def test_criterion_2_admm_recovery():
    t0 = time.monotonic()
    shards, losses, _ = ridge_setup(2)
    ns = [s.n for s in shards]
    rho = 0.5
    sa, ca = init_point_states(10, losses, ns, rho, delta=1.0)
    prior = NatParam(Family.isotropic(10), np.zeros(10))
    sb, cb = init_bayes_states(prior, losses, ns, rho)
    cfg_a = MethodConfig("admm")
    cfg_b = MethodConfig("bayes_admm", delta_method=True, inner=InnerConfig(solver="prox"))
    worst = 0.0
    for r in range(50):
        admm_round(sa, ca, cfg_a, r)
        bayes_admm_round(sb, cb, cfg_b, r)
        worst = max(worst, float(np.max(np.abs(sa.theta_g - sb.lam_g.m))))
        for a, b in zip(ca, cb):
            worst = max(worst, float(np.max(np.abs(a.theta - b.lam.m))))
            worst = max(worst, float(np.max(np.abs(a.v - b.eta.b1))))
    report(2, "ADMM recovery (isotropic + delta)", worst <= 1e-10,
           f"max deviation over 50 rounds {worst:.2e}", time.monotonic() - t0, 1.0)


def test_criterion_3_dual_equals_natural_gradient():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    inner_tol = 1e-8
    worst = 0.0
    checked = 0
    for i in range(20):
        d = int(rng.integers(2, 4))
        K = int(rng.integers(1, 4))
        rho = float(rng.uniform(0.3, 1.5))
        fam = Family.full(d)
        prior = NatParam(fam, np.zeros(d), np.eye(d))
        flavor = i % 4
        if flavor == 0:
            # classical consensus round on random quadratics, Eq.-8 identity
            losses = [Quadratic(random_spd(rng, d), rng.standard_normal(d)) for _ in range(K)]
            server, clients = init_point_states(d, losses, [0] * K, rho)
            for r in range(3):
                admm_round(server, clients, MethodConfig("admm", inner=InnerConfig(tol=inner_tol)), r)
                for c in clients:
                    resid = float(np.max(np.abs(c.v + loss_grad(c.loss, c.theta))))
                    worst = max(worst, resid)
                    checked += 1
            continue
        if flavor == 1:
            losses = [LinearInT(DualVec(fam, rng.standard_normal(d), -0.5 * random_spd(rng, d)))
                      for _ in range(K)]
            cfg = MethodConfig("bayes_admm", inner=InnerConfig(solver="conjugate", tol=inner_tol))
            engine = bayes_admm_round
            est = Delta()
        else:
            losses = []
            for _ in range(K):
                x = rng.standard_normal((12, d))
                y = (rng.random(12) < 0.5).astype(float)
                losses.append(Logistic(x, y))
            cfg = MethodConfig(
                "pvi" if flavor == 3 else "bayes_admm",
                inner=InnerConfig(solver="von", estimator="delta", tol=inner_tol, steps=2000),
                damping=1.0,
            )
            engine = pvi_round if flavor == 3 else bayes_admm_round
            est = Delta()
        server, clients = init_bayes_states(prior, losses, [0] * K, rho=rho)
        for r in range(3):
            engine(server, clients, cfg, r)
            for c in clients:
                ng = natural_gradient(c.loss, c.lam, est)
                resid = dual_inf_norm(dual_axpy(1.0, ng, c.eta))
                worst = max(worst, resid)
                checked += 1
    ok = worst <= 10 * inner_tol
    report(3, "dual = negative natural gradient", ok,
           f"{checked} client updates, worst residual {worst:.2e} <= {10*inner_tol:.0e}",
           time.monotonic() - t0, 10.0)


def test_criterion_4_blr_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    d, K = 2, 2
    fam = Family.full(d)
    losses = []
    for _ in range(K):
        x = rng.standard_normal((15, d))
        y = (rng.random(15) < 0.5).astype(float)
        losses.append(Logistic(x, y))
    prior = NatParam(fam, np.zeros(d), 0.5 * np.eye(d))
    server, clients = init_bayes_states(prior, losses, [15] * K, rho=0.8)
    lam_old = server.lam_g
    alpha = server.alpha
    blr_target = dual_axpy(
        -1.0, dual_sum([natural_gradient(l, lam_old, Delta()) for l in losses]), server.eta0
    )
    expect = NatParam.from_dual(
        dual_axpy(alpha, blr_target, dual_scale(1.0 - alpha, lam_old.as_dual()))
    )
    cfg = MethodConfig(
        "bayes_admm",
        inner=InnerConfig(solver="von", estimator="delta", tol=1e-12, steps=3000),
        client_repeats=400,
        repeat_tol=1e-12,
    )
    bayes_admm_round(server, clients, cfg, 0)
    gap = dual_inf_norm(nat_sub(server.lam_g, expect))
    report(4, "BLR equivalence (converged clients)", gap <= 1e-8,
           f"server step vs BLR update gap {gap:.2e}", time.monotonic() - t0, 10.0)


def test_criterion_5_pvi_divergence_vs_convergence():
    t0 = time.monotonic()
    # desk-scale stand-in for the 5-client class-partitioned logistic problem
    train = append_bias(gen_blobs(100, 10, d=2, spread=0.6, radius=2.0, center=4.0, seed=11))
    test = append_bias(gen_blobs(50, 10, d=2, spread=0.6, radius=2.0, center=4.0, seed=12))
    plan = SplitPlan("class_partition", 5, assignments=tuple((2 * i, 2 * i + 1) for i in range(5)))
    shards = split(train, plan)
    losses = classification_losses(shards, 10)
    ns = [s.n for s in shards]
    dim = losses[0].dim
    prior = NatParam(Family.full(dim), np.zeros(dim), np.eye(dim))
    ref = reference_solution(losses, prior, steps=8000, beta=0.3)
    nll_ref, _ = nll_accuracy(predict_proba(ref.lam.m, test), test)
    threshold = 1.05 * nll_ref
    inner = InnerConfig(solver="von", estimator="delta", tol=1e-8, steps=30, beta=0.5)

    def run(method, **kw):
        server, clients = init_bayes_states(prior, losses, ns, rho=1.0)
        cfg = MethodConfig(method, inner=inner, **kw)
        mfn = lambda s, c: metrics(s, test=test)  # noqa: E731
        return run_rounds(server, clients, cfg, 50, metrics_fn=mfn)

    def rounds_to_threshold(result):
        for rec in result.records:
            if rec.get("nll_mean", float("inf")) <= threshold:
                return rec["round"] + 1
        return None

    undamped = run("pvi", damping=1.0)
    damped = run("pvi", damping=0.2)
    bayes = run("bayes_admm")

    # Undamped PVI shares the server combine, so the VB solution is its fixed
    # point too. Whether it diverges is reported, not asserted: run to the
    # horizon, it must end at the reference (which stops at a 1e-8
    # stationarity residual); diverged, it must leave a structured event.
    undamped_dist = dual_inf_norm(nat_sub(undamped.server.lam_g, ref.lam))
    if undamped.diverged:
        ev = undamped.event
        undamped_ok = ev["type"] == "divergence" and bool(ev["reason"]) and ev["round"] < 50
    else:
        undamped_ok = undamped.rounds_completed == 50 and undamped_dist <= 1e-6
    r_undamped = rounds_to_threshold(undamped)
    damped_nll = damped.records[-1]["nll_mean"] if damped.records else float("inf")
    damped_converges = (not damped.diverged) and damped_nll <= threshold
    r_damped = rounds_to_threshold(damped)
    r_bayes = rounds_to_threshold(bayes)
    bayes_faster = (
        (not bayes.diverged) and r_bayes is not None and r_damped is not None and r_damped > r_bayes
    )
    detail = (
        f"undamped event={undamped.event['reason'] if undamped.event else None} "
        f"(diverged={undamped.diverged}), rounds-to-threshold {r_undamped}, "
        f"distance to ref {undamped_dist:.1e}; damped nll {damped_nll:.3f} vs ref {nll_ref:.3f}, "
        f"rounds-to-threshold damped={r_damped} bayes={r_bayes}"
    )
    ok = undamped_ok and damped_converges and bayes_faster
    report(5, "PVI divergence vs damped convergence", ok, detail, time.monotonic() - t0, 300.0)


def test_criterion_6_outlier_toy():
    t0 = time.monotonic()
    toy = gen_outlier_toy(seed=0)
    ds = toy.data
    test = ds.subset(toy.test_indices())
    shards = [ds.subset(idx) for idx in toy.client_indices]
    losses = classification_losses(shards, 2)
    ns = [s.n for s in shards]
    delta, rho = 0.2, 0.2

    def accuracy(mean):
        probs = predict_proba(mean, test)
        return float(np.mean(np.argmax(probs, axis=1) == test.y.astype(int)))

    sa, ca = init_point_states(ds.d, losses, ns, rho, delta=delta)
    cfg_a = MethodConfig("admm", inner=InnerConfig(tol=1e-10, steps=8000))
    admm_rounds = None
    for r in range(8):
        admm_round(sa, ca, cfg_a, r)
        if admm_rounds is None and accuracy(sa.theta_g) == 1.0:
            admm_rounds = r + 1
    prior = NatParam(Family.full(ds.d), np.zeros(ds.d), delta * np.eye(ds.d))
    sb, cb = init_bayes_states(prior, losses, ns, rho)
    cfg_b = MethodConfig("bayes_admm", inner=InnerConfig(solver="von", estimator="delta", tol=1e-8, steps=500))
    bayes_rounds = None
    for r in range(8):
        bayes_admm_round(sb, cb, cfg_b, r)
        if bayes_rounds is None and accuracy(sb.lam_g.m) == 1.0:
            bayes_rounds = r + 1
    ok = bayes_rounds is not None and bayes_rounds <= 2 and (admm_rounds is None or admm_rounds >= 4)
    report(6, "outlier toy (Newton-like vs classical)", ok,
           f"bayes rounds to accuracy 1.0 = {bayes_rounds}, admm = {admm_rounds}",
           time.monotonic() - t0, 10.0)


def test_criterion_7_ivon_subproblem_fidelity():
    t0 = time.monotonic()
    fam = Family.diag(1)
    delta_p = 0.5
    prior = NatParam(fam, np.zeros(1), np.array([delta_p]))
    a, b, lscale = 0.01, -0.02, 1.0
    loss = Quadratic(np.array([[a]]), np.array([b]))
    steps = 10_000
    sched = tuple(0.03 / (1.0 + t / 150.0) for t in range(steps))
    cfg = IvonConfig(steps=steps, lr=0.03, lr_schedule=sched, beta1=0.9, beta2=0.999, h0=0.1, seed=0)
    lam, _ = solve_ivon(loss, prior, lscale, np.zeros(1), np.zeros(1), cfg)
    s_true = lscale * a + delta_p
    m_true = -lscale * b / s_true
    m_err = abs(lam.m[0] - m_true)
    s_err = abs(lam.prec[0] - s_true)
    report(7, "IVON subproblem fidelity", m_err < 1e-3 and s_err < 1e-3,
           f"mean err {m_err:.2e}, precision err {s_err:.2e} after {steps} steps",
           time.monotonic() - t0, 10.0)


def test_criterion_8_ivon_pvi_reduction():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    d, K = 3, 3
    fam = Family.diag(d)
    delta = 0.7
    losses, ns = [], []
    for _ in range(K):
        x = rng.standard_normal((30, d))
        y = (rng.random(30) < 0.5).astype(float)
        losses.append(Logistic(x, y))
        ns.append(30)
    prior = NatParam(fam, np.zeros(d), delta * np.ones(d))
    gamma, rho, tau = 0.3, 1.0, 1.0
    icfg = IvonConfig(steps=200, lr=0.05, beta1=0.9, beta2=0.999, h0=0.1)
    server, clients = init_bayes_states(prior, losses, ns, rho=rho, gamma=gamma, tau=tau,
                                        alpha_override=1.0)
    cfg = MethodConfig("ivon_admm", inner=InnerConfig(solver="ivon", ivon=icfg))
    # independently coded PVI-with-IVON path
    mg, sg = np.zeros(d), delta * np.ones(d)
    vs = [np.zeros(d) for _ in range(K)]
    us = [np.zeros(d) for _ in range(K)]
    worst = 0.0
    for r in range(4):
        ivon_admm_round(server, clients, cfg, r, base_seed=0)
        for k in range(K):
            n = ns[k]
            lam, _ = solve_ivon(
                scale_loss(losses[k], n),
                NatParam(fam, mg, sg),
                n / (rho * tau),
                (tau / n) * vs[k],
                (tau / n) * us[k],
                IvonConfig(steps=200, lr=0.05, beta1=0.9, beta2=0.999, h0=0.1,
                           seed=seed_for(0, r, k)),
            )
            vs[k] = vs[k] + gamma * (lam.prec * lam.m - sg * mg)
            us[k] = us[k] + gamma * (lam.prec - sg)
        sg = delta + sum(us)
        mg = sum(vs) / sg
        worst = max(worst,
                    float(np.max(np.abs(server.lam_g.m - mg))),
                    float(np.max(np.abs(server.lam_g.prec - sg))))
    report(8, "IVON-ADMM reduces to IVON-PVI at alpha=1, rho=1", worst <= 1e-12,
           f"max per-round deviation {worst:.2e}", time.monotonic() - t0, 30.0)


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    notes = []
    rng = np.random.default_rng(17)

    # dual-map roundtrips at 1e-10
    fam = Family.full(3)
    worst = 0.0
    for _ in range(100):
        lam = NatParam(fam, rng.standard_normal(3), random_spd(rng, 3))
        back = to_natural(to_expectation(lam))
        worst = max(worst, dual_inf_norm(nat_sub(back, lam)) / max(1.0, dual_inf_norm(lam.as_dual())))
    assert worst < 1e-10
    notes.append(f"roundtrip {worst:.1e}")

    # log-partition gradient finite differences at 1e-6
    lam = NatParam(fam, rng.standard_normal(3), random_spd(rng, 3))
    mu = to_expectation(lam)
    b1, b2 = lam.coords()
    fd_worst = 0.0
    for _ in range(10):
        d1 = rng.standard_normal(3)
        raw = rng.standard_normal((3, 3))
        d2 = 0.1 * (raw + raw.T)
        eps = 1e-5
        hi = NatParam.from_dual(DualVec(fam, b1 + eps * d1, b2 + eps * d2))
        lo = NatParam.from_dual(DualVec(fam, b1 - eps * d1, b2 - eps * d2))
        fd = (log_partition(hi) - log_partition(lo)) / (2 * eps)
        exact = float(mu.m @ d1) + float(np.sum(mu.m2 * d2))
        fd_worst = max(fd_worst, abs(fd - exact) / max(1.0, abs(exact)))
    assert fd_worst < 1e-6
    notes.append(f"gradA fd {fd_worst:.1e}")

    # KL nonnegativity and identity of indiscernibles
    for _ in range(50):
        a = NatParam(fam, rng.standard_normal(3), random_spd(rng, 3))
        b = NatParam(fam, rng.standard_normal(3), random_spd(rng, 3))
        assert kl(a, b) >= 0.0
        assert kl(a, a) < 1e-12
    notes.append("kl ok")

    # loss finite differences at 1e-6
    x = rng.standard_normal((10, 3))
    y = (rng.random(10) < 0.5).astype(float)
    loss = Logistic(x, y)
    theta = rng.standard_normal(3)
    g = loss_grad(loss, theta)
    for i in range(3):
        bump = np.zeros(3)
        bump[i] = 1e-6
        fd = (loss_value(loss, theta + bump) - loss_value(loss, theta - bump)) / 2e-6
        assert abs(fd - g[i]) < 1e-6
    notes.append("loss fd ok")

    # split partition property
    ds = gen_blobs(17, n_classes=4, seed=3)
    for plan in (SplitPlan("homogeneous", 3, seed=5), SplitPlan("dirichlet", 3, seed=5)):
        parts = split_indices(ds, plan)
        assert sorted(np.concatenate(parts).tolist()) == list(range(ds.n))
    notes.append("partition ok")

    # determinism: identical records across repeats
    def run_once():
        rng2 = np.random.default_rng(42)
        losses = []
        for _ in range(3):
            xx = rng2.standard_normal((12, 2))
            yy = (rng2.random(12) < 0.5).astype(float)
            losses.append(Logistic(xx, yy))
        prior = NatParam(Family.full(2), np.zeros(2), np.eye(2))
        server, clients = init_bayes_states(prior, losses, [12] * 3, rho=0.8)
        cfg = MethodConfig("bayes_admm",
                           inner=InnerConfig(solver="von", estimator="mc", mc_count=16, steps=200))
        result = run_rounds(server, clients, cfg, 5, base_seed=0,
                            metrics_fn=lambda s, c: {"m": s.lam_g.m.tolist()})
        return json.dumps(result.records, sort_keys=True)

    assert run_once() == run_once()
    notes.append("determinism ok")
    report(9, "property suites", True, "; ".join(notes), time.monotonic() - t0, 60.0)
