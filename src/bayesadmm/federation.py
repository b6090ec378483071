"""Round engines for six federated methods, plus fixed-point verifiers.

Every engine runs one round skeleton: independent client steps; a server
combine over the clients' new fields; a finiteness check; then one commit, so
a failing round changes no state.  The clients of a round that solve by VON
(:func:`pick_solver`) step in lockstep (``solvers.von_lockstep``), with the
same results as solving each alone.  Within :func:`run_rounds`, a round's IVON
solves, when there are two or more, run on worker processes forked once per
run, as many as there are usable CPUs and no more than the IVON clients
(:class:`_Pool`); every other client step runs in client-id order on the
calling thread.  Outcomes are taken in client-id order, so no output depends
on the number of CPUs.  With a second usable CPU, :func:`run_rounds` checks
a round on a helper thread while the next round's engine runs, unless its
clients solve by VON in lockstep (:func:`_in_lockstep`), and settles each
round's checks in round order.  A round's engine call and its checks each
ignore numpy's floating-point errors: a state that overflows is reported by
the checks and the divergence events, not by numpy warnings.

The distribution-valued engines share one client step and one server combine,

    lam_g <- (1 - alpha) * mean(lam_k) + alpha * (eta_0 + sum_k eta_k),

with alpha = 1/(1 + rho K); PVI is the alpha = 1 case with no proximal pull.
They differ in the client subproblem's KL weight, in the inner solver (IVON
is the Bayesian round with the stochastic diagonal solver) and in which
coordinates the dual update uses: natural-parameter differences (the Bayesian
engines), expectation-parameter differences (the Bregman variant), or a
damped natural-parameter step (PVI).

Divergence is a reportable outcome, never silently repaired: engines raise on
family-invalid or non-finite states and :func:`run_rounds` converts that into
a structured trace event.
"""

from __future__ import annotations

import copy
import math
import os
import threading
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, replace
from typing import BinaryIO, NamedTuple

import numpy as np

from .errors import (
    CheckpointError,
    EstimatorUnsupported,
    FamilyMismatch,
    NonFiniteUpdate,
    NonPositivePrecision,
    PrecisionEscape,
    ResultNotInFamily,
)
from .families import (
    DIAG,
    ISOTROPIC,
    Array,
    DualVec,
    Family,
    NatParam,
    _kahan,
    array_from_jsonable,
    array_to_jsonable,
    dual_axpy,
    dual_from_jsonable,
    dual_inf_norm,
    dual_scale,
    dual_sub,
    dual_sum,
    dual_to_jsonable,
    dual_zero,
    exp_sub,
    nat_from_jsonable,
    nat_sub,
    nat_to_jsonable,
    to_expectation,
    to_natural,
)
from .losses import (
    Delta,
    Estimator,
    LinearInT,
    LossSpec,
    MonteCarlo,
    NaturalGradients,
    Quadratic,
    Reparam,
    in_conjugate_form,
    loss_grad,
    scale_loss,
)
from .solvers import (
    IvonConfig,
    SubproblemSpec,
    solve_admm_client,
    solve_conjugate,
    solve_ivon,
    von_lockstep,
)

METHODS = ("admm", "bayes_admm", "pvi", "bregman_admm", "ivon_admm", "fedavg")


# ---------------------------------------------------------------------------
# state and configuration
# ---------------------------------------------------------------------------


@dataclass
class ClientState:
    """Per-client state; Bayesian engines use (lam, eta), point engines (theta, v)."""

    id: int
    loss: LossSpec
    n_examples: int
    lam: NatParam | None = None
    eta: DualVec | None = None
    theta: Array | None = None
    v: Array | None = None


@dataclass
class ServerState:
    rho: float
    K: int
    gamma: float | None = None  # dual step; defaults to rho
    tau: float = 1.0
    fam: Family | None = None
    lam_g: NatParam | None = None
    eta0: DualVec | None = None
    theta_g: Array | None = None
    delta: float = 1.0  # regularizer precision for the point engines
    l0: LossSpec | None = None  # non-quadratic regularizer forces the inner-solve server
    alpha_override: float | None = None

    def __post_init__(self):
        if self.rho <= 0 or self.K < 1 or self.tau <= 0:
            raise ValueError("need rho > 0, tau > 0 and K >= 1")

    @property
    def alpha(self) -> float:
        """Server mixing weight 1/(1 + rho K) unless explicitly pinned."""
        if self.alpha_override is not None:
            return self.alpha_override
        return 1.0 / (1.0 + self.rho * self.K)

    @property
    def dual_step(self) -> float:
        return self.rho if self.gamma is None else self.gamma


@dataclass(frozen=True)
class InnerConfig:
    """Client-solver choice and tolerances."""

    solver: str = "auto"  # conjugate | von | prox | ivon | auto
    steps: int = 500
    beta: float = 0.5
    tol: float = 1e-8
    lr: float | None = None  # point proximal step only
    estimator: str = "auto"  # analytic | delta | mc | reparam | auto
    mc_count: int = 64
    ivon: IvonConfig = field(default_factory=IvonConfig)


@dataclass(frozen=True)
class MethodConfig:
    method: str
    inner: InnerConfig = field(default_factory=InnerConfig)
    delta_method: bool = False
    damping: float = 1.0  # pvi dual damping
    local_steps: int = 10  # fedavg
    lr: float = 0.1  # fedavg
    client_repeats: int = 1
    repeat_tol: float = 0.0  # > 0 stops repeats once the dual stops moving

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.client_repeats < 1:
            raise ValueError("client_repeats must be >= 1")


def seed_for(base: int, rnd: int, client_id: int) -> int:
    """Deterministic per-client seed: a hash mix of (base, round, client)."""
    return int(np.random.SeedSequence((base, rnd, client_id)).generate_state(1)[0])


def resolve_estimator(
    inner: InnerConfig, loss: LossSpec, seed: int, delta_method: bool = False
) -> Estimator:
    """The estimator a VON solve of ``loss`` uses.

    ``auto``, ``analytic`` and ``delta`` evaluate at the mean, which is exact
    for a T-linear loss; ``analytic`` refuses any other loss.  The delta
    method replaces the sampling estimators with evaluation at the mean.
    """
    name = inner.estimator
    if name not in ("auto", "analytic", "delta", "mc", "reparam"):
        raise ValueError(f"unknown estimator {name!r}")
    if name == "analytic" and not isinstance(loss, (Quadratic, LinearInT)):
        raise EstimatorUnsupported(f"Analytic moments unavailable for {type(loss).__name__}")
    if delta_method or name not in ("mc", "reparam"):
        return Delta()
    return (MonteCarlo if name == "mc" else Reparam)(inner.mc_count, seed)


def init_bayes_states(
    prior: NatParam,
    losses: list[LossSpec],
    n_examples: list[int],
    rho: float,
    gamma: float | None = None,
    tau: float = 1.0,
    alpha_override: float | None = None,
) -> tuple[ServerState, list[ClientState]]:
    """Server at the prior, duals at zero."""
    fam = prior.fam
    server = ServerState(
        rho=rho,
        K=len(losses),
        gamma=gamma,
        tau=tau,
        fam=fam,
        lam_g=prior,
        eta0=prior.as_dual(),
        alpha_override=alpha_override,
    )
    clients = [
        ClientState(i, loss, n, lam=prior, eta=dual_zero(fam))
        for i, (loss, n) in enumerate(zip(losses, n_examples))
    ]
    return server, clients


def init_point_states(
    dim: int,
    losses: list[LossSpec],
    n_examples: list[int],
    rho: float,
    delta: float = 1.0,
) -> tuple[ServerState, list[ClientState]]:
    server = ServerState(rho=rho, K=len(losses), theta_g=np.zeros(dim), delta=delta)
    clients = [
        ClientState(i, loss, n, theta=np.zeros(dim), v=np.zeros(dim))
        for i, (loss, n) in enumerate(zip(losses, n_examples))
    ]
    return server, clients


# ---------------------------------------------------------------------------
# shared server combine
# ---------------------------------------------------------------------------


def server_combine(
    lam_ks: list[NatParam], eta_ks: list[DualVec], eta0: DualVec, alpha: float
) -> NatParam:
    """lam_g = (1 - alpha) mean(lam_k) + alpha (eta_0 + sum eta_k), id order, Kahan sums."""
    gathered = dual_sum([eta0, *eta_ks])
    # Each client's ambient coordinates are summed as they are made, so one d x d block lives at a time.
    mean_lam = dual_scale(1.0 / len(lam_ks), dual_sum(lam.as_dual() for lam in lam_ks))
    return NatParam.from_dual(dual_axpy(alpha, gathered, dual_scale(1.0 - alpha, mean_lam)))


# ---------------------------------------------------------------------------
# the round skeleton
# ---------------------------------------------------------------------------

# What a non-finite new state field is called in NonFiniteUpdate messages.
_FIELD_NAMES = {
    "lam_g": "natural parameter",
    "theta_g": "point estimate",
    "lam": "natural parameter",
    "eta": "dual",
    "theta": "point state",
    "v": "point state",
}


def _finite(value) -> bool:
    if isinstance(value, NatParam):
        parts = (value.m, value.prec)
    elif isinstance(value, DualVec):
        parts = (value.b1, value.b2)
    else:
        parts = (value,)
    return all(p is None or bool(np.all(np.isfinite(p))) for p in parts)


def _round(server: ServerState, clients: list[ClientState], rnd: int, results: list, combine) -> dict:
    """The one round every engine runs after its client steps: combine, checks, then commit.

    ``results`` holds each client's new fields and its solve's
    :class:`SolveReport`, or ``None`` where no solver runs, in client order;
    ``combine(new_fields)`` builds the server's new fields from the clients'
    new fields.  Nothing is written until the combine has succeeded and every
    new field is finite, so a failing round leaves every state as it was.
    ``inner_converged`` is false only if some report says a solve did not
    converge: IVON's and fedavg's make no claim.
    """
    new_fields = [fields for fields, _ in results]
    try:
        server_fields = combine(new_fields)
    except NonPositivePrecision as exc:
        raise ResultNotInFamily(f"server combine left the family at round {rnd}: {exc}") from exc
    updates = [(server, "server", server_fields)]
    updates += [(c, f"client {c.id}", fields) for c, fields in zip(clients, new_fields)]
    for _, owner, fields in updates:
        for key, value in fields.items():
            if not _finite(value):
                raise NonFiniteUpdate(f"{owner} {_FIELD_NAMES[key]} is non-finite")
    for state, _, fields in updates:
        for key, value in fields.items():
            setattr(state, key, value)
    return {"inner_converged": all(r is None or r.converged is not False for _, r in results)}


# ---------------------------------------------------------------------------
# distribution rounds: one client step, the solver picked per engine
# ---------------------------------------------------------------------------


def pick_solver(inner: InnerConfig, cfg: MethodConfig, loss: LossSpec, fam: Family) -> str:
    """The inner solver of a distribution round's client whose subproblem has the tempered ``loss``.

    ``auto`` takes the conjugate solve where ``loss`` has a conjugate form in
    ``fam``; otherwise the proximal step on the isotropic family, with the
    delta method or for a quadratic ``loss``, and VON everywhere else.

    The isotropic family fixes the covariance at I, so the subproblem, E_q[l]
    plus the dual's term linear in m plus rho KL(q || q_g) = rho/2 ||m - m_g||^2,
    moves only m.  For l = 0.5 theta^T A theta + b^T theta, E_q[l] = l(m) +
    0.5 tr(A): the subproblem is the proximal step on l from m_g, which ``prox``
    solves exactly with one linear solve, while VON there is a plain gradient
    step on m that no step halving keeps stable once A's curvature outgrows it.
    The ``fixed`` family also fixes the covariance, but its KL is the S-metric
    1/2 ||m - m_g||_S^2, whose proximal step no solver implements: it keeps VON.
    """
    if inner.solver != "auto":
        return inner.solver
    if in_conjugate_form(loss, fam):
        return "conjugate"
    return "prox" if fam.kind == ISOTROPIC and (cfg.delta_method or isinstance(loss, Quadratic)) else "von"


def _solve_client(clients: list[ClientState], i: int, solver: str, eta: DualVec, lam_g: NatParam,
                  lam_g_dual: DualVec, kl_weight: float, tau: float, inner: InnerConfig, seed: int):
    """Client ``i``'s solve by the conjugate, proximal or IVON solver: its ``(lam, report)``, or what it raised.

    The arguments after ``clients`` are one task of :func:`_distribution_round`,
    all that a worker forked with ``clients`` needs to run it.  VON clients go
    to :func:`von_lockstep` instead.
    """
    client = clients[i]
    try:
        spec = SubproblemSpec(client.loss, eta, lam_g, rho=kl_weight, tau=tau, _lam_g_dual=lam_g_dual)
        if solver == "conjugate":
            return solve_conjugate(spec)
        if solver == "prox":
            # Isotropic family with the delta method: the subproblem collapses to
            # the classical proximal step on the mean.
            if lam_g.fam.kind != ISOTROPIC:
                raise FamilyMismatch("prox inner solver requires the isotropic family")
            theta, report = solve_admm_client(scale_loss(client.loss, tau), eta.b1, lam_g.m, kl_weight,
                                              steps=inner.steps, lr=inner.lr, tol=inner.tol)
            return NatParam(lam_g.fam, theta), report
        if solver == "ivon":
            # The stochastic solver works on the mean per-example loss, so the
            # subproblem's weights move into its loss scale and multipliers.
            n = max(client.n_examples, 1)
            return solve_ivon(scale_loss(client.loss, n), lam_g, n / (kl_weight * tau), (tau / n) * eta.v,
                              (tau / n) * eta.u, replace(inner.ivon, seed=seed))
        raise ValueError(f"unknown inner solver {solver!r}")
    except Exception as exc:
        return exc


# The worker pool of this context's run_rounds call; a round outside run_rounds solves in-process.
_pool: ContextVar[_Pool | None] = ContextVar("_pool", default=None)


def _usable_cpus() -> int:
    """The CPUs this process may run on; a platform with no ``os.sched_getaffinity`` (macOS, Windows) has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _Worker(NamedTuple):
    pid: int
    tasks: int  # the write end of its task pipe
    results: BinaryIO  # the read end of its result pipe

    def ended(self) -> ChildProcessError:
        return ChildProcessError(f"IVON worker {self.pid} ended without a result")


class _Pool:
    """Worker processes that solve a run's IVON clients, forked once, at its first round with two.

    A worker is a fork of the run, so it holds every client's loss: a task
    carries only the arguments of :func:`_solve_client` after ``clients``, and
    its outcome comes back pickled, an exception included (without its
    traceback).  It is forked inside a round's engine call, so it keeps that
    call's numpy error state.  Each worker reads tasks from a pipe that only
    the parent writes, so it exits at the pipe's end when the parent dies,
    and it leaves by ``os._exit``, flushing none of the buffers it inherited.
    """

    def __init__(self, clients: list[ClientState]):
        self.clients = clients
        self.workers: list[_Worker] = []

    def start(self, count: int) -> bool:
        """Whether workers run; if none does, fork one per usable CPU, up to ``count``.

        None is forked on one CPU, nor while the process runs another
        thread: a fork copies only the calling thread, so a lock another
        thread holds would stay locked in the worker.
        """
        import pickle

        size = min(_usable_cpus(), count) if threading.active_count() == 1 else 0
        for _ in range(size if size > 1 and not self.workers else 0):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:  # the worker: each task's outcome, until its task pipe ends
                    # Only the parent keeps a write end of a worker's task pipe.
                    ends = [task_w, result_r, *[fd for w in self.workers for fd in (w.tasks, w.results.fileno())]]
                    for fd in ends:
                        os.close(fd)
                    tasks, results = os.fdopen(task_r, "rb"), os.fdopen(result_w, "wb")
                    while True:
                        pickle.dump(_solve_client(self.clients, *pickle.load(tasks)), results,
                                    pickle.HIGHEST_PROTOCOL)
                        results.flush()
                finally:
                    os._exit(0)
            os.close(task_r)
            os.close(result_w)
            self.workers.append(_Worker(pid, task_w, os.fdopen(result_r, "rb")))
        return bool(self.workers)

    def map(self, tasks: list[tuple]) -> list:
        """Each task's outcome, in task order; each task goes to the first worker free."""
        import pickle
        import select

        outcomes: list = [None] * len(tasks)
        pending, idle, busy = list(enumerate(tasks)), list(self.workers), {}
        while pending or busy:
            while pending and idle:
                worker, (k, task) = idle.pop(), pending.pop(0)
                data = memoryview(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
                try:
                    while data:
                        data = data[os.write(worker.tasks, data):]
                except BrokenPipeError:  # it ended after its last task
                    raise worker.ended() from None
                busy[worker.results] = worker, k
            for results in select.select(list(busy), [], [])[0]:
                worker, k = busy.pop(results)
                try:
                    outcomes[k] = pickle.load(results)
                except EOFError:
                    raise worker.ended() from None
                idle.append(worker)
        return outcomes

    def close(self) -> None:
        """Kill and reap every worker: none holds anything the run needs."""
        import signal

        for worker in self.workers:
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
            os.close(worker.tasks)
            worker.results.close()
        self.workers = []


def _distribution_round(
    server: ServerState,
    clients: list[ClientState],
    cfg: MethodConfig,
    rnd: int,
    base_seed: int,
    kl_weight: float,
    dual_step: float,
    dual_in_mu: bool,
    alpha: float,
    solver: str | None = None,
) -> dict:
    """Client solves, dual updates and the shared server combine.

    ``solver``, when given, overrides the configured inner solver.
    """
    lam_g = server.lam_g
    lam_g_dual = lam_g.as_dual()
    mu_g = to_expectation(lam_g) if dual_in_mu else None
    inner = cfg.inner if solver is None else replace(cfg.inner, solver=solver)

    seeds = [seed_for(base_seed, rnd, c.id) for c in clients]
    picks = [pick_solver(inner, cfg, scale_loss(c.loss, server.tau), lam_g.fam) for c in clients]
    estimators = [resolve_estimator(inner, c.loss, seed, cfg.delta_method) if pick == "von" else None
                  for c, seed, pick in zip(clients, seeds, picks)]

    def solve(going: list[int], etas: list[DualVec]) -> list:
        """The outcome of each going client's solve: its ``(lam, report)``, or what it raised.

        The VON clients solve together in lockstep; the others each alone, two or more
        IVON solves on the run's worker pool (:class:`_Pool`).
        """
        von = [i for i in going if picks[i] == "von"]
        alone = [i for i in going if picks[i] != "von"]
        tasks = [(i, picks[i], etas[i], lam_g, lam_g_dual, kl_weight, server.tau, inner, seeds[i])
                 for i in alone]
        pool = _pool.get()
        pooled = pool is not None and inner.solver == "ivon" and len(tasks) > 1 and pool.start(len(tasks))
        outcomes = dict(zip(alone, pool.map(tasks) if pooled else [_solve_client(clients, *t) for t in tasks]))
        if von:
            specs = [SubproblemSpec(clients[i].loss, etas[i], lam_g, rho=kl_weight, tau=server.tau,
                                    _lam_g_dual=lam_g_dual) for i in von]
            outcomes.update(zip(von, von_lockstep(specs, inner.steps, inner.beta,
                                                  [estimators[i] for i in von], inner.tol)))
        return [outcomes[i] for i in going]

    # Each client repeats its solve and dual update up to client_repeats times.  A
    # failure is raised as a loop over the clients in id order would raise it: the
    # lowest failing id's, after the clients before it have made all their repeats.
    etas = [c.eta for c in clients]
    solved: list = [None] * len(clients)
    going, failure = list(range(len(clients))), None
    for _ in range(cfg.client_repeats):
        still = []
        for i, outcome in zip(going, solve(going, etas)):
            try:
                if isinstance(outcome, Exception):
                    raise outcome
                solved[i] = outcome
                if dual_in_mu:
                    direction = exp_sub(to_expectation(outcome[0]), mu_g)
                else:
                    direction = dual_sub(outcome[0].as_dual(), lam_g_dual)
                etas[i], prev = dual_axpy(dual_step, direction, etas[i]), etas[i]
            except Exception as exc:
                failure = exc
                break
            if not (cfg.repeat_tol > 0 and dual_inf_norm(dual_axpy(-1.0, prev, etas[i])) <= cfg.repeat_tol):
                still.append(i)
        going = still
        if not going:
            break
    if failure is not None:
        raise failure

    def combine(new: list[dict]) -> dict:
        lam_ks, eta_ks = [f["lam"] for f in new], [f["eta"] for f in new]
        return {"lam_g": server_combine(lam_ks, eta_ks, server.eta0, alpha)}

    results = [({"lam": lam, "eta": eta}, report) for (lam, report), eta in zip(solved, etas)]
    return _round(server, clients, rnd, results, combine)


def bayes_admm_round(
    server: ServerState, clients: list[ClientState], cfg: MethodConfig, rnd: int = 0, base_seed: int = 0
) -> dict:
    """Client KL weight rho, dual step gamma (= rho by default) in natural coordinates."""
    return _distribution_round(
        server, clients, cfg, rnd, base_seed,
        kl_weight=server.rho, dual_step=server.dual_step, dual_in_mu=False,
        alpha=server.alpha,
    )


def bregman_admm_round(
    server: ServerState, clients: list[ClientState], cfg: MethodConfig, rnd: int = 0, base_seed: int = 0
) -> dict:
    """Same as the Bayesian round except the dual moves along mu-differences."""
    return _distribution_round(
        server, clients, cfg, rnd, base_seed,
        kl_weight=server.rho, dual_step=server.dual_step, dual_in_mu=True,
        alpha=server.alpha,
    )


def pvi_round(
    server: ServerState, clients: list[ClientState], cfg: MethodConfig, rnd: int = 0, base_seed: int = 0
) -> dict:
    """Site-based round: unit KL weight, damped dual, no proximal pull at the server."""
    return _distribution_round(
        server, clients, cfg, rnd, base_seed,
        kl_weight=1.0, dual_step=cfg.damping, dual_in_mu=False,
        alpha=1.0,
    )


def ivon_admm_round(
    server: ServerState, clients: list[ClientState], cfg: MethodConfig, rnd: int = 0, base_seed: int = 0
) -> dict:
    """Adam-like round: the Bayesian round with the stochastic diagonal solver.

    Each client calls the stochastic solver on its mean per-example loss with
    loss scale N_k/(rho tau) and multipliers (tau/N_k) v_k, (tau/N_k) u_k; the
    server combine is the shared closed form, which in (m, s) coordinates is
    exactly elementwise
        s_g = (1-a) Mean(s_k) + a [delta + Sum(u_k)]
        m_g = [(1-a) Mean(s_k m_k) + a Sum(v_k)] / s_g.
    """
    if server.fam.kind != DIAG:
        raise FamilyMismatch("ivon_admm requires the diagonal-precision family")
    return _distribution_round(
        server, clients, cfg, rnd, base_seed,
        kl_weight=server.rho, dual_step=server.dual_step, dual_in_mu=False,
        alpha=server.alpha, solver="ivon",
    )


# ---------------------------------------------------------------------------
# point-estimate rounds
# ---------------------------------------------------------------------------


def admm_round(
    server: ServerState, clients: list[ClientState], cfg: MethodConfig, rnd: int = 0, base_seed: int = 0
) -> dict:
    """Classical consensus round on point estimates."""
    theta_g = server.theta_g
    rho = server.rho
    inner = cfg.inner

    def step(client: ClientState):
        theta, report = solve_admm_client(
            client.loss, client.v, theta_g, rho, steps=inner.steps, lr=inner.lr, tol=inner.tol
        )
        return {"theta": theta, "v": client.v + rho * (theta - theta_g)}, report

    def combine(new: list[dict]) -> dict:
        thetas, vs = [f["theta"] for f in new], [f["v"] for f in new]
        return {"theta_g": _admm_server(server, thetas, vs, inner)}

    return _round(server, clients, rnd, [step(c) for c in clients], combine)


def _admm_server(
    server: ServerState, thetas: list[Array], vs: list[Array], inner: InnerConfig
) -> Array:
    if server.l0 is not None:
        # Generic regularizer: solve the server objective with its own proximal step.
        return solve_admm_client(server.l0, -np.sum(vs, axis=0), np.mean(thetas, axis=0),
                                 server.rho * server.K, steps=inner.steps, lr=inner.lr, tol=inner.tol).result
    sum_v = _kahan(vs)
    sum_t = _kahan(thetas)
    if server.delta == 1.0:
        # Mirrors the distribution-side combine so the two recovery paths agree
        # to rounding.
        alpha = server.alpha
        return alpha * sum_v + (1.0 - alpha) * (sum_t / server.K)
    return (sum_v + server.rho * sum_t) / (server.delta + server.rho * server.K)


def fedavg_round(
    server: ServerState, clients: list[ClientState], cfg: MethodConfig, rnd: int = 0, base_seed: int = 0
) -> dict:
    """Local gradient steps from the broadcast point, then an N_k-weighted average."""
    theta_g = server.theta_g
    weights = np.array([max(c.n_examples, 1) for c in clients], dtype=float)
    weights /= weights.sum()

    def step(client: ClientState):
        theta = theta_g.copy()
        for _ in range(cfg.local_steps):
            theta = theta - cfg.lr * loss_grad(client.loss, theta)
        return {"theta": theta}, None

    def combine(new: list[dict]) -> dict:
        return {"theta_g": _kahan([w * f["theta"] for w, f in zip(weights, new)])}

    return _round(server, clients, rnd, [step(c) for c in clients], combine)


ROUND_ENGINES = {
    "admm": admm_round,
    "bayes_admm": bayes_admm_round,
    "pvi": pvi_round,
    "bregman_admm": bregman_admm_round,
    "ivon_admm": ivon_admm_round,
    "fedavg": fedavg_round,
}


# ---------------------------------------------------------------------------
# fixed-point verification
# ---------------------------------------------------------------------------


@dataclass
class FixedPointReport:
    """Residuals of the four stationarity conditions.

    consensus:  max_k || mu_k - mu_g ||_inf
    dual:       max_k || eta_k + grad_mu E_{q_k}[l_k] ||_inf
    gather:     || lam_g - (eta_0 + sum_k eta_k) ||_inf
    dual_map:   roundtrip residual of the lam <-> mu maps at lam_g

    The Lagrangian saddle-point conditions are these same four residuals, so a
    single report serves both formulations.
    """

    consensus: float
    dual: float
    gather: float
    dual_map: float

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def max_residual(self) -> float:
        return max(self.consensus, self.dual, self.gather, self.dual_map)

    def ok(self, tol: float) -> bool:
        return self.max_residual < tol


def verify_fixed_point(
    server: ServerState, clients: list[ClientState], estimator: Estimator = Delta()
) -> FixedPointReport:
    """Residuals of the duality conditions at the current states."""
    lam_g = server.lam_g
    mu_g = to_expectation(lam_g)
    consensus = 0.0
    dual = 0.0
    for client in clients:
        mu_k = to_expectation(client.lam)
        consensus = max(consensus, dual_inf_norm(exp_sub(mu_k, mu_g)))
    # The clients' natural gradients in one stacked call, as a lockstep VON step makes them.
    losses = [scale_loss(c.loss, server.tau) for c in clients]
    gradients = NaturalGradients(losses, [estimator] * len(clients), server.fam)
    for client, ng in zip(clients, gradients.duals([c.lam for c in clients])):
        dual = max(dual, dual_inf_norm(dual_axpy(1.0, ng, client.eta)))
    gathered = dual_sum([server.eta0] + [c.eta for c in clients])
    gather = dual_inf_norm(dual_axpy(-1.0, gathered, lam_g.as_dual()))
    dual_map = dual_inf_norm(nat_sub(to_natural(mu_g), lam_g))
    return FixedPointReport(consensus, dual, gather, dual_map)


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    records: list[dict]
    diverged: bool
    event: dict | None
    server: ServerState
    clients: list[ClientState]
    # What a metric or the verifier raised; the ``failure`` event says where.
    error: Exception | None = None

    @property
    def rounds_completed(self) -> int:
        return len(self.records)

    @property
    def rounds_committed(self) -> int:
        """Rounds whose engine step committed: one more than :attr:`rounds_completed` after the
        engine committed a round whose metrics or verification then failed."""
        return len(self.records) + int(self.failed and self.event["phase"] != "round")

    @property
    def failed(self) -> bool:
        return self.error is not None


def _in_lockstep(server: ServerState, clients: list[ClientState], cfg: MethodConfig) -> bool:
    """Whether the rounds of ``cfg``'s engine solve some client by VON, in lockstep.

    :func:`von_lockstep` holds the GIL between its small stacked numpy
    calls, so a round's checks beside such a round only slow it down.
    """
    if server.lam_g is None or cfg.method == "ivon_admm":
        return False
    return any(pick_solver(cfg.inner, cfg, scale_loss(c.loss, server.tau), server.fam) == "von" for c in clients)


class _Beside(threading.Thread):
    """``fn(*args)`` on a helper thread while the calling thread goes on."""

    def __init__(self, fn, *args):
        super().__init__(name="round checks")
        self._call, self._outcome = (fn, args), None
        self.start()

    def run(self) -> None:
        (fn, args), self._call = self._call, None  # what fn reads is not kept past its end
        try:
            self._outcome = fn(*args), None
        except BaseException as exc:  # raised again on the calling thread by result()
            self._outcome = None, exc

    def result(self):
        """What ``fn`` returned, or raise what it raised, once it has ended."""
        self.join()
        value, exc = self._outcome
        if exc is not None:
            raise exc
        return value


def run_rounds(
    server: ServerState,
    clients: list[ClientState],
    cfg: MethodConfig,
    n_rounds: int,
    base_seed: int = 0,
    metrics_fn=None,
    on_record=None,
    verify_fn=None,
) -> RunResult:
    """Drive an engine for up to ``n_rounds``; divergence becomes a trace event.

    An engine that raises anything other than a divergence ends the run with
    a ``failure`` event of phase ``round``; the states stay as the last round
    committed them.  After each round, ``metrics_fn(server, clients)`` and then
    ``verify_fn(server, clients)`` return values for its record.  If either
    raises any exception, a package error such as :class:`DegenerateMoment`
    included, the run ends with a ``failure`` event naming the round, the
    phase (``metrics`` or ``verify``) and the exception; the states stay as
    the engine committed them.  ``on_record(record)`` is called with each
    round record as it is appended.

    With a second usable CPU, and unless the rounds solve by VON in lockstep
    (:func:`_in_lockstep`), a round's checks run on a helper thread beside the
    next round's engine (:class:`_Beside`).  They read shallow copies of the
    committed states, which no later round changes: :func:`_round` replaces
    fields and never writes an array in place.  The helper keeps the record
    and calls ``on_record`` as soon as the checks end.  The calling thread
    settles a round's checks before it handles the next round's outcome, and
    a failed check puts every state back as its round committed them, so the
    records, events and states are those of checking each round before the
    next.

    Each engine call, and each round's checks, ignore numpy's floating-point
    errors, so the package's own solves and checks show no warning; another
    warning, such as one a caller's ``metrics_fn`` issues, shows when it is
    issued.

    The run owns the worker pool its rounds' IVON solves use (:class:`_Pool`),
    and reaps it on every way out, an exception included, after its last
    checks have ended.  The pool is the run's context's, so runs in two
    threads each use and reap their own.
    """
    engine = ROUND_ENGINES[cfg.method]
    records: list[dict] = []
    first_event: dict | None = None

    def event(kind: str, reason: str, detail: str, rnd: int, **extra) -> dict:
        return {"type": kind, "round": rnd, "method": cfg.method, "reason": reason, "detail": detail,
                **extra}

    def stop(last: dict, diverged: bool, error: Exception | None = None) -> RunResult:
        if first_event is not None:
            last["preceded_by"] = first_event
        return RunResult(records, diverged, last, server, clients, error)

    def checks(record: dict, server: ServerState, clients: list[ClientState]) -> tuple:
        """``(phase, exception)`` of the first check that raises; else keep ``record``, ``(None, non-finite keys)``."""
        metric_values: dict = {}
        with np.errstate(all="ignore"):  # its own: a helper thread starts at numpy's defaults
            for phase, fn in (("metrics", metrics_fn), ("verify", verify_fn)):
                if fn is None:
                    continue
                try:
                    metric_values.update(fn(server, clients))
                except Exception as exc:
                    return phase, exc
        record.update(metric_values)
        records.append(record)
        if on_record is not None:
            on_record(record)
        return None, [k for k, val in metric_values.items() if isinstance(val, float) and not math.isfinite(val)]

    def settle(rnd: int, outcome, committed: tuple) -> RunResult | None:
        """Round ``rnd``'s checks, ``outcome()``: the run's result if one failed, with every state as ``committed``."""
        nonlocal first_event
        try:
            phase, found = outcome()
        except BaseException:
            restore(*committed)
            raise
        if phase is not None:
            restore(*committed)
            return stop(event("failure", type(found).__name__, str(found), rnd, phase=phase),
                        first_event is not None, found)
        if found and first_event is None:
            # Non-finite metrics are a reportable divergence, but the
            # states are still valid, so the run itself continues; only
            # state-level failures are terminal.
            first_event = event("divergence", "NonFiniteMetric", f"non-finite metrics: {found}", rnd)
        return None

    def restore(kept: ServerState, kept_clients: list[ClientState]) -> None:
        vars(server).update(vars(kept))
        for client, kept_client in zip(clients, kept_clients):
            vars(client).update(vars(kept_client))

    beside = _usable_cpus() > 1 and not _in_lockstep(server, clients, cfg)
    pool = _Pool(clients)
    token = _pool.set(pool)
    pending = None  # (round, its checks on the helper thread, the states it committed)
    try:
        for rnd in range(n_rounds):
            try:
                with np.errstate(all="ignore"):
                    info, ended = engine(server, clients, cfg, rnd, base_seed), None
            except Exception as exc:
                ended = exc
            if pending is not None:
                (done, helper, committed), pending = pending, None
                if (result := settle(done, helper.result, committed)) is not None:
                    return result
            if isinstance(ended, (ResultNotInFamily, NonFiniteUpdate, PrecisionEscape)):
                return stop(event("divergence", type(ended).__name__, str(ended), rnd), True)
            if ended is not None:
                failure = event("failure", type(ended).__name__, str(ended), rnd, phase="round")
                return stop(failure, first_event is not None, ended)
            record = {"round": rnd, "method": cfg.method, **info}
            committed = copy.copy(server), [copy.copy(c) for c in clients]
            if beside:
                pending = rnd, _Beside(checks, record, *committed), committed
            elif (result := settle(rnd, lambda: checks(record, *committed), committed)) is not None:
                return result
        if pending is not None:
            (done, helper, committed), pending = pending, None
            if (result := settle(done, helper.result, committed)) is not None:
                return result
        return RunResult(records, first_event is not None, first_event, server, clients)
    finally:
        if pending is not None:
            pending[1].join()
        pool.close()
        _pool.reset(token)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

# Version of the checkpoint layout; format 4 stores every array through
# ``families.array_to_jsonable``, a full family's ``S`` and ``V`` blocks as their
# upper triangles, and each client's ``lam`` blocks "xor-deflate" against the
# server's ``lam_g``.  No other format is read.
CHECKPOINT_FORMAT = 4


def checkpoint_to_jsonable(server: ServerState, clients: list[ClientState], rounds_completed: int) -> dict:
    """Server and client state only; the config that built them is the caller's to store.

    ``rounds_completed`` counts the rounds whose state this is (a run's
    :attr:`RunResult.rounds_committed`).  ``eta0`` is not stored: the
    config's prior determines it, and no round changes it.
    """
    out: dict = {"format": CHECKPOINT_FORMAT, "rounds_completed": rounds_completed}
    if server.fam is not None:
        out["lam_g"] = nat_to_jsonable(server.lam_g)
    if server.theta_g is not None:
        out["theta_g"] = array_to_jsonable(server.theta_g)
    records = []
    for c in clients:
        rec: dict = {"id": c.id}
        if c.lam is not None:
            # At the fixed point every client's lam equals lam_g, so their XOR deflates to almost nothing.
            rec["lam"] = nat_to_jsonable(c.lam, xor=server.lam_g)
            rec["eta"] = dual_to_jsonable(c.eta)
        if c.theta is not None:
            rec["theta"] = array_to_jsonable(c.theta)
            rec["v"] = array_to_jsonable(c.v)
        records.append(rec)
    out["clients"] = records
    return out


def require_checkpoint_format(data: dict) -> None:
    """Raise :class:`CheckpointError` unless ``data`` is a checkpoint of :data:`CHECKPOINT_FORMAT`."""
    found = data.get("format") if isinstance(data, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise CheckpointError(f"checkpoint format {found!r} is not {CHECKPOINT_FORMAT}, the only "
                              "format this version reads; write a new checkpoint with this version")


def checkpoint_from_jsonable(data: dict, server: ServerState, clients: list[ClientState]) -> int:
    """Load :func:`checkpoint_to_jsonable`'s state into the server and clients a config built.

    Returns the stored ``rounds_completed``.  The server keeps the ``eta0`` it
    was built with.  A malformed array is a :class:`CheckpointError` that
    names its record and key.
    """
    require_checkpoint_format(data)
    done = data.get("rounds_completed")
    if type(done) is not int or done < 0:
        raise CheckpointError(f"checkpoint rounds_completed {done!r} is not an int >= 0")
    ids = [int(rec["id"]) for rec in data["clients"]]
    if ids != list(range(len(clients))):
        raise CheckpointError(f"checkpoint client ids {ids} are not the {len(clients)} rebuilt clients")
    fam = server.fam
    where = "lam_g" if fam is not None else "theta_g"
    try:
        if fam is not None:
            server.lam_g = nat_from_jsonable(fam, data["lam_g"])
        else:
            server.theta_g = array_from_jsonable(data["theta_g"])
        for client, rec in zip(clients, data["clients"]):
            where = f"clients[{client.id}]"
            if fam is not None:
                client.lam = nat_from_jsonable(fam, rec["lam"], xor=server.lam_g)
                client.eta = dual_from_jsonable(fam, rec["eta"])
            else:
                client.theta = array_from_jsonable(rec["theta"])
                client.v = array_from_jsonable(rec["v"])
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {where}: {exc}") from exc
    return done
