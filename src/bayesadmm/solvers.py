"""Inner solvers for the client subproblem and the classical proximal step.

The Bayesian client subproblem is

    min_mu  L(mu) + <eta, mu> + rho * KL(q || q_g),

whose stationarity condition reads  grad_mu L + eta + rho * (lam - lam_g) = 0.
``solve_conjugate`` exploits it in closed form for T-linear losses,
``solve_von`` runs natural-gradient descent on it (``solve_von_stack`` on
several clients' subproblems in lockstep), and ``solve_ivon`` is the
stochastic diagonal-Gaussian variant with the two extra Lagrange-multiplier
terms.  ``solve_admm_client`` is the classical point-estimate proximal step.
Each returns its result and a :class:`SolveReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    EstimatorUnsupported,
    FamilyMismatch,
    NonFiniteUpdate,
    NonPositivePrecision,
    PrecisionEscape,
    ResultNotInFamily,
)
from .families import (
    DIAG,
    Array,
    DualVec,
    NatParam,
    _axpy,
    check_same_family,
    coords_rows,
    dual_axpy,
    dual_inf_norm,
    dual_sub,
    from_dual_rows,
    nat_rows,
)
from .losses import (
    Delta,
    Estimator,
    Logistic,
    LossSpec,
    MulticlassLogistic,
    NaturalGradients,
    Quadratic,
    conjugate_coefficient,
    loss_grad,
    minibatch_grad,
    natural_gradient,
    scale_loss,
)

# ---------------------------------------------------------------------------
# what a solve reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveReport:
    """Steps taken, step-halvings, the final gradient norm and whether it met its tolerance.

    ``grad_norm`` is ``None`` where no gradient is formed, and ``converged``
    is ``None`` for a fixed schedule with no tolerance (IVON).
    """

    steps: int
    halvings: int = 0
    grad_norm: float | None = None
    converged: bool | None = None


class Solved(NamedTuple):
    """A solve's ``(result, report)`` pair.

    ``steps`` and ``converged`` read through to the report: perfbench's span
    tracer reads them off what ``solve_von`` returns.
    """

    result: object
    report: SolveReport
    steps = property(lambda self: self.report.steps)
    converged = property(lambda self: self.report.converged)


# ---------------------------------------------------------------------------
# client subproblem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubproblemSpec:
    """One client subproblem: loss, incoming dual, server parameter, step sizes.

    ``tau`` tempers the data loss (the loss is divided by it); the linear dual
    term is never tempered.  ``_lam_g_dual`` is ``lam_g.as_dual()``, the
    server's ambient coordinates; a round that poses one subproblem per client
    maps ``lam_g`` once and passes the result, vouching that it is that map.
    """

    loss: LossSpec
    eta: DualVec
    lam_g: NatParam
    rho: float
    tau: float = 1.0
    _lam_g_dual: DualVec | None = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be > 0")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.eta.fam != self.lam_g.fam:
            raise FamilyMismatch("eta and lam_g families differ")
        if self._lam_g_dual is None:
            object.__setattr__(self, "_lam_g_dual", self.lam_g.as_dual())

    def tempered_loss(self) -> LossSpec:
        return scale_loss(self.loss, self.tau)


def solve_conjugate(spec: SubproblemSpec) -> Solved:
    """Closed-form stationary point for T-linear losses.

    lam = lam_g + (c - eta) / rho, with l = -<c, T>.  The post-update dual
    eta + rho (lam - lam_g) then equals c = -grad L exactly.
    """
    c = conjugate_coefficient(spec.tempered_loss(), spec.lam_g.fam)
    step = dual_axpy(-1.0, spec.eta, c)  # c - eta
    target = dual_axpy(1.0 / spec.rho, step, spec._lam_g_dual)
    try:
        lam = NatParam.from_dual(target)
    except NonPositivePrecision as exc:
        raise ResultNotInFamily(f"conjugate solve left the family: {exc}") from exc
    return Solved(lam, SolveReport(0, grad_norm=0.0, converged=True))


def solve_von(
    spec: SubproblemSpec,
    steps: int = 500,
    beta: float = 0.5,
    estimator: Estimator = Delta(),
    tol: float = 1e-8,
) -> Solved:
    """Natural-gradient descent lam <- lam - beta * grad_mu F, started at lam_g.

    grad_mu F = grad_mu E_q[l / tau] + eta + rho (lam - lam_g), in ambient
    coordinates: those of ``lam_g`` come with ``spec``, and each step maps its
    new ``lam`` once.  If a step leaves the family, beta is halved for that
    step only (at most 10 halvings, then :class:`PrecisionEscape`); the report
    counts the halvings of all steps.  Converges linearly on quadratic losses
    with exact moments.  This is :func:`solve_von_stack` of one.
    """
    return solve_von_stack([spec], steps, beta, estimator, tol)[0]


def solve_von_stack(
    specs: list[SubproblemSpec],
    steps: int = 500,
    beta: float = 0.5,
    estimator: Estimator | list[Estimator] = Delta(),
    tol: float = 1e-8,
) -> list[Solved]:
    """:func:`solve_von` of each spec, the solves run in lockstep.

    ``estimator`` is one for every spec or a list with one per spec.  Each
    result equals the lone solve's bit for bit.  If solves fail, the first
    failing spec's exception is raised, as a loop over the specs would raise
    it; see :func:`von_lockstep`.
    """
    outcomes = von_lockstep(specs, steps, beta, estimator, tol)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def von_lockstep(
    specs: list[SubproblemSpec],
    steps: int = 500,
    beta: float = 0.5,
    estimator: Estimator | list[Estimator] = Delta(),
    tol: float = 1e-8,
) -> list:
    """Each spec's :func:`solve_von` outcome, in order: its :class:`Solved`, or what it raised.

    The specs share one family.  Each step evaluates the natural gradients of
    every client still stepping in one :class:`NaturalGradients` call, and
    does their dual arithmetic, precision factors and coordinate maps on
    stacked blocks, so each numpy call is paid once per step.  Each client
    keeps its own step count, tolerance test, halvings and report: one that
    converges or reaches ``steps`` leaves the stack.  If any part of a
    stacked step raises, a failed factorization included, the step is redone
    one client at a time by :func:`_lone_step`, so each client halves or
    fails alone.  Once a client fails, the clients after it stop: each
    outcome is then ``None``, or what it had raised already.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    outcomes: list = [None] * len(specs)
    if not specs:
        return outcomes
    fam = specs[0].lam_g.fam
    for spec in specs:
        check_same_family(spec.lam_g, specs[0].lam_g)
    estimators = list(estimator) if isinstance(estimator, (list, tuple)) else [estimator] * len(specs)
    losses = [spec.tempered_loss() for spec in specs]
    # Per client still stepping, in stacked blocks: the server's coordinates,
    # the dual and the KL weight; and the iterate, its mean and its coordinates.
    ids = list(range(len(specs)))
    server = _stack([spec._lam_g_dual for spec in specs])
    eta = _stack([spec.eta for spec in specs])
    rho = np.array([spec.rho for spec in specs])
    lams = [spec.lam_g for spec in specs]
    means, coords = np.stack([lam.m for lam in lams]), server
    halvings = [0] * len(specs)
    gradients = NaturalGradients(losses, estimators, fam)
    for taken in range(steps + 1):
        try:
            ng = gradients.blocks(lams, means)
            # grad = rho (coords - server) + (eta + ng), block by block as dual_axpy and dual_sub make it.
            grad = tuple(None if c is None else _axpy(rho.reshape(-1, *[1] * (c.ndim - 1)), c - s,
                                                      _axpy(1.0, e, n))
                         for c, s, e, n in zip(coords, server, eta, ng))
            norms = [np.max(np.abs(b), axis=tuple(range(1, b.ndim))) for b in grad if b is not None]
            gnorms = [max(float(norm[j]) for norm in norms) for j in range(len(ids))]
            keep = [j for j, gnorm in enumerate(gnorms) if not (gnorm <= tol or taken == steps)]
            if keep:
                moved = [None if g is None else _axpy(-beta, g, c) for g, c in zip(_take(grad, keep),
                                                                                 _take(coords, keep))]
                m, prec, low = from_dual_rows(fam, *moved)
                new, new_means, new_coords = nat_rows(fam, m, prec, low), m, coords_rows(fam, m, prec)
        except Exception:
            # Redo the step one client at a time, as a lone solve makes it.
            gnorms, keep, new = [], [], []
            for j, k in enumerate(ids):
                try:
                    gnorm, lam, halved = _lone_step(specs[k], losses[k], estimators[k], lams[j], beta, tol,
                                                    taken, steps)
                except Exception as exc:
                    outcomes[k] = exc
                    break
                gnorms.append(gnorm)
                halvings[k] += halved
                if lam is not None:
                    keep.append(j)
                    new.append(lam)
            if new:
                new_means = np.stack([lam.m for lam in new])
                new_coords = _stack([lam.as_dual() for lam in new])
        for j, gnorm in enumerate(gnorms):
            if gnorm <= tol or taken == steps:
                k = ids[j]
                outcomes[k] = Solved(lams[j], SolveReport(taken, halvings[k], gnorm, gnorm <= tol))
        if not keep:
            break
        if len(keep) < len(ids):
            ids = [ids[j] for j in keep]
            server, eta, rho = _take(server, keep), _take(eta, keep), rho[keep]
            gradients = NaturalGradients([losses[k] for k in ids], [estimators[k] for k in ids], fam)
        lams, means, coords = new, new_means, new_coords
    return outcomes


def _lone_step(spec, loss, estimator, lam, beta, tol, taken, steps) -> tuple[float, NatParam | None, int]:
    """One step of one client's solve at ``lam``, with :class:`DualVec` arithmetic.

    Returns the gradient norm, the next iterate (``None`` once the solve
    stops at this step) and the step-halvings it took; raises
    :class:`PrecisionEscape` when the 11th try still leaves the family.
    This is the arithmetic of the stacked step for one row, bit for bit.
    """
    coords = lam.as_dual()
    ng = natural_gradient(loss, lam, estimator)
    grad = dual_axpy(spec.rho, dual_sub(coords, spec._lam_g_dual), dual_axpy(1.0, spec.eta, ng))
    gnorm = dual_inf_norm(grad)
    if gnorm <= tol or taken == steps:
        return gnorm, None, 0
    trial = beta
    for halved in range(11):
        try:
            return gnorm, NatParam.from_dual(dual_axpy(-trial, grad, coords)), halved
        except NonPositivePrecision:
            trial *= 0.5
    raise PrecisionEscape(f"iterate left the family at step {taken} and halving did not repair it")


def _stack(duals: list[DualVec]) -> tuple[Array, Array | None]:
    """The blocks of several duals of one family, stacked on a leading client axis."""
    b1 = np.stack([d.b1 for d in duals])
    return b1, None if duals[0].b2 is None else np.stack([d.b2 for d in duals])


def _take(blocks: tuple, rows: list[int]) -> tuple:
    """The stack rows ``rows`` of each block; the blocks themselves when that is every row."""
    if len(rows) == len(blocks[0]):
        return blocks
    return tuple(None if b is None else b[rows] for b in blocks)



# ---------------------------------------------------------------------------
# IVON (diagonal Gaussian, stochastic)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IvonConfig:
    """Hyperparameters of the stochastic diagonal solver.

    ``lr`` is the constant step size unless ``lr_schedule`` supplies one value
    per step.  Defaults follow the solver's usual recommendations.
    """

    steps: int = 1000
    lr: float = 0.1
    lr_schedule: tuple[float, ...] | None = None
    beta1: float = 0.9
    beta2: float = 0.99999
    h0: float = 0.1
    batch_size: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta1, beta2 must lie in (0, 1)")
        if self.h0 < 0.0:
            raise ValueError("h0 must be >= 0")
        if self.lr_schedule is not None and len(self.lr_schedule) < self.steps:
            raise ValueError("lr_schedule shorter than steps")

    def rate(self, t: int) -> float:
        return self.lr if self.lr_schedule is None else self.lr_schedule[t]


@dataclass(frozen=True)
class IvonState:
    m: Array
    h: Array
    g: Array


def _stochastic_gradient(loss: LossSpec, theta: Array, batch_size, rng) -> Array:
    """Unbiased gradient of the loss as given; subsamples rows for data losses."""
    if (
        batch_size is None
        or not isinstance(loss, (Logistic, MulticlassLogistic))
        or batch_size >= loss.n_examples
    ):
        return loss_grad(loss, theta)
    idx = rng.choice(loss.n_examples, size=batch_size, replace=False)
    return (loss.n_examples / batch_size) * minibatch_grad(loss, theta, idx)


def _ivon_step(
    state: IvonState,
    theta: Array,
    ghat: Array,
    sigma2: Array,
    lr: float,
    cfg: IvonConfig,
    delta: Array,
    m_p: Array,
    v: Array,
    u: Array,
) -> IvonState:
    """One update given the sampled theta, its stochastic gradient, and the
    sampling variance sigma2 the draw actually used.

    The quadratic correction in the h-recursion bounds the update below by
    (h - delta)/2, so h + delta stays positive whatever hhat is.
    """
    hhat = ghat * (theta - state.m) / sigma2 - u
    g = cfg.beta1 * state.g + (1.0 - cfg.beta1) * ghat
    h = (
        cfg.beta2 * state.h
        + (1.0 - cfg.beta2) * hhat
        + 0.5 * (1.0 - cfg.beta2) ** 2 * (state.h - hhat) ** 2 / (state.h + delta)
    )
    m = state.m - lr * (g + v - u * state.m + delta * (state.m - m_p)) / (h + delta)
    return IvonState(m, h, g)


def solve_ivon(
    loss: LossSpec,
    prior: NatParam,
    loss_scale: float,
    v: Array,
    u: Array,
    cfg: IvonConfig,
) -> Solved:
    """Minimize  loss_scale * E_q[l + v^T theta - theta^T diag(u) theta / 2] + KL(q || prior).

    ``prior`` must be a diagonal-precision parameter (m_p, s_p); internally
    delta = 1 / (loss_scale * sigma_p^2) = s_p / loss_scale, and the returned
    ``NatParam`` of the prior's family has precision loss_scale * (h + delta).
    The Hessian recursion keeps h + delta > 0 by construction; non-finite
    iterates abort with the last finite state attached.  The schedule is
    fixed, so the report claims no convergence.
    """
    if prior.fam.kind != DIAG:
        raise EstimatorUnsupported("solve_ivon requires a diagonal-precision prior")
    if loss_scale <= 0:
        raise ValueError("loss_scale must be > 0")
    dim = prior.fam.dim
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.shape != (dim,) or u.shape != (dim,):
        raise FamilyMismatch("multiplier vectors must match the parameter dimension")
    m_p = prior.m
    delta = prior.prec / loss_scale
    rng = np.random.default_rng(cfg.seed)
    state = IvonState(m_p.copy(), np.full(dim, cfg.h0), np.zeros(dim))
    for t in range(cfg.steps):
        sigma2 = 1.0 / (loss_scale * (state.h + delta))
        theta = state.m + np.sqrt(sigma2) * rng.standard_normal(dim)
        with np.errstate(over="ignore", invalid="ignore"):
            ghat = _stochastic_gradient(loss, theta, cfg.batch_size, rng)
            new = _ivon_step(state, theta, ghat, sigma2, cfg.rate(t), cfg, delta, m_p, v, u)
        if not (np.all(np.isfinite(new.m)) and np.all(np.isfinite(new.h))):
            raise NonFiniteUpdate(
                f"non-finite iterate at step {t}",
                mean=state.m,
                precision=loss_scale * (state.h + delta),
            )
        state = new
    return Solved(NatParam(prior.fam, state.m, loss_scale * (state.h + delta)), SolveReport(cfg.steps))


# ---------------------------------------------------------------------------
# classical proximal client step
# ---------------------------------------------------------------------------


def _gd_lipschitz(loss: LossSpec) -> float:
    """Cheap curvature bound used to pick a safe fixed step size.

    Never asked of a :class:`Quadratic`, which :func:`solve_admm_client` solves exactly.
    """
    if isinstance(loss, Logistic):
        gram = loss.X.T @ loss.X
        return 0.25 * float(np.linalg.eigvalsh(gram)[-1]) / loss.scale
    if isinstance(loss, MulticlassLogistic):
        gram = loss.X.T @ loss.X
        return 0.5 * float(np.linalg.eigvalsh(gram)[-1]) / loss.scale
    # LinearInT
    if loss.c.b2 is None:
        return 0.0
    payload = -2.0 * loss.c.b2
    if payload.ndim == 1:
        return float(np.max(np.abs(payload)))
    return float(np.max(np.abs(np.linalg.eigvalsh(payload))))


def solve_admm_client(
    loss: LossSpec,
    v: Array,
    theta_g: Array,
    rho: float,
    steps: int = 500,
    lr: float | None = None,
    tol: float = 1e-8,
) -> Solved:
    """Minimize  l(theta) + v^T theta + rho/2 ||theta - theta_g||^2.

    Quadratic losses use the exact solve (A + rho I) theta = rho theta_g - b - v;
    everything else runs fixed-step gradient descent (no line search) with a
    step from a curvature bound.  Hitting the iteration cap returns the best
    iterate with ``converged=False`` rather than raising.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    v = np.asarray(v, dtype=float)
    theta_g = np.asarray(theta_g, dtype=float)
    if isinstance(loss, Quadratic):
        mat = loss.A + rho * np.eye(loss.dim)
        theta = np.linalg.solve(mat, rho * theta_g - loss.b - v)
        grad = loss_grad(loss, theta) + v + rho * (theta - theta_g)
        return Solved(theta, SolveReport(0, grad_norm=float(np.max(np.abs(grad))), converged=True))
    if lr is None:
        lr = 1.0 / (_gd_lipschitz(loss) + rho)
    theta = theta_g.copy()
    best = theta
    best_norm = np.inf
    taken = 0
    for taken in range(steps + 1):
        grad = loss_grad(loss, theta) + v + rho * (theta - theta_g)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < best_norm:
            best, best_norm = theta, gnorm
        if gnorm <= tol or taken == steps:
            break
        theta = theta - lr * grad
    return Solved(best, SolveReport(taken, grad_norm=best_norm, converged=best_norm <= tol))
