"""Inner solvers for the client subproblem and the classical proximal step.

The Bayesian client subproblem is

    min_mu  L(mu) + <eta, mu> + rho * KL(q || q_g),

whose stationarity condition reads  grad_mu L + eta + rho * (lam - lam_g) = 0.
``solve_conjugate`` exploits it in closed form for T-linear losses,
``solve_von`` runs natural-gradient descent on it, and ``solve_ivon`` is the
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
    dual_axpy,
    dual_inf_norm,
    dual_sub,
)
from .losses import (
    Delta,
    Estimator,
    Logistic,
    LossSpec,
    MulticlassLogistic,
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
    with exact moments.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    lam, coords = spec.lam_g, spec._lam_g_dual
    tempered = spec.tempered_loss()
    gnorm = np.inf
    taken = halvings = 0
    for taken in range(steps + 1):
        ng = natural_gradient(tempered, lam, estimator)
        grad = dual_axpy(spec.rho, dual_sub(coords, spec._lam_g_dual), dual_axpy(1.0, spec.eta, ng))
        gnorm = dual_inf_norm(grad)
        if gnorm <= tol or taken == steps:
            break
        trial = beta
        for _ in range(11):
            try:
                lam = NatParam.from_dual(dual_axpy(-trial, grad, coords))
                break
            except NonPositivePrecision:
                trial *= 0.5
                halvings += 1
        else:
            raise PrecisionEscape(
                f"iterate left the family at step {taken} and halving did not repair it"
            )
        coords = lam.as_dual()
    return Solved(lam, SolveReport(taken, halvings, gnorm, gnorm <= tol))


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
