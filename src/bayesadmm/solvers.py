"""Inner solvers for the client subproblem and the classical proximal step.

The Bayesian client subproblem is

    min_mu  L(mu) + <eta, mu> + rho * KL(q || q_g),

whose stationarity condition reads  grad_mu L + eta + rho * (lam - lam_g) = 0.
``solve_conjugate`` exploits it in closed form for T-linear losses,
``von_lockstep`` runs natural-gradient descent on several clients'
subproblems in lockstep (``solve_von`` is its stack of one), and
``solve_ivon`` is the stochastic diagonal-Gaussian variant with the two extra
Lagrange-multiplier terms.  ``solve_admm_client`` is the classical
point-estimate proximal step.  Each returns its result and a
:class:`SolveReport`.
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
    with exact moments.  This is :func:`von_lockstep` of one.
    """
    outcome = von_lockstep([spec], steps, beta, estimator, tol)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class _Stack(NamedTuple):
    """The clients of a lockstep solve that are still stepping, in stacked blocks.

    ``ids`` are their specs' positions; ``server``, ``eta`` and ``rho`` hold
    their server coordinates, duals and KL weights, and ``lams``, ``means``
    and ``coords`` their iterates, the iterates' means and coordinates.
    """

    ids: list[int]
    gradients: NaturalGradients
    server: tuple
    eta: tuple
    rho: Array
    lams: list[NatParam]
    means: Array
    coords: tuple

    def take(self, rows: list[int]) -> _Stack:
        """The stack of the clients at ``rows``; this one when that is every client."""
        if len(rows) == len(self.ids):
            return self
        g = self.gradients
        return _Stack([self.ids[j] for j in rows],
                      NaturalGradients([g.losses[j] for j in rows], [g.estimators[j] for j in rows], g.fam),
                      _take(self.server, rows), _take(self.eta, rows), self.rho[rows],
                      [self.lams[j] for j in rows], self.means[rows], _take(self.coords, rows))

    def step(self, beta: float, tol: float, taken: int, steps: int) -> tuple:
        """Step ``taken`` of every client: ``(gnorms, keep, halved, new)``.

        ``keep`` are the rows of the clients that step on, ``halved`` the
        halvings the step took, and ``new`` their next iterates, means and
        coordinates, or ``None`` when no client steps on.  Only a stack of one
        halves its step; a larger one raises instead.
        """
        fam = self.gradients.fam
        ng = self.gradients.blocks(self.lams, self.means)
        # grad = rho (coords - server) + (eta + ng), block by block as dual_axpy and dual_sub make it.
        grad = tuple(None if c is None else _axpy(self.rho.reshape(-1, *[1] * (c.ndim - 1)), c - s,
                                                  _axpy(1.0, e, n))
                     for c, s, e, n in zip(self.coords, self.server, self.eta, ng))
        norms = [np.max(np.abs(b), axis=tuple(range(1, b.ndim))) for b in grad if b is not None]
        gnorms = [max(float(norm[j]) for norm in norms) for j in range(len(self.ids))]
        keep = [j for j, gnorm in enumerate(gnorms) if not (gnorm <= tol or taken == steps)]
        if not keep:
            return gnorms, keep, 0, None
        grad, coords = _take(grad, keep), _take(self.coords, keep)
        trial = beta
        for halved in range(11):
            try:
                m, prec, low = from_dual_rows(fam, *(None if g is None else _axpy(-trial, g, c)
                                                     for g, c in zip(grad, coords)))
                return gnorms, keep, halved, (nat_rows(fam, m, prec, low), m, coords_rows(fam, m, prec))
            except NonPositivePrecision:
                if len(self.ids) > 1:
                    raise
                trial *= 0.5
        raise PrecisionEscape(f"iterate left the family at step {taken} and halving did not repair it")


def von_lockstep(
    specs: list[SubproblemSpec],
    steps: int = 500,
    beta: float = 0.5,
    estimator: Estimator | list[Estimator] = Delta(),
    tol: float = 1e-8,
) -> list:
    """Each spec's :func:`solve_von` outcome, in order: its :class:`Solved`, or what it raised.

    ``estimator`` is one for every spec or a list with one per spec, and the
    specs share one family.  Each step is one :meth:`_Stack.step` of the
    clients still stepping: one :class:`NaturalGradients` call, and their dual
    arithmetic, precision factors and coordinate maps on stacked blocks, so
    each numpy call is paid once per step.  Each client keeps its own step
    count, tolerance test, halvings and report: one that converges or reaches
    ``steps`` leaves the stack.  If a step of more than one client raises, a
    failed factorization included, the step is redone for each client as a
    stack of one, so each client halves or fails alone.  Once a client fails,
    the clients after it stop: each outcome is then ``None``, or what it had
    raised already.
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
    server = _stack([spec._lam_g_dual for spec in specs])
    stack = _Stack(list(range(len(specs))),
                   NaturalGradients([spec.tempered_loss() for spec in specs], estimators, fam),
                   server, _stack([spec.eta for spec in specs]), np.array([spec.rho for spec in specs]),
                   [spec.lam_g for spec in specs], np.stack([spec.lam_g.m for spec in specs]), server)
    halvings = [0] * len(specs)
    for taken in range(steps + 1):
        groups, parts = [list(range(len(stack.ids)))], []
        for rows in groups:
            try:
                parts.append((rows, *stack.take(rows).step(beta, tol, taken, steps)))
            except Exception as exc:
                if len(rows) == 1:
                    outcomes[stack.ids[rows[0]]] = exc
                    break
                groups += [[j] for j in rows]
        keep, new = [], []
        for rows, gnorms, kept, halved, moved in parts:
            for i, (j, gnorm) in enumerate(zip(rows, gnorms)):
                k = stack.ids[j]
                halvings[k] += halved
                if i not in kept:
                    outcomes[k] = Solved(stack.lams[j], SolveReport(taken, halvings[k], gnorm, gnorm <= tol))
            keep += [rows[j] for j in kept]
            new += [moved] if moved else []
        if not keep:
            break
        if len(new) > 1:
            new = [([lam for lams, _, _ in new for lam in lams], np.concatenate([m for _, m, _ in new]),
                    tuple(None if b[0] is None else np.concatenate(b) for b in zip(*(c for _, _, c in new))))]
        lams, means, coords = new[0]
        stack = stack.take(keep)._replace(lams=lams, means=means, coords=coords)
    return outcomes


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
    iterates abort with the last finite state attached, and numpy warns of
    the overflow unless the caller's error state says otherwise (a round in
    ``federation.run_rounds`` ignores it).  The schedule is fixed, so the
    report claims no convergence.
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
