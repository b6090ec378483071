"""Client losses: analytic calculus, expected moments under Gaussian q, natural gradients.

Expected gradients/Hessians feed the natural-gradient identity

    grad_mu E_q[l] = (g - H m, H/2),   g = E_q[grad l],  H = E_q[hess l],

with the second block dropped for the fixed-covariance families (where the
expectation coordinate is just the mean and the natural gradient is ``g``).
Temperature enters by dividing the data loss, never the linear dual terms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, EstimatorUnsupported, FamilyMismatch
from .families import (
    DIAG,
    FIXED,
    FULL,
    ISOTROPIC,
    Array,
    DualVec,
    Family,
    NatParam,
    _symmetrize,
    _wrap,
    pair_with_stat,
    sample,
)

# Draws per batch in the sampled estimators: bounds their temporaries to a
# few DRAW_CHUNK * n * C floats.
DRAW_CHUNK = 4096


@functools.cache
def _special():
    """``scipy.special``, imported on first use.

    The import takes about a third of a second, and only the binary logistic
    loss (``expit``, ``log_expit``) and :func:`loss_value` need it.
    Constructing a :class:`Logistic` calls this, so a run pays in its setup.
    """
    import scipy.special

    return scipy.special


# ---------------------------------------------------------------------------
# loss specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quadratic:
    """l(theta) = 0.5 theta^T A theta + b^T theta; A symmetric, PSD not required."""

    A: Array
    b: Array
    n_examples: int = 0

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (b.size, b.size):
            raise DimensionMismatch(f"A shape {a.shape} incompatible with b of size {b.size}")
        if float(np.max(np.abs(a - a.T))) > 1e-10 * max(1.0, float(np.max(np.abs(a)))):
            raise DimensionMismatch("A must be symmetric")
        object.__setattr__(self, "A", 0.5 * (a + a.T))
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class LinearInT:
    """l(theta) = -<c, T(theta)>; the conjugate case with closed-form client solves."""

    c: DualVec
    n_examples: int = 0

    @property
    def dim(self) -> int:
        return self.c.fam.dim


@dataclass(frozen=True)
class Logistic:
    """Binary cross entropy over rows of X with labels in {0,1}, divided by ``scale``."""

    X: Array
    y: Array
    scale: float = 1.0

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise DimensionMismatch("X must be (n, d) with matching label vector")
        if self.scale <= 0:
            raise DimensionMismatch("scale must be > 0")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "y", y)
        _special()

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def n_examples(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class MulticlassLogistic:
    """Softmax cross entropy; parameter is the class-major flattening of (C, d) weights.

    ``_outer`` keeps the rows' outer products ``x x^T``, shape ``(n, d^2)``,
    that every full Hessian multiplies, made on first use.
    """

    X: Array
    y: Array
    n_classes: int
    scale: float = 1.0
    _outer: Array | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise DimensionMismatch("X must be (n, d) with matching label vector")
        if self.n_classes < 2 or y.min(initial=0) < 0 or y.max(initial=0) >= self.n_classes:
            raise DimensionMismatch("labels out of range for declared class count")
        if self.scale <= 0:
            raise DimensionMismatch("scale must be > 0")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "y", y)

    @property
    def dim(self) -> int:
        return self.n_classes * self.X.shape[1]

    @property
    def n_examples(self) -> int:
        return self.X.shape[0]


LossSpec = Quadratic | LinearInT | Logistic | MulticlassLogistic


def scale_loss(loss: LossSpec, divisor: float) -> LossSpec:
    """Divide a loss by a positive scalar (temperature / per-example rescaling)."""
    if divisor <= 0:
        raise ValueError("divisor must be > 0")
    if divisor == 1.0:
        return loss
    if isinstance(loss, Quadratic):
        return Quadratic(loss.A / divisor, loss.b / divisor, loss.n_examples)
    if isinstance(loss, LinearInT):
        c = loss.c
        b2 = None if c.b2 is None else c.b2 / divisor
        return LinearInT(DualVec(c.fam, c.b1 / divisor, b2), loss.n_examples)
    return replace(loss, scale=loss.scale * divisor)


def _check_theta(loss: LossSpec, theta: Array) -> Array:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (loss.dim,):
        raise DimensionMismatch(f"theta shape {theta.shape} != ({loss.dim},)")
    return theta


# ---------------------------------------------------------------------------
# pointwise calculus
# ---------------------------------------------------------------------------


def loss_value(loss: LossSpec, theta: Array) -> float:
    theta = _check_theta(loss, theta)
    if isinstance(loss, Quadratic):
        return 0.5 * float(theta @ loss.A @ theta) + float(loss.b @ theta)
    if isinstance(loss, LinearInT):
        return -pair_with_stat(loss.c, theta)
    if isinstance(loss, Logistic):
        z = loss.X @ theta
        # -y log sigma(z) - (1-y) log sigma(-z), summed, stable via log_expit.
        log_expit = _special().log_expit
        return float(-np.sum(loss.y * log_expit(z) + (1.0 - loss.y) * log_expit(-z))) / loss.scale
    logits = _logits(loss, theta[None], loss.X)[0]
    logz = _special().logsumexp(logits, axis=0)
    n = np.arange(loss.n_examples)
    return float(np.sum(logz - logits[loss.y, n])) / loss.scale


def loss_grad(loss: LossSpec, theta: Array) -> Array:
    return _grads(loss, _check_theta(loss, theta)[None])[0]


def minibatch_grad(loss: Logistic | MulticlassLogistic, theta: Array, rows: Array) -> Array:
    """Gradient at ``theta`` of the loss over the rows ``rows`` of its data alone.

    Bit for bit :func:`loss_grad` of the same loss built on ``X[rows]`` and
    ``y[rows]``, without building and checking that loss.
    """
    x, y = loss.X[rows], loss.y[rows]
    return _prob_grads(loss, _probs(loss, theta[None], x), x, y)[0]


def loss_hess(loss: LossSpec, theta: Array, diag_only: bool = False) -> Array:
    """Hessian (exact; for the logistic losses this coincides with Gauss-Newton).

    ``diag_only`` returns the exact diagonal as a vector.
    """
    theta = _check_theta(loss, theta)
    if isinstance(loss, Quadratic):
        return np.diag(loss.A).copy() if diag_only else loss.A
    if isinstance(loss, LinearInT):
        c = loss.c
        if c.b2 is None:
            return np.zeros(loss.dim) if diag_only else np.zeros((loss.dim, loss.dim))
        hess_diag_or_full = -2.0 * c.b2
        if c.fam.kind == DIAG:
            return hess_diag_or_full if diag_only else np.diag(hess_diag_or_full)
        return np.diag(hess_diag_or_full).copy() if diag_only else hess_diag_or_full
    probs = _probs(loss, theta[None], loss.X)
    return _hess(loss, _weight_sum(loss, probs, diag_only), diag_only)


# The logistic kernels below work on a batch of S parameter rows at once, so
# the sampled estimators make one product with X per chunk of draws instead of
# one per draw.  A single point is the batch of one.  They take the data rows
# ``x`` (and labels ``y``) apart from the loss, which supplies the kind, the
# class count and the scale, so a minibatch needs no loss of its own.


def _logits(loss: Logistic | MulticlassLogistic, thetas: Array, x: Array) -> Array:
    """Logits at each row of ``thetas``: (S, n) binary, (S, C, n) multiclass."""
    if isinstance(loss, Logistic):
        return thetas @ x.T
    n, d = x.shape
    return (thetas.reshape(-1, d) @ x.T).reshape(len(thetas), loss.n_classes, n)


def _probs(loss: Logistic | MulticlassLogistic, thetas: Array, x: Array) -> Array:
    """Predicted probabilities, shaped like :func:`_logits`.

    Works in place: fresh temporaries of this size cost more than the arithmetic.
    """
    logits = _logits(loss, thetas, x)
    if isinstance(loss, Logistic):
        return _special().expit(logits, out=logits)
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _grads(loss: LossSpec, thetas: Array) -> Array:
    """Gradients (S, dim) at each row of ``thetas``."""
    # ``A`` and ``b2`` are symmetric; ``thetas @ A.T`` gives the bits of ``A @ m``.
    if isinstance(loss, Quadratic):
        return thetas @ loss.A.T + loss.b
    if isinstance(loss, LinearInT):
        c = loss.c
        if c.b2 is None:
            return np.tile(-c.b1, (len(thetas), 1))
        return -c.b1 - 2.0 * (thetas * c.b2 if c.fam.kind == DIAG else thetas @ c.b2.T)
    return _prob_grads(loss, _probs(loss, thetas, loss.X), loss.X, loss.y)


def _prob_grads(loss: Logistic | MulticlassLogistic, probs: Array, x: Array, y: Array) -> Array:
    """Gradients (S, dim) from predicted probabilities on rows ``x``, ``y``; linear in ``probs``."""
    if isinstance(loss, Logistic):
        return (probs - y) @ x / loss.scale
    resid = probs.copy()
    resid[:, y, np.arange(len(y))] -= 1.0
    grads = resid.reshape(-1, len(y)) @ x  # (S*C, d), class-major
    return grads.reshape(len(probs), loss.dim) / loss.scale


def _weight_sum(loss: Logistic | MulticlassLogistic, probs: Array, diag_only: bool) -> Array:
    """Per-example Hessian weights summed over the S rows of ``probs``.

    Binary: p(1-p), shape (n,).  Multiclass: diag(p) - p p^T, shape (C, C, n),
    or only its diagonal p(1-p), shape (C, n), when ``diag_only``.  No entry
    is -0.0: ``0.0 - p p^T`` keeps the sign of a zero product positive.
    """
    if isinstance(loss, Logistic) or diag_only:
        return np.sum(probs * (1.0 - probs), axis=0)
    weights = np.einsum("sai,sbi->abi", probs, probs)
    np.subtract(0.0, weights, out=weights)
    idx = np.arange(loss.n_classes)
    weights[idx, idx] += probs.sum(axis=0)
    return weights


def _hess(loss: Logistic | MulticlassLogistic, weights: Array, diag_only: bool) -> Array:
    """Hessian sum_i weights_i (x) x_i x_i^T / scale from :func:`_weight_sum`'s weights."""
    x = loss.X
    if isinstance(loss, Logistic):
        hess = (x * x).T @ weights if diag_only else x.T @ (x * weights[:, None])
        return hess / loss.scale
    if diag_only:
        return (weights @ (x * x)).ravel() / loss.scale
    # H[(a,e),(b,f)] = sum_i w[a,b,i] x[i,e] x[i,f]: one (C^2, n) @ (n, d^2) product.
    n, d = x.shape
    c = loss.n_classes
    outer = loss._outer
    if outer is None:
        outer = (x[:, :, None] * x[:, None, :]).reshape(n, d * d)
        outer.setflags(write=False)
        object.__setattr__(loss, "_outer", outer)
    hess = (weights.reshape(c * c, n) @ outer).reshape(c, c, d, d).transpose(0, 2, 1, 3)
    return hess.reshape(loss.dim, loss.dim) / loss.scale


# ---------------------------------------------------------------------------
# expected moments under Gaussian q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Delta:
    """Evaluate grad/hess at the mean (the delta method).

    Exact on the T-linear losses, whose gradient is affine and Hessian constant:
    there it gives their closed-form moments.
    """


@dataclass(frozen=True)
class MonteCarlo:
    """Average analytic per-sample grad/hess over draws from q.

    A fixed ``seed`` gives common random numbers across repeated calls.
    """

    count: int = 64
    seed: int | None = None


@dataclass(frozen=True)
class Reparam:
    """Gradient as Monte Carlo; Hessian diagonal via g*(theta-m)/sigma^2."""

    count: int = 64
    seed: int | None = None


Estimator = Delta | MonteCarlo | Reparam


@dataclass(frozen=True)
class MomentEstimate:
    """Expected gradient plus expected Hessian in the family's native shape."""

    g: Array
    h: Array | None


def expected_moments(loss: LossSpec, lam: NatParam, estimator: Estimator) -> MomentEstimate:
    """E_q[grad l] and E_q[hess l] (full matrix, or its diagonal for diag families)."""
    if lam.fam.dim != loss.dim:
        raise DimensionMismatch(f"loss dim {loss.dim} != family dim {lam.fam.dim}")
    diag = lam.fam.kind == DIAG
    if isinstance(estimator, Delta):
        return MomentEstimate(*_mean_moments(loss, lam.m[None], diag))
    if isinstance(estimator, MonteCarlo):
        if estimator.count < 1:
            raise EstimatorUnsupported("MonteCarlo needs count >= 1")
        return MomentEstimate(*_mean_moments(loss, sample(lam, estimator.count, estimator.seed), diag))
    if isinstance(estimator, Reparam):
        return _reparam_moments(loss, lam, estimator)
    raise EstimatorUnsupported(f"unknown estimator {estimator!r}")


def _chunks(thetas: Array):
    """Consecutive row blocks of at most ``DRAW_CHUNK`` draws."""
    return (thetas[i : i + DRAW_CHUNK] for i in range(0, len(thetas), DRAW_CHUNK))


def _mean_moments(loss: LossSpec, thetas: Array, diag: bool) -> tuple[Array, Array]:
    """Mean gradient and Hessian over the rows of ``thetas``.

    The logistic gradient is linear in the predicted probabilities and the
    Hessian in the per-example weights, so both come from the sums of those:
    one softmax per draw, one Hessian product in all.  One draw is its own
    mean: neither its probabilities nor its weights hold a -0.0, so
    ``(0.0 + s) / 1`` would give back ``s`` bit for bit, and is skipped.
    """
    if isinstance(loss, (Quadratic, LinearInT)):
        # Per-sample grad is affine in theta and the Hessian is constant,
        # so the sample average collapses onto the mean draw.
        return loss_grad(loss, thetas.mean(axis=0)), loss_hess(loss, thetas[0], diag_only=diag)
    count = len(thetas)
    prob_sum = weight_sum = 0.0
    for chunk in _chunks(thetas):
        probs = _probs(loss, chunk, loss.X)
        if count == 1:
            prob_sum, weight_sum = probs, _weight_sum(loss, probs, diag)
            break
        prob_sum = prob_sum + probs.sum(axis=0)
        weight_sum = weight_sum + _weight_sum(loss, probs, diag)
    else:
        prob_sum, weight_sum = prob_sum[None] / count, weight_sum / count
    grad = _prob_grads(loss, prob_sum, loss.X, loss.y)[0]
    return grad, _hess(loss, weight_sum, diag)


def _reparam_moments(loss, lam, estimator) -> MomentEstimate:
    if estimator.count < 1:
        raise EstimatorUnsupported("Reparam needs count >= 1")
    if lam.fam.kind not in (ISOTROPIC, DIAG):
        raise EstimatorUnsupported("Reparam Hessian estimate needs a diagonal covariance")
    var = np.ones(lam.fam.dim) if lam.fam.kind == ISOTROPIC else 1.0 / lam.prec
    grad_sum = hess_sum = 0.0
    for chunk in _chunks(sample(lam, estimator.count, estimator.seed)):
        grads = _grads(loss, chunk)
        grad_sum = grad_sum + grads.sum(axis=0)
        hess_sum = hess_sum + np.sum(grads * (chunk - lam.m) / var, axis=0)
    return MomentEstimate(grad_sum / estimator.count, hess_sum / estimator.count)


def natural_gradient(loss: LossSpec, lam: NatParam, estimator: Estimator) -> DualVec:
    """Gradient of E_q[l] in expectation coordinates (ambient dual layout)."""
    mom = expected_moments(loss, lam, estimator)
    kind = lam.fam.kind
    # The moments are fresh arrays, so the blocks are wrapped, not copied.
    if kind in (ISOTROPIC, FIXED):
        return _wrap(DualVec, lam.fam, mom.g)
    if kind == DIAG:
        return _wrap(DualVec, lam.fam, mom.g - mom.h * lam.m, 0.5 * mom.h)
    # The T-linear losses' Hessians are exactly symmetric (``Quadratic``'s A is
    # averaged with its transpose, ``LinearInT``'s is -2 c.b2); a logistic
    # Hessian from a matrix product is not symmetric bit for bit, and is
    # averaged as the public constructor would.
    half = 0.5 * mom.h
    if not isinstance(loss, (Quadratic, LinearInT)):
        half = _symmetrize(half, None)
    return _wrap(DualVec, lam.fam, mom.g - mom.h @ lam.m, half)


def conjugate_coefficient(loss: Quadratic | LinearInT, fam: Family) -> DualVec:
    """Represent a T-linear loss as l = -<c, T>; raises when not representable."""
    if isinstance(loss, LinearInT):
        if loss.c.fam != fam:
            raise FamilyMismatch("LinearInT coefficient family differs from target family")
        return loss.c
    if not isinstance(loss, Quadratic):
        raise EstimatorUnsupported(f"{type(loss).__name__} is not linear in T")
    if fam.kind == FULL:
        # A is exactly symmetric, so the fresh blocks need no copy or check.
        return _wrap(DualVec, fam, -loss.b, -0.5 * loss.A)
    if fam.kind == DIAG:
        off = loss.A - np.diag(np.diag(loss.A))
        if float(np.max(np.abs(off))) > 1e-12 * max(1.0, float(np.max(np.abs(loss.A)))):
            raise EstimatorUnsupported("quadratic with off-diagonal A is not T-linear for diag")
        return DualVec(fam, -loss.b, -0.5 * np.diag(loss.A))
    if float(np.max(np.abs(loss.A))) > 0.0:
        raise EstimatorUnsupported("quadratic term is not T-linear for a fixed-covariance family")
    return DualVec(fam, -loss.b)
