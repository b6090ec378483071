"""Client losses: analytic calculus, expected moments under Gaussian q, natural gradients.

Expected gradients/Hessians feed the natural-gradient identity

    grad_mu E_q[l] = (g - H m, H/2),   g = E_q[grad l],  H = E_q[hess l],

with the second block dropped for the isotropic family (where the
expectation coordinate is just the mean and the natural gradient is ``g``).
Temperature enters by dividing the data loss, never the linear dual terms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, EstimatorUnsupported, FamilyMismatch
from .families import (
    DIAG,
    FULL,
    ISOTROPIC,
    Array,
    DualVec,
    Family,
    NatParam,
    _exactly_symmetric,
    _second_shape,
    _symmetrize,
    _wrap,
    pair_with_stat,
    sample,
)

# Draws per batch in the sampled estimators: bounds their temporaries to a
# few DRAW_CHUNK * n * C floats.
DRAW_CHUNK = 4096

# Largest data, n * d floats, of a loss that NaturalGradients stacks.  A stack
# copies its members' rows and makes K-fold temporaries, and it pays only
# while the per-call overhead it saves outweighs the arithmetic: at 2^14
# floats a client's logits alone are C * 2^14 multiply-adds.
STACK_MAX = 1 << 14


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
    logits = _logits(_rows(loss), theta[None, None])[0, 0]
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
    batch = _Rows(loss, loss.X[rows][None], loss.y[rows][None], loss.scale)
    return _prob_grads(batch, _probs(batch, theta[None, None]))[0, 0]


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
    rows = _rows(loss)
    probs = _probs(rows, theta[None, None])
    return _hess(rows, _weight_sum(rows, probs, diag_only), diag_only)[0]


# The logistic kernels below work on K clients' losses at once, each at a batch
# of S parameter rows, so a lockstep solver makes one product per step for all
# its clients and the sampled estimators one per chunk of draws.  A single loss
# at a single point is the stack of one at the batch of one.  The data rows
# come in a :class:`_Rows` apart from the loss, so a minibatch needs no loss of
# its own.


class _Rows(NamedTuple):
    """Data rows of K logistic losses of one kind, class count and data shape.

    ``x`` is (K, n, d) and ``y`` (K, n).  ``loss`` is the first of the K and
    supplies the kind and the class count; ``scale`` is a float or a
    (K, 1, 1) array.  ``outer`` stacks the losses' :func:`_outer` for a full
    multiclass Hessian; a stack of one may leave it to its loss.
    """

    loss: Logistic | MulticlassLogistic
    x: Array
    y: Array
    scale: float | Array
    outer: Array | None = None


def _rows(loss: Logistic | MulticlassLogistic) -> _Rows:
    """A loss's own data rows as the stack of one."""
    return _Rows(loss, loss.X[None], loss.y[None], loss.scale)


def _stack_rows(losses: list, full: bool) -> _Rows:
    """The rows of several losses of one kind, class count and data shape, stacked.

    The outer products, n d^2 floats a loss, are stacked only for ``full`` Hessians.
    """
    first = losses[0]
    outer = None
    if full and isinstance(first, MulticlassLogistic):
        outer = np.stack([_outer(loss) for loss in losses])
    return _Rows(first, np.stack([loss.X for loss in losses]), np.stack([loss.y for loss in losses]),
                 np.array([loss.scale for loss in losses])[:, None, None], outer)


def _outer(loss: MulticlassLogistic) -> Array:
    """The rows' outer products ``x x^T``, shape ``(n, d^2)``, made once and kept on the loss."""
    outer = loss._outer
    if outer is None:
        n, d = loss.X.shape
        outer = (loss.X[:, :, None] * loss.X[:, None, :]).reshape(n, d * d)
        outer.setflags(write=False)
        object.__setattr__(loss, "_outer", outer)
    return outer


def _logits(rows: _Rows, thetas: Array) -> Array:
    """Logits at each client's rows of ``thetas`` (K, S, dim): (K, S, n) binary, (K, S, C, n) multiclass."""
    xt = rows.x.transpose(0, 2, 1)
    if isinstance(rows.loss, Logistic):
        return thetas @ xt
    k, n, d = rows.x.shape
    return (thetas.reshape(k, -1, d) @ xt).reshape(k, -1, rows.loss.n_classes, n)


def _probs(rows: _Rows, thetas: Array) -> Array:
    """Predicted probabilities, shaped like :func:`_logits`.

    Works in place: fresh temporaries of this size cost more than the arithmetic.
    """
    logits = _logits(rows, thetas)
    if isinstance(rows.loss, Logistic):
        return _special().expit(logits, out=logits)
    logits -= logits.max(axis=2, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=2, keepdims=True)
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
    rows = _rows(loss)
    return _prob_grads(rows, _probs(rows, thetas[None]))[0]


def _prob_grads(rows: _Rows, probs: Array) -> Array:
    """Gradients (K, S, dim) from predicted probabilities on ``rows``; linear in ``probs``."""
    x, y = rows.x, rows.y
    k, n, _ = x.shape
    if isinstance(rows.loss, Logistic):
        return (probs - y[:, None]) @ x / rows.scale
    # Subtracting the labels' one-hot rows takes 1.0 at each label and 0.0, which changes no bit, elsewhere.
    labels = y[:, None, :] == np.arange(rows.loss.n_classes)[:, None]
    grads = (probs - labels[:, None]).reshape(k, -1, n) @ x  # (K, S*C, d), class-major
    return grads.reshape(k, probs.shape[1], rows.loss.dim) / rows.scale


def _weight_sum(rows: _Rows, probs: Array, diag_only: bool) -> Array:
    """Per-example Hessian weights summed over each client's S rows of ``probs``.

    Binary: p(1-p), shape (K, n).  Multiclass: diag(p) - p p^T, shape
    (K, C, C, n), or only its diagonal p(1-p), shape (K, C, n), when
    ``diag_only``.  No entry is -0.0: ``0.0 - p p^T`` keeps the sign of a
    zero product positive.
    """
    if isinstance(rows.loss, Logistic) or diag_only:
        return np.sum(probs * (1.0 - probs), axis=1)
    if probs.shape[1] == 1:  # the same products as the sum over one draw, made faster
        weights = probs[:, 0, :, None, :] * probs[:, 0, None, :, :]
    else:
        weights = np.einsum("ksai,ksbi->kabi", probs, probs)
    np.subtract(0.0, weights, out=weights)
    k, c, _, n = weights.shape
    # Every (c + 1)-th of the C^2 weight rows is one on the diagonal.
    weights.reshape(k, c * c, n)[:, :: c + 1] += probs.sum(axis=1)
    return weights


def _hess(rows: _Rows, weights: Array, diag_only: bool) -> Array:
    """Hessians sum_i weights_i (x) x_i x_i^T / scale from :func:`_weight_sum`'s weights, (K, ...)."""
    x = rows.x
    if isinstance(rows.loss, Logistic):
        if diag_only:
            return ((x * x).transpose(0, 2, 1) @ weights[..., None] / rows.scale)[..., 0]
        return x.transpose(0, 2, 1) @ (x * weights[..., None]) / rows.scale
    k = len(x)
    if diag_only:
        return (weights @ (x * x) / rows.scale).reshape(k, -1)
    # H[(a,e),(b,f)] = sum_i w[a,b,i] x[i,e] x[i,f]: one (C^2, n) @ (n, d^2) product per client.
    n, d = x.shape[1:]
    c = rows.loss.n_classes
    outer = _outer(rows.loss)[None] if rows.outer is None else rows.outer
    hess = (weights.reshape(k, c * c, n) @ outer / rows.scale).reshape(k, c, c, d, d)
    return hess.transpose(0, 1, 3, 2, 4).reshape(k, c * d, c * d)


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
    """Consecutive blocks of at most ``DRAW_CHUNK`` draws along the draw axis, the last but one."""
    return (thetas[..., i : i + DRAW_CHUNK, :] for i in range(0, thetas.shape[-2], DRAW_CHUNK))


def _mean_moments(loss: LossSpec, thetas: Array, diag: bool) -> tuple[Array, Array]:
    """Mean gradient and Hessian over the rows of ``thetas``."""
    if isinstance(loss, (Quadratic, LinearInT)):
        # Per-sample grad is affine in theta and the Hessian is constant,
        # so the sample average collapses onto the mean draw.
        return loss_grad(loss, thetas.mean(axis=0)), loss_hess(loss, thetas[0], diag_only=diag)
    grad, hess = _logistic_moments(_rows(loss), thetas[None], diag)
    return grad[0], hess[0]


def _logistic_moments(rows: _Rows, thetas: Array, diag: bool) -> tuple[Array, Array]:
    """Each client's mean gradient and Hessian over its S draws in ``thetas`` (K, S, dim).

    The logistic gradient is linear in the predicted probabilities and the
    Hessian in the per-example weights, so both come from the sums of those:
    one softmax per draw, one Hessian product in all.  One draw is its own
    mean: neither its probabilities nor its weights hold a -0.0, so
    ``(0.0 + s) / 1`` would give back ``s`` bit for bit, and is skipped.
    """
    count = thetas.shape[1]
    prob_sum = weight_sum = 0.0
    for chunk in _chunks(thetas):
        probs = _probs(rows, chunk)
        if count == 1:
            prob_sum, weight_sum = probs, _weight_sum(rows, probs, diag)
            break
        prob_sum = prob_sum + probs.sum(axis=1)
        weight_sum = weight_sum + _weight_sum(rows, probs, diag)
    else:
        prob_sum, weight_sum = prob_sum[:, None] / count, weight_sum / count
    return _prob_grads(rows, prob_sum)[:, 0], _hess(rows, weight_sum, diag)


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
    """Gradient of E_q[l] in expectation coordinates (ambient dual layout): :class:`NaturalGradients` of one."""
    return NaturalGradients([loss], [estimator], lam.fam).duals([lam])[0]


def _natural_rows(kind: str, g: Array, h: Array, m: Array, logistic: bool) -> tuple[Array, Array | None]:
    """Natural-gradient blocks of each client from its moments ``g``, ``h`` at its mean ``m``, stacked.

    The T-linear losses' Hessians are exactly symmetric (``Quadratic``'s A is
    averaged with its transpose, ``LinearInT``'s is -2 c.b2); a logistic full
    Hessian from a matrix product may not be symmetric bit for bit, and each
    client's that is not is averaged as the public constructor would.
    """
    if kind == ISOTROPIC:
        return g, None
    if kind == DIAG:
        return g - h * m, 0.5 * h
    half = 0.5 * h
    if logistic:
        for k in np.flatnonzero(~_exactly_symmetric(half)):
            half[k] = _symmetrize(half[k], None)
    return g - (h @ m[..., None])[..., 0], half


class NaturalGradients:
    """Natural gradients of K losses, each at its own iterate, in one call.

    Logistic losses of one kind and data shape whose estimator evaluates at
    the mean (:class:`Delta`), with at most :data:`STACK_MAX` data floats,
    form one stack, and each kernel runs once for the whole stack; a larger
    one is a stack of one on its own rows, and any other loss goes alone
    through :func:`expected_moments`.  The stacks are built once, so a solver
    can call this at every step.  :meth:`blocks` returns stacked ambient
    blocks, :meth:`duals` one :class:`DualVec` per loss.  If some loss
    raises, the first of them in order raises.
    """

    def __init__(self, losses: list[LossSpec], estimators: list[Estimator], fam: Family):
        self.fam, self.losses, self.estimators = fam, list(losses), list(estimators)
        stacks: dict = {}
        self._alone = []
        for i, (loss, est) in enumerate(zip(self.losses, self.estimators)):
            if isinstance(est, Delta) and isinstance(loss, (Logistic, MulticlassLogistic)) and loss.dim == fam.dim:
                stacks.setdefault((type(loss), loss.X.shape) if loss.X.size <= STACK_MAX else i, []).append(i)
            else:
                self._alone.append(i)
        full = fam.kind == FULL
        self._stacks = [(idx, _rows(self.losses[idx[0]]) if len(idx) == 1 else
                         _stack_rows([self.losses[i] for i in idx], full)) for idx in stacks.values()]

    def _pieces(self, lams: list[NatParam], means: Array | None) -> list:
        """``(positions, b1, b2)`` per stack, and per lone loss as a stack of one."""
        if self._stacks and means is None:
            means = np.stack([lam.m for lam in lams])
        whole = len(self._stacks) == 1 and not self._alone
        pieces = [(idx, *delta_natural_rows(rows, means if whole else means[idx], self.fam.kind))
                  for idx, rows in self._stacks]
        for i in self._alone:
            mom = expected_moments(self.losses[i], lams[i], self.estimators[i])
            logistic = not isinstance(self.losses[i], (Quadratic, LinearInT))
            pieces.append(([i], *_natural_rows(self.fam.kind, mom.g[None], None if mom.h is None else mom.h[None],
                                               lams[i].m[None], logistic)))
        return pieces

    def blocks(self, lams: list[NatParam], means: Array | None = None) -> tuple[Array, Array | None]:
        """Stacked (K, dim) and (K, ...) blocks, ``None`` for the second where ``fam`` has none.

        ``means``, where given, is the ``lams``' means stacked.
        """
        pieces = self._pieces(lams, means)
        if len(pieces) == 1:
            return pieces[0][1:]
        shape = _second_shape(self.fam)
        b1 = np.empty((len(lams), self.fam.dim))
        b2 = None if shape is None else np.empty((len(lams), *shape))
        for idx, n1, n2 in pieces:
            b1[idx] = n1
            if b2 is not None:
                b2[idx] = n2
        return b1, b2

    def duals(self, lams: list[NatParam]) -> list[DualVec]:
        """One natural gradient per loss, each wrapping its rows of the stacked blocks."""
        out: list = [None] * len(lams)
        for idx, n1, n2 in self._pieces(lams, None):
            for row, i in enumerate(idx):
                out[i] = _wrap(DualVec, self.fam, n1[row], None if n2 is None else n2[row])
        return out


def delta_natural_rows(rows: _Rows, m: Array, kind: str) -> tuple[Array, Array | None]:
    """Natural-gradient blocks of K stacked logistic losses, each at its mean in ``m`` (K, dim).

    The delta method, as :func:`expected_moments` with :class:`Delta` makes it
    for each loss alone, bit for bit; the isotropic family's natural
    gradient is the gradient alone, so it skips the Hessian.
    """
    if kind == ISOTROPIC:
        return _prob_grads(rows, _probs(rows, m[:, None]))[:, 0], None
    g, h = _logistic_moments(rows, m[:, None], kind == DIAG)
    return _natural_rows(kind, g, h, m, True)


def in_conjugate_form(loss: LossSpec, fam: Family) -> bool:
    """Whether :func:`conjugate_coefficient` represents ``loss`` in ``fam`` rather than raising."""
    if isinstance(loss, LinearInT):
        return loss.c.fam == fam
    if not isinstance(loss, Quadratic) or fam.kind == FULL:
        return isinstance(loss, Quadratic)
    if fam.kind == DIAG:
        off = loss.A - np.diag(np.diag(loss.A))
        return not float(np.max(np.abs(off))) > 1e-12 * max(1.0, float(np.max(np.abs(loss.A))))
    return not float(np.max(np.abs(loss.A))) > 0.0


def conjugate_coefficient(loss: Quadratic | LinearInT, fam: Family) -> DualVec:
    """Represent a T-linear loss as l = -<c, T>; raises where :func:`in_conjugate_form` is false."""
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
        if not in_conjugate_form(loss, fam):
            raise EstimatorUnsupported("quadratic with off-diagonal A is not T-linear for diag")
        return DualVec(fam, -loss.b, -0.5 * np.diag(loss.A))
    if not in_conjugate_form(loss, fam):
        raise EstimatorUnsupported("quadratic term is not T-linear for a fixed-covariance family")
    return DualVec(fam, -loss.b)
