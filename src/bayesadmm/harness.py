"""Data generation and ingestion, heterogeneous splits, oracles, and metrics.

Oracles here are deliberately independent of the round engines: the conjugate
oracle is plain dense linear algebra, and the full-batch reference runs a
single-client natural-gradient loop.  Engine convergence claims are always
measured against one of these.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    EmptyClient,
    NonPositivePrecision,
    ReferenceNotConverged,
    SingularSystem,
    TruncatedFile,
)
from .families import (
    Array,
    Family,
    NatParam,
    _chol_solve_rows,
    chol_spd,
    dual_axpy,
    dual_inf_norm,
    dual_scale,
    dual_sum,
    kl as kl_div,
    nat_sub,
    sample,
)
from .losses import (
    Delta,
    Estimator,
    Logistic,
    LossSpec,
    MulticlassLogistic,
    Quadratic,
    _chunks,
    _probs,
    _rows,
    natural_gradient,
    scale_loss,
)

# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus labels; ``n_classes`` is 0 for regression targets."""

    X: Array
    y: Array
    n_classes: int = 0

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise DimensionMismatch("X must be (n, d) with a matching label vector")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y.astype(float)))):
            raise DimensionMismatch("dataset contains non-finite entries")
        if self.n_classes:
            yi = y.astype(int)
            if yi.min(initial=0) < 0 or yi.max(initial=0) >= self.n_classes:
                raise DimensionMismatch("labels outside the declared class range")
            y = yi
        else:
            y = y.astype(float)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, idx: Array) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], self.n_classes)


def append_bias(ds: Dataset) -> Dataset:
    """Append a constant-one column so linear classifiers carry a bias."""
    ones = np.ones((ds.n, 1))
    return Dataset(np.hstack([ds.X, ones]), ds.y, ds.n_classes)


def gen_ridge(n: int, d: int, noise_sd: float, seed: int) -> Dataset:
    """Linear-regression data y = X w + noise with standard-normal features."""
    if n < 1 or d < 1:
        raise DimensionMismatch("need n, d >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = x @ w + noise_sd * rng.standard_normal(n)
    return Dataset(x, y)


def gen_blobs(
    n_per_class: int,
    n_classes: int = 10,
    d: int = 2,
    spread: float = 0.35,
    radius: float = 2.0,
    center: float = 0.0,
    seed: int = 0,
) -> Dataset:
    """Seeded Gaussian blobs on a circle (d=2) or random layout for d > 2.

    ``center`` shifts all features by a constant, which makes them share a
    dominant positive direction the way pixel data does.
    """
    rng = np.random.default_rng(seed)
    if d == 2:
        angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
        centers = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        centers = radius * rng.standard_normal((n_classes, d))
    xs, ys = [], []
    for c in range(n_classes):
        xs.append(center + centers[c] + spread * rng.standard_normal((n_per_class, d)))
        ys.append(np.full(n_per_class, c))
    return Dataset(np.vstack(xs), np.concatenate(ys), n_classes)


@dataclass(frozen=True)
class OutlierToy:
    """Two-client linearly separable toy with one flipped point on client 1."""

    data: Dataset  # bias already appended
    client_indices: tuple[Array, Array]
    outlier_index: int

    def test_indices(self) -> Array:
        """All points except the outlier."""
        return np.array([i for i in range(self.data.n) if i != self.outlier_index])


def gen_outlier_toy(seed: int = 0, n_per_cluster: int = 4) -> OutlierToy:
    """Two small clusters, one per client, plus a single mislabeled point.

    Cluster 0 (label 0) lives on client 1 together with the outlier, a
    label-1 point planted near the cluster-0 side of the gap, where it drags
    the local fit across the margin for several rounds of slow dual repair.
    """
    rng = np.random.default_rng(seed)
    c0 = np.array([-0.5, 0.0])
    c1 = np.array([0.5, 0.0])
    x0 = c0 + 0.25 * rng.standard_normal((n_per_cluster, 2))
    x1 = c1 + 0.25 * rng.standard_normal((n_per_cluster, 2))
    outlier = np.array([-0.4, 0.0])
    x = np.vstack([x0, x1, outlier[None, :]])
    y = np.concatenate([np.zeros(n_per_cluster), np.ones(n_per_cluster), [1.0]])
    ds = append_bias(Dataset(x, y, n_classes=2))
    out_idx = 2 * n_per_cluster
    client1 = np.concatenate([np.arange(n_per_cluster), [out_idx]])
    client2 = np.arange(n_per_cluster, 2 * n_per_cluster)
    return OutlierToy(ds, (client1, client2), out_idx)


# ---------------------------------------------------------------------------
# IDX ingestion
# ---------------------------------------------------------------------------

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_exact(fh, count: int, path: str):
    buf = fh.read(count)
    if len(buf) != count:
        raise TruncatedFile(f"{path}: expected {count} more bytes, got {len(buf)}")
    return buf


def load_idx(images_path: str, labels_path: str, limit: int | None = None) -> Dataset:
    """Load an IDX image/label pair; pixels scaled to [0, 1], truncation from the front."""
    if limit is not None and limit < 1:
        raise EmptyClient("limit must be >= 1 when given")
    with open(images_path, "rb") as fh:
        (magic,) = struct.unpack(">I", _read_exact(fh, 4, images_path))
        if magic != _IDX_IMAGES_MAGIC:
            raise BadMagic(f"{images_path}: magic 0x{magic:08x} at offset 0, want 0x{_IDX_IMAGES_MAGIC:08x}")
        count, rows, cols = struct.unpack(">III", _read_exact(fh, 12, images_path))
        take = count if limit is None else min(limit, count)
        raw = _read_exact(fh, take * rows * cols, images_path)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(take, rows * cols)
    with open(labels_path, "rb") as fh:
        (magic,) = struct.unpack(">I", _read_exact(fh, 4, labels_path))
        if magic != _IDX_LABELS_MAGIC:
            raise BadMagic(f"{labels_path}: magic 0x{magic:08x} at offset 0, want 0x{_IDX_LABELS_MAGIC:08x}")
        (label_count,) = struct.unpack(">I", _read_exact(fh, 4, labels_path))
        if label_count != count:
            raise DimensionMismatch(f"{labels_path}: {label_count} labels for {count} images")
        labels = np.frombuffer(_read_exact(fh, take, labels_path), dtype=np.uint8)
    return Dataset(images.astype(float) / 255.0, labels.astype(int), n_classes=10)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitPlan:
    """How to shard a dataset over K clients.

    kind 'homogeneous': seeded shuffle, near-equal shards.
    kind 'class_partition': ``assignments`` lists the classes per client.
    kind 'dirichlet': per-class client proportions drawn from Dir(concentration).
    """

    kind: str
    K: int
    seed: int = 0
    assignments: tuple[tuple[int, ...], ...] | None = None
    concentration: float = 1.0

    def __post_init__(self):
        if self.kind not in ("homogeneous", "class_partition", "dirichlet"):
            raise ValueError(f"unknown split kind {self.kind!r}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.kind == "class_partition":
            if self.assignments is None or len(self.assignments) != self.K:
                raise ValueError("class_partition needs one class tuple per client")


def split_indices(ds: Dataset, plan: SplitPlan) -> list[Array]:
    """Index partition backing :func:`split`; disjoint and covering by construction."""
    n = ds.n
    if plan.kind == "homogeneous":
        rng = np.random.default_rng(plan.seed)
        perm = rng.permutation(n)
        parts = np.array_split(perm, plan.K)
    elif plan.kind == "class_partition":
        listed = [c for group in plan.assignments for c in group]
        if sorted(listed) != sorted(set(listed)):
            raise ValueError("class_partition assigns a class to two clients")
        parts = [
            np.flatnonzero(np.isin(ds.y, group)) for group in plan.assignments
        ]
        covered = np.concatenate(parts) if parts else np.array([], dtype=int)
        if covered.size != n:
            raise EmptyClient("class_partition leaves some examples unassigned")
    else:  # dirichlet
        if not ds.n_classes:
            raise DimensionMismatch("dirichlet split needs class labels")
        rng = np.random.default_rng(plan.seed)
        buckets: list[list[int]] = [[] for _ in range(plan.K)]
        for c in range(ds.n_classes):
            idx = np.flatnonzero(ds.y == c)
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(plan.K, plan.concentration))
            counts = np.floor(props * idx.size).astype(int)
            # hand out the remainder to the largest proportions
            for j in np.argsort(-props)[: idx.size - counts.sum()]:
                counts[j] += 1
            start = 0
            for k in range(plan.K):
                buckets[k].extend(idx[start : start + counts[k]])
                start += counts[k]
        parts = [np.sort(np.array(b, dtype=int)) for b in buckets]
    for k, part in enumerate(parts):
        if part.size == 0:
            raise EmptyClient(f"client {k} received no data")
    return [np.asarray(p, dtype=int) for p in parts]


def split(ds: Dataset, plan: SplitPlan) -> list[Dataset]:
    return [ds.subset(idx) for idx in split_indices(ds, plan)]


# ---------------------------------------------------------------------------
# loss builders
# ---------------------------------------------------------------------------


def ridge_losses(shards: list[Dataset]) -> list[Quadratic]:
    """0.5 ||X theta - y||^2 per shard, as quadratics."""
    return [Quadratic(s.X.T @ s.X, -(s.X.T @ s.y), s.n) for s in shards]


def classification_losses(shards: list[Dataset], n_classes: int) -> list[LossSpec]:
    if n_classes == 2:
        return [Logistic(s.X, s.y.astype(float)) for s in shards]
    return [MulticlassLogistic(s.X, s.y, n_classes) for s in shards]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleSolution:
    kind: str  # 'conjugate' | 'reference'
    lam: NatParam
    residual: float = 0.0


def conjugate_oracle(delta: float, shards: list[Dataset]) -> OracleSolution:
    """Exact ridge posterior S* = delta I + sum X^T X, S* m* = sum X^T y."""
    if delta <= 0:
        raise SingularSystem("prior precision delta must be > 0")
    if not shards:
        raise SingularSystem("need at least one (possibly empty) shard")
    d = shards[0].d
    prec = delta * np.eye(d)
    rhs = np.zeros(d)
    for s in shards:
        prec = prec + s.X.T @ s.X
        rhs = rhs + s.X.T @ s.y
    try:
        low = chol_spd(prec)
    except NonPositivePrecision as exc:
        raise SingularSystem(f"posterior precision not positive definite: {exc}") from exc
    lam = NatParam(Family.full(d), _chol_solve_rows(low[None], rhs[None])[0], prec, _chol=low)
    return OracleSolution("conjugate", lam=lam)


def reference_solution(
    losses: list[LossSpec],
    prior: NatParam,
    estimator: Estimator | None = None,
    tau: float = 1.0,
    beta: float = 0.5,
    steps: int = 5000,
    tol: float = 1e-8,
) -> OracleSolution:
    """Full-batch natural-gradient run to convergence on the joint objective.

    Iterates lam <- (1 - beta) lam + beta (eta_0 - sum_k grad_mu E_q[l_k/tau])
    from the prior; refuses to serve as an oracle unless the stationarity
    residual drops below ``tol``.
    """
    estimator = estimator or Delta()
    eta0 = prior.as_dual()
    lam = prior
    tempered = [scale_loss(l, tau) for l in losses]
    residual = np.inf
    for _ in range(steps):
        total = dual_sum([natural_gradient(l, lam, estimator) for l in tempered])
        target = dual_axpy(-1.0, total, eta0)  # eta0 - sum ng
        residual = dual_inf_norm(dual_axpy(-1.0, target, lam.as_dual()))
        if residual <= tol:
            break
        step = beta
        for _ in range(11):
            try:
                lam = NatParam.from_dual(
                    dual_axpy(step, target, dual_scale(1.0 - step, lam.as_dual()))
                )
                break
            except NonPositivePrecision:
                step *= 0.5
        else:
            raise ReferenceNotConverged("reference iterate left the family")
    if residual > tol:
        raise ReferenceNotConverged(
            f"reference stationarity residual {residual:.3e} above tol {tol:.1e}"
        )
    return OracleSolution("reference", lam=lam, residual=float(residual))


# ---------------------------------------------------------------------------
# prediction and metrics
# ---------------------------------------------------------------------------


def predict_proba(theta: Array, ds: Dataset) -> Array:
    """Class probabilities (n, C) for a flat parameter vector."""
    return _batch_proba(np.asarray(theta, dtype=float)[None], ds)[0].T


def _batch_proba(thetas: Array, ds: Dataset) -> Array:
    """Class probabilities (S, C, n) at each row of ``thetas``, from the losses' kernel."""
    probs = _probs(_rows(classification_losses([ds], ds.n_classes)[0]), thetas[None])[0]
    return np.stack([1.0 - probs, probs], axis=1) if ds.n_classes == 2 else probs


def nll_accuracy(probs: Array, ds: Dataset) -> tuple[float, float]:
    """Mean per-example negative log likelihood and accuracy.

    A numerically-zero predicted probability for a true label gives an
    infinite NLL on purpose: that is a reportable divergence signal.
    """
    idx = np.arange(ds.n)
    picked = probs[idx, ds.y.astype(int)]
    with np.errstate(divide="ignore"):
        nll = float(-np.mean(np.log(picked)))
    acc = float(np.mean(np.argmax(probs, axis=1) == ds.y.astype(int)))
    return nll, acc


def posterior_average_proba(lam: NatParam, ds: Dataset, count: int = 32, seed: int = 0) -> Array:
    total = 0.0
    for chunk in _chunks(sample(lam, count, seed)):
        total = total + _batch_proba(chunk, ds).sum(axis=0)
    return total.T / count


def metrics(
    server,
    oracle: OracleSolution | None = None,
    test: Dataset | None = None,
    pred_samples: int = 32,
    seed: int = 0,
) -> dict:
    """Pure metric record for the current server state; raw values, no smoothing."""
    out: dict = {}
    lam_g = getattr(server, "lam_g", None)
    theta_g = getattr(server, "theta_g", None)
    mean = lam_g.m if lam_g is not None else theta_g
    if oracle is not None:
        if lam_g is not None and oracle.lam.fam == lam_g.fam:
            out["dist_to_oracle"] = dual_inf_norm(nat_sub(lam_g, oracle.lam))
            out["kl_to_oracle"] = kl_div(lam_g, oracle.lam)
        else:
            out["dist_to_oracle"] = float(np.max(np.abs(mean - oracle.lam.m)))
    if test is not None and test.n_classes:
        probs = predict_proba(mean, test)
        nll, acc = nll_accuracy(probs, test)
        out["nll_mean"] = nll
        out["acc_mean"] = acc
        if lam_g is not None:
            avg = posterior_average_proba(lam_g, test, pred_samples, seed)
            nll_p, acc_p = nll_accuracy(avg, test)
            out["nll_post"] = nll_p
            out["acc_post"] = acc_p
    elif test is not None:
        resid = test.X @ mean - test.y
        out["mse"] = float(np.mean(resid * resid))
    return out
