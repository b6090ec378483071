import re
import struct

import numpy as np
import pytest
from scipy.stats import chisquare

from bayesadmm.errors import (
    BadMagic,
    DimensionMismatch,
    EmptyClient,
    ReferenceNotConverged,
    SingularSystem,
    TruncatedFile,
)
from bayesadmm import losses
from bayesadmm.families import Family, NatParam, sample
from bayesadmm.federation import (
    ServerState,
    init_bayes_states,
    verify_fixed_point,
)
from bayesadmm.harness import (
    Dataset,
    SplitPlan,
    append_bias,
    classification_losses,
    conjugate_oracle,
    gen_blobs,
    gen_outlier_toy,
    gen_ridge,
    load_idx,
    metrics,
    nll_accuracy,
    posterior_average_proba,
    predict_proba,
    reference_solution,
    ridge_losses,
    split,
    split_indices,
)
from bayesadmm.losses import Delta, Logistic, conjugate_coefficient


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_gen_ridge_deterministic():
    a = gen_ridge(20, 3, 0.1, seed=7)
    b = gen_ridge(20, 3, 0.1, seed=7)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_gen_ridge_noise_free_is_exactly_linear():
    ds = gen_ridge(30, 4, 0.0, seed=1)
    oracle = conjugate_oracle(1e-10, [ds])
    assert np.max(np.abs(ds.X @ oracle.lam.m - ds.y)) < 1e-6


def test_outlier_toy_has_exactly_one_inconsistent_label():
    toy = gen_outlier_toy(seed=0)
    ds = toy.data
    oi = toy.outlier_index
    n = oi // 2
    # generating clusters carry their labels, except for the planted point
    assert np.all(ds.y[:n] == 0) and np.all(ds.y[n : 2 * n] == 1)
    assert ds.y[oi] == 1
    c0 = ds.X[:n].mean(axis=0)
    c1 = ds.X[n : 2 * n].mean(axis=0)
    out = ds.X[oi]
    assert np.linalg.norm(out - c0) < np.linalg.norm(out - c1)


def test_outlier_toy_deterministic():
    a = gen_outlier_toy(seed=3)
    b = gen_outlier_toy(seed=3)
    assert np.array_equal(a.data.X, b.data.X)


def test_gen_blobs_layout():
    ds = gen_blobs(5, n_classes=4, d=2, center=4.0, seed=0)
    assert ds.n == 20 and ds.n_classes == 4
    assert ds.X.mean() > 2.0  # shifted into the positive quadrant


# ---------------------------------------------------------------------------
# IDX files
# ---------------------------------------------------------------------------


def write_idx_pair(tmp_path, labels, rows=2, cols=2, image_magic=0x00000803, label_magic=0x00000801, truncate=False):
    n = len(labels)
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(n, rows * cols), dtype=np.uint8)
    img_path = tmp_path / "images-idx3-ubyte"
    lab_path = tmp_path / "labels-idx1-ubyte"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, n, rows, cols))
        payload = pixels.tobytes()
        fh.write(payload[:-3] if truncate else payload)
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", label_magic, n))
        fh.write(bytes(labels))
    return str(img_path), str(lab_path), pixels


def test_load_idx_roundtrip_and_first_label(tmp_path):
    labels = [5, 0, 4, 1, 9]
    img, lab, pixels = write_idx_pair(tmp_path, labels)
    ds = load_idx(img, lab)
    assert ds.n == 5 and ds.d == 4 and ds.n_classes == 10
    assert int(ds.y[0]) == 5
    assert np.allclose(ds.X, pixels.astype(float) / 255.0)
    assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0


def test_load_idx_limit_truncates_from_front(tmp_path):
    img, lab, pixels = write_idx_pair(tmp_path, [5, 0, 4, 1, 9])
    ds = load_idx(img, lab, limit=2)
    assert ds.n == 2 and ds.y.tolist() == [5, 0]
    with pytest.raises(EmptyClient):
        load_idx(img, lab, limit=0)


def test_load_idx_bad_magic_names_offset(tmp_path):
    img, lab, _ = write_idx_pair(tmp_path, [1, 2], image_magic=0x12345678)
    with pytest.raises(BadMagic, match="offset 0"):
        load_idx(img, lab)


def test_load_idx_truncated(tmp_path):
    img, lab, _ = write_idx_pair(tmp_path, [1, 2, 3], truncate=True)
    with pytest.raises(TruncatedFile):
        load_idx(img, lab)


def test_load_idx_count_mismatch(tmp_path):
    img, _, _ = write_idx_pair(tmp_path, [1, 2, 3])
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    _, lab, _ = write_idx_pair(other_dir, [1, 2])
    with pytest.raises(DimensionMismatch):
        load_idx(img, lab)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_class_partition_places_whole_classes():
    ds = gen_blobs(10, n_classes=10, seed=2)
    plan = SplitPlan("class_partition", 5, assignments=tuple((2 * i, 2 * i + 1) for i in range(5)))
    shards = split(ds, plan)
    assert sorted(np.unique(shards[0].y).tolist()) == [0, 1]
    assert sorted(np.unique(shards[3].y).tolist()) == [6, 7]


def test_homogeneous_even_split():
    ds = gen_ridge(20, 2, 0.1, seed=0)
    shards = split(ds, SplitPlan("homogeneous", 4, seed=1))
    assert [s.n for s in shards] == [5, 5, 5, 5]


def test_split_is_a_partition():
    ds = gen_blobs(13, n_classes=4, seed=3)
    for plan in (
        SplitPlan("homogeneous", 3, seed=5),
        SplitPlan("dirichlet", 3, seed=5, concentration=0.5),
        SplitPlan("class_partition", 2, assignments=((0, 1), (2, 3))),
    ):
        parts = split_indices(ds, plan)
        merged = sorted(np.concatenate(parts).tolist())
        assert merged == list(range(ds.n))


def test_dirichlet_high_concentration_is_nearly_homogeneous():
    ds = gen_blobs(400, n_classes=4, seed=4)
    parts = split_indices(ds, SplitPlan("dirichlet", 4, seed=6, concentration=1e4))
    sizes = np.array([p.size for p in parts], dtype=float)
    stat, pvalue = chisquare(sizes)
    assert pvalue > 0.01  # indistinguishable from equal shares


def test_empty_client_raises():
    ds = gen_blobs(3, n_classes=2, seed=7)  # 6 points
    with pytest.raises(EmptyClient):
        split_indices(ds, SplitPlan("homogeneous", 8, seed=0))
    with pytest.raises(EmptyClient):
        split_indices(ds, SplitPlan("class_partition", 2, assignments=((0, 1), ())))


BLOBS3 = gen_blobs(3, n_classes=3, seed=7)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Dataset(np.ones(3), np.ones(3)), DimensionMismatch, "X must be (n, d) with a matching label vector"),
    (lambda: Dataset(np.ones((2, 1)), np.array([1.0, np.nan])), DimensionMismatch,
     "dataset contains non-finite entries"),
    (lambda: Dataset(np.ones((2, 1)), np.array([0, 2]), n_classes=2), DimensionMismatch,
     "labels outside the declared class range"),
    (lambda: gen_ridge(0, 2, 0.1, seed=0), DimensionMismatch, "need n, d >= 1"),
    (lambda: SplitPlan("random", 2), ValueError, "unknown split kind 'random'"),
    (lambda: SplitPlan("homogeneous", 0), ValueError, "K must be >= 1"),
    (lambda: SplitPlan("class_partition", 2, assignments=((0,),)), ValueError,
     "class_partition needs one class tuple per client"),
    (lambda: split_indices(BLOBS3, SplitPlan("class_partition", 2, assignments=((0, 1), (1, 2)))), ValueError,
     "class_partition assigns a class to two clients"),
    (lambda: split_indices(BLOBS3, SplitPlan("class_partition", 2, assignments=((0,), (1,)))), EmptyClient,
     "class_partition leaves some examples unassigned"),
    (lambda: split_indices(gen_ridge(6, 2, 0.1, seed=0), SplitPlan("dirichlet", 2)), DimensionMismatch,
     "dirichlet split needs class labels"),
], ids=["dataset-shape", "dataset-non-finite", "dataset-label-range", "ridge-size", "split-kind", "split-k",
        "partition-groups", "partition-class-twice", "partition-class-left-out", "dirichlet-regression"])
def test_a_dataset_or_split_off_its_layout_is_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_conjugate_oracle_prior_only():
    empty = Dataset(np.zeros((0, 3)), np.zeros(0))
    oracle = conjugate_oracle(2.0, [empty])
    assert np.allclose(oracle.lam.m, 0.0)
    assert np.allclose(oracle.lam.prec, 2.0 * np.eye(3))


def test_conjugate_oracle_shard_invariance():
    ds = gen_ridge(24, 3, 0.2, seed=9)
    whole = conjugate_oracle(1.0, [ds])
    shards = split(ds, SplitPlan("homogeneous", 3, seed=2))
    parts = conjugate_oracle(1.0, shards)
    assert np.allclose(whole.lam.m, parts.lam.m)
    assert np.allclose(whole.lam.prec, parts.lam.prec)


def test_conjugate_oracle_passes_fixed_point_check():
    ds = gen_ridge(30, 4, 0.3, seed=10)
    shards = split(ds, SplitPlan("homogeneous", 2, seed=3))
    oracle = conjugate_oracle(1.0, shards)
    losses = ridge_losses(shards)
    prior = NatParam(Family.full(4), np.zeros(4), np.eye(4))
    server, clients = init_bayes_states(prior, losses, [s.n for s in shards], rho=0.5)
    server.lam_g = oracle.lam
    for client, loss in zip(clients, losses):
        client.lam = oracle.lam
        c = conjugate_coefficient(loss, oracle.lam.fam)
        client.eta = c
    report = verify_fixed_point(server, clients)
    assert report.max_residual < 1e-11


def test_conjugate_oracle_rejects_bad_delta():
    with pytest.raises(SingularSystem):
        conjugate_oracle(0.0, [gen_ridge(5, 2, 0.1, seed=0)])


def test_conjugate_oracle_needs_a_shard():
    with pytest.raises(SingularSystem, match="need at least one"):
        conjugate_oracle(1.0, [])


def test_conjugate_oracle_of_a_precision_singular_in_floating_point_is_a_singular_system():
    # delta I + x x^T with x = (1, 1) rounds to the all-ones matrix, which has no Cholesky factor.
    with pytest.raises(SingularSystem, match="posterior precision not positive definite"):
        conjugate_oracle(1e-40, [Dataset(np.ones((1, 2)), np.zeros(1))])


def test_reference_solution_passes_own_check():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((30, 2))
    y = (rng.random(30) < 0.5).astype(float)
    losses = [Logistic(x[:15], y[:15]), Logistic(x[15:], y[15:])]
    prior = NatParam(Family.full(2), np.zeros(2), np.eye(2))
    ref = reference_solution(losses, prior)
    assert ref.residual < 1e-8
    server, clients = init_bayes_states(prior, losses, [15, 15], rho=1.0)
    server.lam_g = ref.lam
    for client, loss in zip(clients, losses):
        client.lam = ref.lam
        from bayesadmm.losses import natural_gradient
        from bayesadmm.families import dual_scale

        client.eta = dual_scale(-1.0, natural_gradient(loss, ref.lam, Delta()))
    assert verify_fixed_point(server, clients, estimator=Delta()).max_residual < 1e-7


def test_reference_solution_refuses_unconverged():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((30, 2))
    y = (rng.random(30) < 0.5).astype(float)
    prior = NatParam(Family.full(2), np.zeros(2), np.eye(2))
    with pytest.raises(ReferenceNotConverged):
        reference_solution([Logistic(x, y)], prior, steps=2)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_zero_at_oracle():
    ds = gen_ridge(20, 3, 0.2, seed=13)
    oracle = conjugate_oracle(1.0, [ds])
    server = ServerState(rho=1.0, K=1, fam=oracle.lam.fam, lam_g=oracle.lam,
                         eta0=oracle.lam.as_dual())
    record = metrics(server, oracle=oracle)
    assert record["dist_to_oracle"] == 0.0
    assert record["kl_to_oracle"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["point", "distribution"])
def test_metrics_on_a_regression_test_set_is_the_mean_squared_error(kind):
    test = gen_ridge(15, 3, 0.5, seed=16)
    m = np.array([0.5, -1.0, 2.0])
    fam = Family.isotropic(3)
    server = (ServerState(rho=1.0, K=1, theta_g=m) if kind == "point" else
              ServerState(rho=1.0, K=1, fam=fam, lam_g=NatParam(fam, m), eta0=NatParam(fam, m).as_dual()))
    resid = test.X @ m - test.y
    assert metrics(server, test=test) == {"mse": float(np.mean(resid * resid))}


def test_metrics_single_example_accuracy_binary():
    test = append_bias(Dataset(np.array([[1.0, 0.5]]), np.array([1.0]), n_classes=2))
    fam = Family.full(3)
    server = ServerState(rho=1.0, K=1, fam=fam,
                         lam_g=NatParam(fam, np.array([2.0, 0.0, 0.0]), np.eye(3)),
                         eta0=NatParam(fam, np.zeros(3), np.eye(3)).as_dual())
    record = metrics(server, test=test)
    assert record["acc_mean"] in (0.0, 1.0)
    assert "nll_post" in record and "acc_post" in record


def test_nll_infinite_when_probability_underflows():
    test = Dataset(np.array([[1.0]]), np.array([1.0]), n_classes=2)
    probs = predict_proba(np.array([-800.0]), test)
    nll, acc = nll_accuracy(probs, test)
    assert np.isinf(nll) and acc == 0.0


def test_posterior_average_recorded_alongside_point_nll():
    rng = np.random.default_rng(14)
    ds = append_bias(Dataset(rng.standard_normal((12, 2)), (rng.random(12) < 0.5).astype(float), 2))
    losses = classification_losses([ds], 2)
    prior = NatParam(Family.full(3), np.zeros(3), np.eye(3))
    ref = reference_solution(losses, prior)
    server, _ = init_bayes_states(prior, losses, [12], rho=1.0)
    server.lam_g = ref.lam
    record = metrics(server, test=ds, pred_samples=32, seed=0)
    assert np.isfinite(record["nll_mean"]) and np.isfinite(record["nll_post"])


@pytest.mark.parametrize("classes,count", [(2, 1), (2, 19), (4, 8), (4, 19)])
def test_batched_posterior_average_matches_per_draw_loop(monkeypatch, classes, count):
    monkeypatch.setattr(losses, "DRAW_CHUNK", 8)
    ds = gen_blobs(6, classes, d=2, seed=3)
    dim = ds.d if classes == 2 else classes * ds.d
    rng = np.random.default_rng(classes + count)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = NatParam(Family.full(dim), rng.standard_normal(dim), q @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q.T)
    got = posterior_average_proba(lam, ds, count, seed=5)
    want = np.mean([predict_proba(t, ds) for t in sample(lam, count, 5)], axis=0)
    assert got.shape == (ds.n, classes)
    assert np.max(np.abs(got - want)) <= 1e-12
