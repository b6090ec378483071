"""The benchmark's workloads: config text, generated inputs and output checks.

Every workload runs ``bayesadmm run`` with ``workers = 1``.  All of its seeds
(data, test set, split, experiment) derive from the one workload seed, so the
same seed gives the same inputs and, through the CLI's own determinism, the
same ``trace.jsonl``.
"""

from __future__ import annotations

import json
import os
import random
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

CLASS_PAIRS = "0,1|2,3|4,5|6,7|8,9"

# Rounds per repeat keep one repeat at about 3 to 9 s on a 2.1 GHz core, so a
# run of the benchmark gathers several repeats, and put about half or more of
# each repeat inside run_rounds.
FULL_LOGREG_ROUNDS = 12
RIDGE_WIDE_ROUNDS = 24
IVON_MNIST_ROUNDS = 8
IDX_PER_CLASS = 200
IDX_COUNT = 10 * IDX_PER_CLASS


def derived_seeds(seed: int) -> dict[str, int]:
    """Data, test, split and experiment seeds from the one workload seed."""
    rng = random.Random(seed)
    return {name: rng.randrange(2**31) for name in ("data", "test", "split", "experiment")}


def _full_logreg_config(seeds: dict[str, int], inputs: str) -> str:
    return f"""\
[experiment]
method = bayes_admm
family = full
rounds = {FULL_LOGREG_ROUNDS}
seed = {seeds["experiment"]}
workers = 1

[data]
kind = blobs
n_per_class = 100
classes = 10
d = 2
spread = 0.6
radius = 2.0
center = 4.0
seed = {seeds["data"]}
test_seed = {seeds["test"]}
test_n = 50

[split]
kind = class_partition
assignments = {CLASS_PAIRS}

[hyper]
rho = 1.0
delta = 1.0

[inner]
solver = von
estimator = delta
steps = 30
beta = 0.5
tol = 1e-8
"""


def _ridge_wide_config(seeds: dict[str, int], inputs: str) -> str:
    return f"""\
[experiment]
method = bayes_admm
family = full
rounds = {RIDGE_WIDE_ROUNDS}
seed = {seeds["experiment"]}
workers = 1

[data]
kind = ridge
n = 6000
d = 200
noise_sd = 0.3
seed = {seeds["data"]}

[split]
kind = homogeneous
k = 10
seed = {seeds["split"]}

[hyper]
rho = 0.1
delta = 1.0

[inner]
solver = auto
"""


def _ivon_mnist_config(seeds: dict[str, int], inputs: str) -> str:
    images = os.path.join(inputs, "train-images-idx3-ubyte")
    labels = os.path.join(inputs, "train-labels-idx1-ubyte")
    return f"""\
[experiment]
method = ivon_admm
family = diag
rounds = {IVON_MNIST_ROUNDS}
seed = {seeds["experiment"]}
workers = 1

[data]
kind = mnist
images = {images}
labels = {labels}
limit = {IDX_COUNT}

[split]
kind = class_partition
assignments = {CLASS_PAIRS}

[hyper]
rho = 1.0
delta = 1.0

[inner]
ivon_steps = 200
ivon_lr = 0.1
ivon_batch = 32
"""


# ---------------------------------------------------------------------------
# generated IDX input
# ---------------------------------------------------------------------------


def write_idx(directory: str, seed: int, gen_blobs) -> None:
    """Write an MNIST-shaped IDX image/label pair from ``gen_blobs(d=784)``.

    Features are quantized to uint8 around mid-grey, so ``load_idx`` reads
    them back as pixels in [0, 1].  ``gen_blobs`` is passed in by the caller,
    which imports it from the checkout under test.
    """
    ds = gen_blobs(IDX_PER_CLASS, 10, d=784, spread=1.0, radius=1.0, seed=seed)
    pixels = np.clip(np.rint(128.0 + 40.0 * ds.X), 0, 255).astype(np.uint8)
    with open(os.path.join(directory, "train-images-idx3-ubyte"), "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, ds.n, 28, 28))
        fh.write(pixels.tobytes())
    with open(os.path.join(directory, "train-labels-idx1-ubyte"), "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, ds.n))
        fh.write(ds.y.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def read_outputs(out_dir: str) -> tuple[dict, list[dict]]:
    """The run's summary and its per-round trace records."""
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "trace.jsonl")) as fh:
        rounds = [rec for rec in map(json.loads, fh) if rec.get("type") == "round"]
    return summary, rounds


def _check_full_logreg(summary: dict, rounds: list[dict]) -> str | None:
    if summary["rounds_completed"] != FULL_LOGREG_ROUNDS:
        return f"completed {summary['rounds_completed']} of {FULL_LOGREG_ROUNDS} rounds"
    if summary["diverged"] or summary["event"] is not None:
        return f"divergence event {summary['event']}"
    first, last = rounds[0]["nll_mean"], rounds[-1]["nll_mean"]
    if not last < first:
        return f"final nll_mean {last} is not below round 0's {first}"
    return None


def _check_ridge_wide(summary: dict, rounds: list[dict]) -> str | None:
    if summary["rounds_to_tol"] != 1:
        return f"rounds_to_tol is {summary['rounds_to_tol']}, the one-round claim needs 1"
    return None


def _check_ivon_mnist(summary: dict, rounds: list[dict]) -> str | None:
    if summary["diverged"] or summary["event"] is not None:
        return f"divergence event {summary['event']}"
    if len(rounds) != IVON_MNIST_ROUNDS:
        return f"completed {len(rounds)} of {IVON_MNIST_ROUNDS} rounds"
    first, last = rounds[0]["residual_consensus"], rounds[-1]["residual_consensus"]
    if not last < first:
        return f"last residual_consensus {last} is not below the first round's {first}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[dict, str], str]
    check: Callable[[dict, list], "str | None"]
    needs_idx: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("full_logreg", _full_logreg_config, _check_full_logreg),
        Workload("ridge_wide", _ridge_wide_config, _check_ridge_wide),
        Workload("ivon_mnist", _ivon_mnist_config, _check_ivon_mnist, needs_idx=True),
    )
}
