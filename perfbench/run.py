"""Benchmark of ``bayesadmm run``: end-to-end metrics, and per-layer metrics from a traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload full_logreg --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --compare parent.log [change.log]
    python3 -m pytest perfbench/test_spans.py

A run generates the workload's inputs from ``--seed``, then starts
``bayesadmm run`` in fresh interpreters (``child.py``), one repeat after
another, as long as the next repeat should end within ``--seconds`` and at
least ``MIN_REPEATS`` times.  Each repeat's outputs are checked, and its
``trace.jsonl`` must be byte-identical to the first repeat's.  ``wall_s`` is
the mean over the repeats and ``round_ms`` the time in ``run_rounds`` over the
rounds, both summed over all repeats; the host's speed drifts by tens of
percent for seconds to minutes at a time, and a mean over the whole run
averages that drift where a median of a few repeats picks one side of it.
Other values are medians over the repeats.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics: self times and counts from spans around every layer's
public functions (``spans.py``), and ``trace.overhead_frac``, the traced
``wall_s`` over the untraced one, minus 1.

stdout ends with a record line ``{"perfbench": {...}}`` (workload, seed,
environment, per-repeat samples) and then the result line the contract asks
for.  ``--compare`` reads logs made of such stdout, one or more runs each.
With one log it prints each end-to-end metric's median and quartile spread
per workload; with two it prints parent -> change per workload and metric.

The child's BLAS and OpenMP pools are pinned to one thread and the CLI runs
with ``workers = 1``, so the program uses at most two threads on any box.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

MIN_REPEATS = 3
CHILD_TIMEOUT_S = 90.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "threads_env": {k: os.environ[k] for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# one repeat
# ---------------------------------------------------------------------------


class Runner:
    """Runs repeats of one workload and seed inside a private work directory."""

    def __init__(self, workload, work: str):
        self.workload = workload
        self.work = work
        self.config = os.path.join(work, "config.ini")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.trace_digest: str | None = None
        self.count = 0

    def prepare(self, seed: int) -> None:
        from workloads import derived_seeds, write_idx

        seeds = derived_seeds(seed)
        inputs = os.path.join(self.work, "inputs")
        os.makedirs(inputs)
        if self.workload.needs_idx:
            from bayesadmm.harness import gen_blobs

            write_idx(inputs, seeds["data"], gen_blobs)
        with open(self.config, "w") as fh:
            fh.write(self.workload.config(seeds, inputs))
        # Compile the package's bytecode once, so no timed repeat pays for it.
        subprocess.run([sys.executable, "-c", "import bayesadmm.cli"],
                       env=self.env, cwd=self.work, check=True)

    def repeat(self, trace: bool) -> tuple[dict | None, str | None]:
        """One fresh-process run; returns (samples, failure reason)."""
        self.count += 1
        out = os.path.join(self.work, f"run-{self.count}")
        stamps_path = os.path.join(self.work, f"stamps-{self.count}.json")
        log_path = os.path.join(self.work, f"log-{self.count}.txt")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), stamps_path, SRC,
               "1" if trace else "0", "run", "--config", self.config, "--out", out]
        with open(log_path, "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            samples, failure = self._measure(out, stamps_path, start, end, usage,
                                             proc.returncode, trace)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            samples, failure = None, f"unreadable outputs: {type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if failure is not None:
            with open(log_path) as log:
                failure += "\n" + "".join(log.readlines()[-5:])
        return samples, failure

    def _measure(self, out, stamps_path, start, end, usage, code, trace):
        if code != 0:
            return None, f"exit code {code}"
        from workloads import read_outputs

        with open(stamps_path) as fh:
            stamps = json.load(fh)
        summary, rounds = read_outputs(out)
        with open(os.path.join(out, "trace.jsonl"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        failure = self.workload.check(summary, rounds)
        if failure is None:
            if self.trace_digest is None:
                self.trace_digest = digest
            elif digest != self.trace_digest:
                failure = "trace.jsonl differs from the first repeat's"
        done = summary["rounds_completed"]
        samples = {
            "wall_s": end - start,
            "setup_s": stamps["rounds_entry"] - start,
            "rounds_s": stamps["rounds_exit"] - stamps["rounds_entry"],
            "rounds_done": done,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "checkpoint_mb": os.path.getsize(os.path.join(out, "checkpoint.json")) / 1e6,
        }
        if trace:
            from spans import reduce_spans

            samples.update(reduce_spans(
                [tuple(row) for row in stamps["spans"]],
                import_s=stamps["import_end"] - stamps["import_start"],
                write_s=stamps["main_end"] - stamps["rounds_exit"],
            ))
        return samples, failure


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------


def median_of(samples: list[dict], name: str) -> float:
    return statistics.median(s[name] for s in samples)


def pooled_round_ms(samples: list[dict]) -> float:
    """Time inside ``run_rounds`` over the rounds completed, summed over all repeats."""
    rounds = sum(s["rounds_done"] for s in samples)
    return 1e3 * sum(s["rounds_s"] for s in samples) / max(rounds, 1)


def run(args, spec: dict) -> int:
    if not os.path.isfile(os.path.join(SRC, "bayesadmm", "cli.py")):
        print(f"no bayesadmm sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK)
    load_before = os.getloadavg()
    untraced, traced, failures, attempted = [], [], [], 0
    try:
        runner = Runner(workload, work)
        runner.prepare(args.seed)
        modes = (False, True) if args.trace else (False,)
        least = 1 if args.trace else MIN_REPEATS
        began = time.monotonic()
        cycles: list[float] = []
        while True:
            cycle_start = time.monotonic()
            for trace in modes:
                attempted += 1
                samples, failure = runner.repeat(trace)
                if failure is not None:
                    failures.append(failure)
                    print(f"{workload.name} seed {args.seed} repeat {runner.count}: {failure}",
                          file=sys.stderr)
                if samples is None:
                    break
                (traced if trace else untraced).append(samples)
            if samples is None:
                break
            cycles.append(time.monotonic() - cycle_start)
            # Start another cycle only if it should end within --seconds.
            elapsed = time.monotonic() - began
            if len(cycles) >= least and elapsed + statistics.median(cycles) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()

    metrics = {}
    if untraced and (traced or not args.trace):
        for metric in spec["per_layer" if args.trace else "end_to_end"]:
            name = metric["name"]
            if name == "trace.overhead_frac":
                value = median_of(traced, "wall_s") / median_of(untraced, "wall_s") - 1.0
            elif name == "round_ms":
                value = pooled_round_ms(untraced)
            elif name == "wall_s":
                value = statistics.fmean(s["wall_s"] for s in untraced)
            else:
                value = median_of(traced if args.trace else untraced, name)
            metrics[name] = {"value": value, "unit": metric["unit"]}
    failed = len(failures)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "env": environment(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "failed_frac": failed / attempted,
        "failures": failures,
        "samples": {"untraced": untraced, "traced": traced},
    }
    for name, metric in metrics.items():
        print(f"{workload.name:12s} {name:40s} {metric['value']:14.6g} {metric['unit']}",
              file=sys.stderr)
    print(f"{workload.name:12s} {'failed_frac':40s} {record['failed_frac']:14.6g} ratio",
          file=sys.stderr)
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def read_log(path: str) -> dict:
    """{(workload, trace): [(record, result), ...]} from a log of benchmark stdout."""
    runs: dict = {}
    record = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "perfbench" in obj:
                record = obj["perfbench"]
            elif "metrics" in obj and record is not None:
                runs.setdefault((record["workload"], record["trace"]), []).append((record, obj))
                record = None
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def compare(paths: list[str], spec: dict) -> int:
    logs = [read_log(p) for p in paths]
    workloads = sorted({w for log in logs for (w, t) in log if t == 0})
    for workload in workloads:
        sides = [log.get((workload, 0), []) for log in logs]
        for metric in spec["end_to_end"]:
            name, bound, unit = metric["name"], metric["bound"], metric["unit"]
            values = [[res["metrics"][name]["value"] for _, res in side if name in res["metrics"]]
                      for side in sides]
            if not all(values):
                print(f"{workload:12s} {name:14s} missing")
                continue
            stats = [spread(v) for v in values]
            if len(sides) == 1:
                (med, sp), = stats
                state = "steady" if sp <= bound / 3 else ("within bound" if sp <= bound else "too wide")
                print(f"{workload:12s} {name:14s} {med:12.6g} {unit:6s} spread {sp:6.3f} "
                      f"bound {bound:.3f} n={len(values[0])} {state}")
                continue
            (pm, ps), (cm, cs) = stats
            lower_better = metric["better"] == "lower"
            worse = (cm - pm) / pm if lower_better else (pm - cm) / pm
            all_better = all((c < p) if lower_better else (c > p)
                             for c in values[1] for p in values[0])
            if ps > bound or cs > bound:
                verdict = "better in every run" if all_better else "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif worse < 0 and all_better:
                verdict = "better in every run"
            else:
                verdict = "within bound"
            print(f"{workload:12s} {name:14s} {pm:12.6g} -> {cm:12.6g} {unit:6s} "
                  f"ratio {cm / pm:6.3f} of parent {pm:.6g} "
                  f"(spread {ps:.3f}/{cs:.3f}, bound {bound:.3f}) {verdict}")
        counts = [(sum(r["attempted"] for _, r in side), sum(r["failed"] for _, r in side))
                  for side in sides]
        fracs = " -> ".join(f"{f}/{a}" for a, f in counts)
        print(f"{workload:12s} {'failed_frac':14s} {fracs}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs="+", metavar="LOG",
                        help="parent log, optionally followed by a change log")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
    except OSError as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two logs")
        return compare(args.compare, spec)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
