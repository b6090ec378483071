"""A round's checks on a helper thread beside the next round's engine.

With a second usable CPU, ``run_rounds`` runs round r's metrics and
verification while round r+1's engine runs, except in rounds that solve by
VON in lockstep.  Every output must be what checking each round before the
next gives: traces, summaries, checkpoints, exit codes and stderr.  The
subprocess tests pin the process to one CPU or let it use all of them; the
in-process ones set the CPU count the run sees, so they also run on a
one-CPU box.
"""

import json
import math
import os
import subprocess
import sys
import threading
import time

import pytest

import bayesadmm
import bayesadmm.cli as cli
from bayesadmm import federation
from bayesadmm.errors import ResultNotInFamily

from test_cli import BLOBS_INI, IVON_BLOWUP_INI, PROP2_INI, write
from test_workers import CPUS, alive, forks, workload_config

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bayesadmm.__file__)))
IVON_INI = BLOBS_INI.replace("method = bayes_admm", "method = ivon_admm").replace("k = 2", "k = 4")
OUTPUTS = ("trace.jsonl", "summary.json", "checkpoint.json")

# ``bayesadmm run`` that appends the name of each thread it starts to the file argv[1], after
# importing the modules named in argv[2] (comma-separated; "-" for none) from PYTHONPATH.
RUN = """
import sys, threading
import bayesadmm.cli as cli

log = open(sys.argv[1], "a")
start = threading.Thread.start

def recording_start(thread):
    log.write(thread.name + "\\n")
    log.flush()
    start(thread)

threading.Thread.start = recording_start
for name in filter(None, sys.argv[2].strip("-").split(",")):
    __import__(name)
sys.exit(cli.main(sys.argv[3:]))
"""


def run_on(tmp_path, text, cpus: str, patches: str = "-") -> tuple[int, bytes, list[bytes], list[str]]:
    """``bayesadmm run`` of ``text`` on one CPU or all: exit code, stderr, output files, threads started."""
    side = tmp_path / cpus
    side.mkdir()
    threads, out = side / "threads", side / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, str(tmp_path)]), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    one = (lambda: os.sched_setaffinity(0, CPUS[:1])) if cpus == "one" else None
    cmd = [sys.executable, "-c", RUN, str(threads), patches, "run", "--config",
           write(side, "run.ini", text), "--out", str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True, preexec_fn=one, timeout=300)
    files = [(out / name).read_bytes() for name in OUTPUTS]
    started = threads.read_text().split("\n")[:-1] if threads.exists() else []
    return proc.returncode, proc.stderr, files, started


def checks_threads(started: list[str]) -> int:
    return started.count("round checks")


# ---------------------------------------------------------------------------
# outputs do not depend on the number of CPUs
# ---------------------------------------------------------------------------


@forks
@pytest.mark.parametrize("case", ["ridge_wide", "BLOBS full", "IVON_BLOWUP"])
def test_outputs_do_not_depend_on_the_cpu_count(tmp_path, case):
    text, code, beside = {
        "ridge_wide": (workload_config(tmp_path, "ridge_wide"), 0, 24),
        # VON in lockstep: its checks stay on the calling thread.
        "BLOBS full": (BLOBS_INI.replace("family = diag", "family = full"), 0, 0),
        # A NonFiniteMetric divergence from round 1 on, and all 20 rounds run; the overflows of its
        # checks show no numpy warning.
        "IVON_BLOWUP": (IVON_BLOWUP_INI, 2, 20),
    }[case]
    one, every = (run_on(tmp_path, text, cpus) for cpus in ("one", "all"))
    assert one[0] == every[0] == code
    assert one[1] == every[1] and one[2] == every[2]
    assert checks_threads(one[3]) == 0 and checks_threads(every[3]) == beside
    assert b"RuntimeWarning" not in one[1] and b"RuntimeWarning" not in every[1]


# Forced into every pooled IVON solve before the fork: a numpy overflow, which the engine call's
# error state keeps quiet in-process and in every worker forked inside it.
FORCED_OVERFLOW = """
import numpy as np
from bayesadmm import federation

solve_ivon = federation.solve_ivon

def overflowing(loss, prior, loss_scale, v, u, cfg):
    np.float64(1e308) * np.float64(10.0)
    return solve_ivon(loss, prior, loss_scale, v, u, cfg)

federation.solve_ivon = overflowing
"""


@forks
def test_a_pooled_solves_warnings_show_as_they_do_in_process(tmp_path):
    (tmp_path / "forced_overflow.py").write_text(FORCED_OVERFLOW)
    one, every = (run_on(tmp_path, IVON_INI, cpus, "forced_overflow") for cpus in ("one", "all"))
    assert one[0] == every[0] == 0 and one[2] == every[2]
    assert one[1] == every[1]
    assert b"overflow encountered" not in every[1]


# ---------------------------------------------------------------------------
# how a run ends
# ---------------------------------------------------------------------------


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of usable CPUs the run sees, and count the checks it puts on a helper thread."""
    helpers = []

    class Counted(federation._Beside):
        def __init__(self, *args):
            helpers.append(self)
            super().__init__(*args)

    monkeypatch.setattr(federation, "_Beside", Counted)

    def set_cpus(count: int) -> list:
        monkeypatch.setattr(federation, "_usable_cpus", lambda: count)
        helpers.clear()
        return helpers

    return set_cpus


def run_in_process(tmp_path, name: str, text: str) -> tuple[int, dict, bytes]:
    out = tmp_path / name
    code = cli.main(["run", "--config", write(tmp_path, f"{name}.ini", text), "--out", str(out)])
    return code, json.loads((out / "summary.json").read_text()), (out / "checkpoint.json").read_bytes()


def test_a_failing_metric_ends_the_run_at_its_round_with_that_rounds_states(tmp_path, monkeypatch, cpus):
    # Round 1's metrics fail while round 2's engine runs: round 2 is discarded.
    metrics, calls = cli.metrics, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            time.sleep(0.2)
            raise ValueError("metric fails in round 1")
        return metrics(*args, **kwargs)

    monkeypatch.setattr(cli, "metrics", failing)
    text = IVON_INI.replace("rounds = 2", "rounds = 4")
    runs = {}
    for count in (1, 2):
        helpers = cpus(count)
        calls.clear()
        runs[count] = run_in_process(tmp_path, f"cpus-{count}", text)
        assert len(helpers) == (0 if count == 1 else 2)
    (code, summary, checkpoint), one = runs[2], runs[1]
    assert code == one[0] == 1
    event = summary["event"]
    assert (event["type"], event["round"], event["phase"], event["reason"]) == ("failure", 1, "metrics", "ValueError")
    assert summary == one[1] and summary["rounds_completed"] == 1
    assert json.loads(checkpoint)["rounds_completed"] == 2
    assert checkpoint == one[2]


def test_an_interrupted_engine_leaves_the_round_before_it_in_the_trace(tmp_path, monkeypatch, cpus):
    helpers = cpus(2)
    metrics, engine, started = cli.metrics, federation.ROUND_ENGINES["ivon_admm"], []
    start = federation._Pool.start

    def recording(pool, count):
        running = start(pool, count)
        started.extend(worker.pid for worker in pool.workers)
        return running

    def slow(*args, **kwargs):
        time.sleep(0.5)  # still checking round 0 when round 1's engine is interrupted
        return metrics(*args, **kwargs)

    def interrupted(server, clients, cfg, rnd, base_seed):
        if rnd == 1:
            raise KeyboardInterrupt
        return engine(server, clients, cfg, rnd, base_seed)

    monkeypatch.setattr(federation._Pool, "start", recording)
    monkeypatch.setattr(cli, "metrics", slow)
    monkeypatch.setitem(federation.ROUND_ENGINES, "ivon_admm", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", "--config", write(tmp_path, "run.ini", IVON_INI), "--out", str(out)])
    lines = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert [line["round"] for line in lines if line["type"] == "round"] == [0]
    assert len(helpers) == 1 and not any(t.name == "round checks" for t in threading.enumerate())
    assert started and not any(alive(pid) for pid in started) and federation._pool.get() is None


def test_a_divergence_after_a_non_finite_metric_is_preceded_by_it(tmp_path, monkeypatch, cpus):
    metrics, engine, calls = cli.metrics, federation.ROUND_ENGINES["bayes_admm"], []

    def non_finite(*args, **kwargs):
        calls.append(None)
        values = metrics(*args, **kwargs)
        return {**values, "dist_to_oracle": math.nan} if len(calls) == 1 else values

    def diverging(server, clients, cfg, rnd, base_seed):
        if rnd == 1:
            raise ResultNotInFamily("round 1 leaves the family")
        return engine(server, clients, cfg, rnd, base_seed)

    monkeypatch.setattr(cli, "metrics", non_finite)
    monkeypatch.setitem(federation.ROUND_ENGINES, "bayes_admm", diverging)
    summaries = []
    for count in (1, 2):
        helpers = cpus(count)
        calls.clear()
        code, summary, _ = run_in_process(tmp_path, f"cpus-{count}", PROP2_INI)
        assert code == 2 and len(helpers) == count - 1
        summaries.append(summary)
    event = summaries[1]["event"]
    assert (event["type"], event["round"], event["reason"]) == ("divergence", 1, "ResultNotInFamily")
    assert (event["preceded_by"]["round"], event["preceded_by"]["reason"]) == (0, "NonFiniteMetric")
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("case", ["VON in lockstep", "conjugate", "IVON", "admm"])
def test_only_rounds_outside_the_lockstep_check_beside_the_next(tmp_path, cpus, case):
    text = {
        "VON in lockstep": BLOBS_INI.replace("family = diag", "family = full"),
        "conjugate": PROP2_INI,
        "IVON": IVON_INI,
        "admm": PROP2_INI.replace("method = bayes_admm", "method = admm"),
    }[case]
    rounds = 2 if case in ("VON in lockstep", "IVON") else 3
    for count in (1, 2):
        helpers = cpus(count)
        code, summary, _ = run_in_process(tmp_path, f"cpus-{count}", text)
        assert code == 0 and summary["rounds_completed"] == rounds
        assert len(helpers) == (rounds if count == 2 and case != "VON in lockstep" else 0)
