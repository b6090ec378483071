"""A round's checks on a helper thread beside the next round's engine.

With a second usable CPU, ``run_rounds`` runs round r's metrics and
verification while round r+1's engine runs, except in rounds that solve by
VON in lockstep.  Every output must be what checking each round before the
next gives: traces, summaries, checkpoints, exit codes and stderr.  A run
reads its CPU count only from ``federation._usable_cpus``, so the tests set
it in-process, and run on a one-CPU box too; a subprocess is started only
to pin a run to one CPU, or to see a forked worker's stderr.
"""

import json
import math
import os
import sys
import threading
import time

import pytest

import bayesadmm.cli as cli
from bayesadmm import federation
from bayesadmm.errors import ResultNotInFamily
from bayesadmm.families import is_guessed

from test_cli import BLOBS_INI, IVON_BLOWUP_INI, PROP2_INI, write
from test_workers import CPUS, IVON_INI, alive, finished, forks, logged, run_cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
OUTPUTS = ("trace.jsonl", "summary.json", "checkpoint.json")


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


def run_in_process(tmp_path, name: str, text: str, *flags: str) -> tuple[int, dict, bytes]:
    """``bayesadmm run`` of ``text`` in this process, into ``tmp_path / name``: exit code, summary, checkpoint."""
    out = tmp_path / name
    code = cli.main(["run", "--config", write(tmp_path, f"{name}.ini", text), "--out", str(out), *flags])
    return code, json.loads((out / "summary.json").read_text()), (out / "checkpoint.json").read_bytes()


def outputs(out) -> list[bytes]:
    return [(out / name).read_bytes() for name in OUTPUTS]


def workload_config(tmp_path, name: str) -> str:
    """The benchmark's workload ``name`` at workload seed 1, the IDX inputs it reads written under ``tmp_path``."""
    sys.path.insert(0, PERFBENCH)
    try:
        from workloads import WORKLOADS, derived_seeds, write_idx
    finally:
        sys.path.remove(PERFBENCH)
    from bayesadmm.harness import gen_blobs

    workload, seeds = WORKLOADS[name], derived_seeds(1)
    if workload.needs_idx:
        write_idx(str(tmp_path), seeds["data"], gen_blobs)
    return workload.config(seeds, str(tmp_path))


# ---------------------------------------------------------------------------
# outputs do not depend on the number of CPUs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", ["ridge_wide", "BLOBS full", "IVON_BLOWUP", "BLOBS ivon_admm", "ivon_mnist",
                                  "full_logreg"])
def test_outputs_do_not_depend_on_the_cpu_count(tmp_path, capfd, recwarn, cpus, forked, case):
    # On two CPUs: the workers forked, and the rounds checked beside the next round's engine.
    text, flags, code, workers, beside = {
        "ridge_wide": (workload_config(tmp_path, "ridge_wide"), (), 0, 0, 24),
        # VON in lockstep: its checks stay on the calling thread.
        "BLOBS full": (BLOBS_INI.replace("family = diag", "family = full"), (), 0, 0, 0),
        # A NonFiniteMetric divergence from round 1 on, and all 20 rounds run; the overflows of its
        # checks show no numpy warning.
        "IVON_BLOWUP": (IVON_BLOWUP_INI, (), 2, 2, 20),
        "BLOBS ivon_admm": (IVON_INI, (), 0, 2, 2),
        # Five IVON clients queue on the two workers, and the second round takes them again.
        "ivon_mnist": (workload_config(tmp_path, "ivon_mnist"), ("--rounds", "2"), 0, 2, 2),
        "full_logreg": (workload_config(tmp_path, "full_logreg"), (), 0, 0, 0),
    }[case]
    sides = []
    for count in (1, 2):
        helpers = cpus(count)
        forked.clear()
        assert run_in_process(tmp_path, f"cpus-{count}", text, *flags)[0] == code
        sides.append((outputs(tmp_path / f"cpus-{count}"), capfd.readouterr().err, len(forked), len(helpers)))
    assert sides[0][:2] == sides[1][:2]
    assert sides[0][2:] == (0, 0) and sides[1][2:] == (workers, beside)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    trace, summary, checkpoint = sides[0][0]
    summary, checkpoint = json.loads(summary), json.loads(checkpoint)
    if case == "IVON_BLOWUP":
        # Client means reach about 6e7 at precisions near 800, where m*m + 1/s rounds to m*m, so the
        # verifier's dual maps must not take m*m back out of m2.  The checkpoint's guesses are made
        # on this blown-up state too, and the checks above see them warn nothing.
        event = summary["event"]
        assert summary["diverged"] and event["type"] == "divergence" and event["method"] == "ivon_admm"
        assert event["reason"] and isinstance(event["round"], int)
        assert len(checkpoint["clients"]) == 10
        rounds = [json.loads(line) for line in trace.decode().splitlines()[1:]]
        assert len(rounds) == summary["rounds_completed"] > event["round"]
    if case == "ivon_mnist":
        # 200 stochastic IVON steps leave each client's dual far from minus its natural gradient,
        # so every dual block is stored plain.
        blocks = [block for rec in checkpoint["clients"] for block in rec["eta"].values()]
        assert len(blocks) == 10 and not any(map(is_guessed, blocks))


def test_a_run_pinned_to_one_cpu_forks_nothing_and_checks_each_round_before_the_next(tmp_path, cpus):
    cpus(1)
    assert run_in_process(tmp_path, "in-process", IVON_INI)[0] == 0
    proc, log, out = run_cli(tmp_path, IVON_INI, preexec_fn=lambda: os.sched_setaffinity(0, CPUS[:1]))
    assert finished(proc)[0] == 0
    assert logged(log, "fork") == [] and "round checks" not in logged(log, "thread")
    assert outputs(out) == outputs(tmp_path / "in-process")


def test_the_usable_cpus_are_the_processs_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert federation._usable_cpus() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert federation._usable_cpus() == 3
    # macOS and Windows have no affinity set: one CPU.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert federation._usable_cpus() == 1


# Forced into every pooled IVON solve before the fork: a numpy overflow, which the engine call's
# error state keeps quiet in-process and in every worker forked inside it.  A forked worker's
# warning reaches stderr only outside pytest, whose warning capture the worker inherits.
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
    sides = []
    for cpus in ("one", "all"):
        (tmp_path / cpus).mkdir()
        one = (lambda: os.sched_setaffinity(0, CPUS[:1])) if cpus == "one" else None
        proc, log, out = run_cli(tmp_path / cpus, IVON_INI, FORCED_OVERFLOW, preexec_fn=one)
        sides.append((finished(proc), outputs(out), len(logged(log, "fork"))))
    assert sides[0][0] == sides[1][0] and sides[0][0][0] == 0 and sides[0][1] == sides[1][1]
    assert sides[0][2] == 0 and sides[1][2] == min(len(CPUS), 4)
    assert b"overflow encountered" not in sides[1][0][1]


# ---------------------------------------------------------------------------
# how a run ends
# ---------------------------------------------------------------------------


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


def test_an_interrupted_engine_leaves_the_round_before_it_in_the_trace(tmp_path, monkeypatch, cpus, forked):
    helpers = cpus(2)
    metrics, engine = cli.metrics, federation.ROUND_ENGINES["ivon_admm"]

    def slow(*args, **kwargs):
        time.sleep(0.5)  # still checking round 0 when round 1's engine is interrupted
        return metrics(*args, **kwargs)

    def interrupted(server, clients, cfg, rnd, base_seed):
        if rnd == 1:
            raise KeyboardInterrupt
        return engine(server, clients, cfg, rnd, base_seed)

    monkeypatch.setattr(cli, "metrics", slow)
    monkeypatch.setitem(federation.ROUND_ENGINES, "ivon_admm", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", "--config", write(tmp_path, "run.ini", IVON_INI), "--out", str(out)])
    lines = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert [line["round"] for line in lines if line["type"] == "round"] == [0]
    assert len(helpers) == 1 and not any(t.name == "round checks" for t in threading.enumerate())
    assert forked and not any(alive(pid) for pid in forked) and federation._pool.get() is None


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
