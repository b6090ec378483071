"""The worker processes of a run's IVON solves: outputs, errors and lifetimes.

A run forks its workers at the first round with two IVON clients, one per
usable CPU, so the tests that need a fork skip on a one-CPU box.  Only the
kill test starts a run in a subprocess (:func:`run_cli`); the others fork
from the test's own process.
"""

import json
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import bayesadmm
import bayesadmm.cli as cli
from bayesadmm import errors, federation
from bayesadmm.families import Family, NatParam
from bayesadmm.federation import InnerConfig, MethodConfig, init_bayes_states, seed_for
from bayesadmm.losses import Quadratic
from bayesadmm.solvers import IvonConfig

from test_cli import BLOBS_INI, IVON_BLOWUP_INI, write

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bayesadmm.__file__)))
CPUS = sorted(os.sched_getaffinity(0))
forks = pytest.mark.skipif(len(CPUS) < 2, reason="a run forks workers only on two or more usable CPUs")

IVON_INI = BLOBS_INI.replace("method = bayes_admm", "method = ivon_admm").replace("k = 2", "k = 4")

# ``bayesadmm run`` with the arguments from argv[3] on, after running argv[2] as Python source (a
# patch, or "").  It appends to the file argv[1] "fork <pid>" for each process it forks and
# "thread <name>" for each thread it starts.
RUN = """
import os, sys, threading
import bayesadmm.cli as cli

log, fork, start = open(sys.argv[1], "a"), os.fork, threading.Thread.start

def recording_fork():
    pid = fork()
    if pid:
        print("fork", pid, file=log, flush=True)
    return pid

def recording_start(thread):
    print("thread", thread.name, file=log, flush=True)
    start(thread)

os.fork, threading.Thread.start = recording_fork, recording_start
exec(sys.argv[2])
sys.exit(cli.main(sys.argv[3:]))
"""


def run_cli(tmp_path, text, patch="", **popen):
    """A started ``bayesadmm run`` of ``text`` under ``tmp_path``: the process, its log and its output directory."""
    log, out = tmp_path / "log", tmp_path / "out"
    cmd = [sys.executable, "-c", RUN, str(log), patch, "run", "--config", write(tmp_path, "run.ini", text),
           "--out", str(out)]
    proc = subprocess.Popen(cmd, env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, **popen)
    return proc, log, out


def logged(log, kind: str) -> list[str]:
    """The pids (``kind`` "fork") or thread names ("thread") a :func:`run_cli` run has logged."""
    lines = log.read_text().splitlines() if log.exists() else []
    return [line.split(" ", 1)[1] for line in lines if line.startswith(kind + " ")]


def finished(proc) -> tuple[int, bytes]:
    _, err = proc.communicate(timeout=300)
    return proc.returncode, err


def alive(pid: int) -> bool:
    """Whether ``pid`` runs: a zombie has ended, whoever reaps it."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def still_alive(pids: list[int], seconds: float = 5.0) -> list[int]:
    """The pids still running after up to ``seconds``."""
    deadline = time.monotonic() + seconds
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if alive(pid)]


# ---------------------------------------------------------------------------
# no process outlives a run
# ---------------------------------------------------------------------------


# The calling thread creates the file {path} before the second round's engine and then waits, with
# every worker idle: the first round's checks may run beside it.
STALL = """
import time
from bayesadmm import federation

engine = federation.ROUND_ENGINES["ivon_admm"]

def stalled(server, clients, cfg, rnd, base_seed):
    if rnd == 1:
        open({path!r}, "w").close()
        time.sleep(600)
    return engine(server, clients, cfg, rnd, base_seed)

federation.ROUND_ENGINES["ivon_admm"] = stalled
"""


@forks
@pytest.mark.parametrize("when", ["mid-round", "between rounds"])
def test_no_worker_outlives_a_killed_run(tmp_path, when):
    # Busy workers end when their result finds no reader; idle ones when their task pipe ends.
    text = IVON_INI.replace("rounds = 2", "rounds = 500").replace("ivon_steps = 20", "ivon_steps = 2000")
    stall = tmp_path / "stalled"
    proc, log, _ = run_cli(tmp_path, text, STALL.format(path=str(stall)) if when == "between rounds" else "")
    try:
        deadline = time.monotonic() + 60
        while len(logged(log, "fork")) < min(len(CPUS), 4) or (when == "between rounds" and not stall.exists()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        time.sleep(0.2)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    workers = [int(pid) for pid in logged(log, "fork")]
    try:
        assert workers and still_alive(workers) == []
    finally:
        for pid in still_alive(workers, 0.0):
            os.kill(pid, signal.SIGKILL)


@forks
@pytest.mark.parametrize("ending", ["completes", "diverges", "fails", "is interrupted"])
def test_run_rounds_reaps_its_workers_on_every_way_out(tmp_path, monkeypatch, forked, ending):
    errors_before = np.geterr()
    # Round 1's NonFiniteMetric makes the run's exit code 2.
    text, code = (IVON_BLOWUP_INI.replace("rounds = 20", "rounds = 2"), 2) if ending == "diverges" else (IVON_INI, 0)
    if ending == "fails":
        solve_ivon, code = federation.solve_ivon, 1

        def failing(loss, prior, loss_scale, v, u, cfg):
            if cfg.seed == seed_for(1, 1, 0):
                raise ValueError("client 0 fails in round 1")
            return solve_ivon(loss, prior, loss_scale, v, u, cfg)

        monkeypatch.setattr(federation, "solve_ivon", failing)
    if ending == "is interrupted":
        metrics = cli.metrics
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return metrics(*args, **kwargs)

        monkeypatch.setattr(cli, "metrics", interrupted)
    run = ["run", "--config", write(tmp_path, "run.ini", text), "--out", str(tmp_path / "out")]
    if ending == "is interrupted":
        with pytest.raises(KeyboardInterrupt):
            cli.main(run)
    else:
        assert cli.main(run) == code
    assert forked and not any(alive(pid) for pid in forked)
    assert federation._pool.get() is None and np.geterr() == errors_before


def test_a_round_outside_run_rounds_solves_in_process(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a round outside run_rounds forked"))
    fam = Family.diag(2)
    prior = NatParam(fam, np.zeros(2), np.ones(2))
    losses = [Quadratic(np.diag([0.1, 0.2 * k]), np.ones(2), 5) for k in range(1, 4)]
    server, clients = init_bayes_states(prior, losses, [5, 5, 5], rho=1.0)
    cfg = MethodConfig("ivon_admm", inner=InnerConfig(solver="ivon", ivon=IvonConfig(steps=5)))
    assert federation.ivon_admm_round(server, clients, cfg, 0) == {"inner_converged": True}


# ---------------------------------------------------------------------------
# errors cross the process boundary intact
# ---------------------------------------------------------------------------


def package_errors(cls=errors.BayesAdmmError):
    yield cls
    for sub in cls.__subclasses__():
        yield from package_errors(sub)


@pytest.mark.parametrize("cls", sorted(set(package_errors()), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_every_package_error_pickles_with_its_type_message_and_fields(cls):
    if cls is errors.NonFiniteUpdate:
        error = cls("client 3 went non-finite", mean=np.array([1.0, -2.0]), precision=np.array([0.5, 4.0]))
    else:
        error = cls(f"{cls.__name__} message")
    back = pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    assert type(back) is cls and str(back) == str(error) and back.args == error.args
    assert back.__dict__.keys() == error.__dict__.keys()
    for key, value in error.__dict__.items():
        assert np.array_equal(getattr(back, key), value)
    assert cls is not errors.NonFiniteUpdate or back.mean is not None and back.precision is not None


@forks
def test_a_pooled_round_raises_its_lowest_failing_clients_error(tmp_path, monkeypatch, capsys):
    # Client 1 fails after client 3 has failed, and its error is the one the round raises.
    solve_ivon = federation.solve_ivon

    def failing(loss, prior, loss_scale, v, u, cfg):
        if cfg.seed == seed_for(1, 0, 1):
            time.sleep(0.5)
            raise errors.DegenerateMoment(f"client 1 in {os.getpid()}")
        if cfg.seed == seed_for(1, 0, 3):
            raise errors.PrecisionEscape("client 3")
        return solve_ivon(loss, prior, loss_scale, v, u, cfg)

    monkeypatch.setattr(federation, "solve_ivon", failing)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write(tmp_path, "run.ini", IVON_INI), "--out", str(out)]) == 1
    event = json.loads((out / "summary.json").read_text())["event"]
    assert event["reason"] == "DegenerateMoment" and event["round"] == 0
    assert event["detail"].startswith("client 1 in ") and event["detail"] != f"client 1 in {os.getpid()}"
    # The error arrives without the worker's traceback, and chained to nothing.
    err = capsys.readouterr().err
    assert err.count("Traceback") == 1 and "direct cause" not in err and "During handling" not in err
    assert err.endswith(f"error: round 0 round: DegenerateMoment: {event['detail']}\n")


@forks
@pytest.mark.parametrize("when", ["mid-task", "between rounds"])
def test_a_worker_that_dies_fails_the_run_instead_of_hanging(tmp_path, monkeypatch, forked, when):
    if when == "mid-task":
        solve_ivon, parent, rnd = federation.solve_ivon, os.getpid(), 0

        def dying(loss, prior, loss_scale, v, u, cfg):
            if cfg.seed == seed_for(1, 0, 2) and os.getpid() != parent:
                os._exit(1)
            return solve_ivon(loss, prior, loss_scale, v, u, cfg)

        monkeypatch.setattr(federation, "solve_ivon", dying)
    else:
        engine, rnd = federation.ROUND_ENGINES["ivon_admm"], 1

        def killing(server, clients, cfg, rnd, base_seed):
            # Before round 1 sends its first task, a worker is killed and left unreaped.
            if rnd == 1:
                os.kill(forked[0], signal.SIGKILL)
                assert still_alive(forked[:1]) == []
            return engine(server, clients, cfg, rnd, base_seed)

        monkeypatch.setitem(federation.ROUND_ENGINES, "ivon_admm", killing)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write(tmp_path, "run.ini", IVON_INI), "--out", str(out)]) == 1
    event = json.loads((out / "summary.json").read_text())["event"]
    assert event["reason"] == "ChildProcessError" and event["round"] == rnd
    assert re.fullmatch(r"IVON worker \d+ ended without a result", event["detail"])


# ---------------------------------------------------------------------------
# a run's pool is its own, and forked only in a process with one thread
# ---------------------------------------------------------------------------


def test_runs_in_two_threads_each_close_their_own_pool():
    # Run "first" enters run_rounds before run "second", and returns while "second" still runs.
    show = warnings.showwarning
    first_in, second_in, returned, failures = threading.Event(), threading.Event(), threading.Event(), {}

    def metrics(mine, other):
        def record(server, clients):
            mine.set()
            if not other.wait(30):
                raise TimeoutError("the other run did not get there")
            return {}
        return record

    def run(name, metrics_fn):
        fam = Family.diag(2)
        prior = NatParam(fam, np.zeros(2), np.ones(2))
        losses = [Quadratic(np.diag([0.5, 0.2 * k]), np.ones(2), 5) for k in range(1, 4)]
        server, clients = init_bayes_states(prior, losses, [5, 5, 5], rho=1.0)
        try:
            result = federation.run_rounds(server, clients, MethodConfig("bayes_admm"), 2, metrics_fn=metrics_fn)
            if result.error is not None:
                failures[name] = result.error
        except Exception as exc:
            failures[name] = exc
        finally:
            if name == "first":
                returned.set()

    first = threading.Thread(target=run, args=("first", metrics(first_in, second_in)))
    first.start()
    assert first_in.wait(30)
    second = threading.Thread(target=run, args=("second", metrics(second_in, returned)))
    second.start()
    first.join()
    second.join()
    assert failures == {}
    assert warnings.showwarning is show


@forks
def test_a_run_forks_only_while_it_has_one_thread(tmp_path, monkeypatch):
    counts, fork = [], os.fork  # the number of Python threads at each fork

    def recording():
        threads = threading.active_count()
        pid = fork()
        if pid:
            counts.append(threads)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    text = write(tmp_path, "run.ini", IVON_INI)
    assert cli.main(["run", "--config", text, "--out", str(tmp_path / "alone")]) == 0
    assert counts == [1] * min(len(CPUS), 4)
    counts.clear()
    # A second thread is alive for the whole run: its IVON solves stay in-process.
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(60,))
    other.start()
    try:
        assert cli.main(["run", "--config", text, "--out", str(tmp_path / "beside")]) == 0
    finally:
        done.set()
        other.join()
    assert counts == []
    assert (tmp_path / "alone" / "trace.jsonl").read_bytes() == (tmp_path / "beside" / "trace.jsonl").read_bytes()
