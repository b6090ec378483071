"""The worker processes of a run's IVON solves: outputs, errors and lifetimes.

A run forks its workers at the first round with two IVON clients, one per
usable CPU, so the tests that need a fork skip on a one-CPU box.
"""

import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time

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
PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")
CPUS = sorted(os.sched_getaffinity(0))
forks = pytest.mark.skipif(len(CPUS) < 2, reason="a run forks workers only on two or more usable CPUs")

IVON_INI = BLOBS_INI.replace("method = bayes_admm", "method = ivon_admm").replace("k = 2", "k = 4")

# ``bayesadmm run`` that appends each pid it forks to the file argv[1] as it forks it.  When
# argv[2] is not "-", the calling thread creates that file before the second round's engine and
# then waits forever, with every worker idle: the first round's checks may run beside it.
RECORDING = """
import os, sys, time
import bayesadmm.cli as cli
from bayesadmm import federation

log = open(sys.argv[1], "a")
fork = os.fork

def recording_fork():
    pid = fork()
    if pid:
        log.write(f"{pid}\\n")
        log.flush()
    return pid

os.fork = recording_fork

def stalling(engine):
    def stalled(server, clients, cfg, rnd, base_seed):
        if rnd == 1 and sys.argv[2] != "-":
            open(sys.argv[2], "w").close()
            time.sleep(600)
        return engine(server, clients, cfg, rnd, base_seed)
    return stalled

for method, engine in list(federation.ROUND_ENGINES.items()):
    federation.ROUND_ENGINES[method] = stalling(engine)
sys.exit(cli.main(sys.argv[3:]))
"""


def recording_run(tmp_path, text, stall="-", **popen):
    """A started ``bayesadmm run`` of ``text``, the file of the pids it forks, and its output directory."""
    pids, out = tmp_path / "pids", tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-c", RECORDING, str(pids), stall, "run", "--config", write(tmp_path, "run.ini", text),
           "--out", str(out)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, **popen), pids, out


def forked(pids) -> list[int]:
    return [int(line) for line in pids.read_text().split()] if pids.exists() else []


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


def finished(proc) -> tuple[int, str]:
    _, err = proc.communicate(timeout=300)
    return proc.returncode, err.decode()


# ---------------------------------------------------------------------------
# no process outlives a run
# ---------------------------------------------------------------------------


@forks
@pytest.mark.parametrize("when", ["mid-round", "between rounds"])
def test_no_worker_outlives_a_killed_run(tmp_path, when):
    # Busy workers end when their result finds no reader; idle ones when their task pipe ends.
    text = IVON_INI.replace("rounds = 2", "rounds = 500").replace("ivon_steps = 20", "ivon_steps = 2000")
    stall = tmp_path / "stalled"
    proc, pids, _ = recording_run(tmp_path, text, stall=str(stall) if when == "between rounds" else "-")
    try:
        deadline = time.monotonic() + 60
        while len(forked(pids)) < min(len(CPUS), 4) or (when == "between rounds" and not stall.exists()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        time.sleep(0.2)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    workers = forked(pids)
    try:
        assert workers and still_alive(workers) == []
    finally:
        for pid in still_alive(workers, 0.0):
            os.kill(pid, signal.SIGKILL)


@forks
@pytest.mark.parametrize("ending", ["completes", "diverges", "fails", "is interrupted"])
def test_run_rounds_reaps_its_workers_on_every_way_out(tmp_path, monkeypatch, ending):
    started = []
    start = federation._Pool.start

    def recording(pool, count):
        running = start(pool, count)
        started.extend(worker.pid for worker in pool.workers)
        return running

    monkeypatch.setattr(federation._Pool, "start", recording)
    text, code = (IVON_BLOWUP_INI, 2) if ending == "diverges" else (IVON_INI, 0)
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
    assert started and not any(alive(pid) for pid in started)
    assert federation._pool is None


# ---------------------------------------------------------------------------
# outputs do not depend on the number of CPUs
# ---------------------------------------------------------------------------


def ivon_mnist_config(tmp_path) -> str:
    """The benchmark's ``ivon_mnist`` config at workload seed 1, its IDX inputs written under ``tmp_path``."""
    sys.path.insert(0, PERFBENCH)
    try:
        from workloads import WORKLOADS, derived_seeds, write_idx
    finally:
        sys.path.remove(PERFBENCH)
    from bayesadmm.harness import gen_blobs

    seeds, inputs = derived_seeds(1), tmp_path / "inputs"
    inputs.mkdir()
    write_idx(str(inputs), seeds["data"], gen_blobs)
    return WORKLOADS["ivon_mnist"].config(seeds, str(inputs))


@forks
@pytest.mark.parametrize("case", ["BLOBS ivon_admm", "ivon_mnist"])
def test_outputs_do_not_depend_on_the_cpu_count(tmp_path, case):
    text = IVON_INI if case == "BLOBS ivon_admm" else ivon_mnist_config(tmp_path)
    outputs = []
    for cpus in ("one", "all"):
        side = tmp_path / cpus
        side.mkdir()
        one = (lambda: os.sched_setaffinity(0, CPUS[:1])) if cpus == "one" else None
        proc, pids, out = recording_run(side, text, preexec_fn=one)
        assert finished(proc)[0] == 0
        assert len(forked(pids)) == (0 if cpus == "one" else min(len(CPUS), 4 if case == "BLOBS ivon_admm" else 5))
        outputs.append([(out / name).read_bytes() for name in ("trace.jsonl", "summary.json", "checkpoint.json")])
    assert outputs[0] == outputs[1]


def workload_config(tmp_path, name: str) -> str:
    sys.path.insert(0, PERFBENCH)
    try:
        from workloads import WORKLOADS, derived_seeds
    finally:
        sys.path.remove(PERFBENCH)
    return WORKLOADS[name].config(derived_seeds(1), str(tmp_path))


@pytest.mark.parametrize("name", ["full_logreg", "ridge_wide"])
def test_runs_without_ivon_clients_fork_nothing(tmp_path, name):
    proc, pids, _ = recording_run(tmp_path, workload_config(tmp_path, name))
    assert finished(proc)[0] == 0
    assert forked(pids) == []


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
def test_a_worker_that_dies_fails_the_run_instead_of_hanging(tmp_path, monkeypatch):
    solve_ivon, parent = federation.solve_ivon, os.getpid()

    def dying(loss, prior, loss_scale, v, u, cfg):
        if cfg.seed == seed_for(1, 0, 2) and os.getpid() != parent:
            os._exit(1)
        return solve_ivon(loss, prior, loss_scale, v, u, cfg)

    monkeypatch.setattr(federation, "solve_ivon", dying)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write(tmp_path, "run.ini", IVON_INI), "--out", str(out)]) == 1
    event = json.loads((out / "summary.json").read_text())["event"]
    assert event["reason"] == "ChildProcessError" and event["round"] == 0
    assert re.fullmatch(r"IVON worker \d+ ended without a result", event["detail"])
