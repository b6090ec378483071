"""Shared set-up: the suite's BLAS on one thread, and a record of the workers a run forks.

The BLAS settings are made before numpy is imported, so they hold in-process
and in every child the suite starts; a value the environment already gives
is kept.  A run's own parallelism is its forked workers and its checks
thread, and a BLAS pool on each CPU beside them only slows the small solves.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402


@pytest.fixture
def forked(monkeypatch) -> list[int]:
    """The pids of the processes the test's in-process runs fork, in order."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids
