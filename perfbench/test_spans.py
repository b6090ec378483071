"""Tests of the span recording and the span-to-metric reduction.

Run with ``python3 -m pytest perfbench/test_spans.py`` from the root of the
checkout.
"""

import itertools
import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, reduce_spans, self_times  # noqa: E402


def _tree():
    """cli.main [0, 10] > federation.run_rounds [1, 9] > two rounds, each with a solve.

    Row order is the order spans open, as the tracer writes them.
    """
    return [
        ("cli.main", 0.0, 10.0, -1, None),
        ("federation.run_rounds", 1.0, 9.0, 0, None),
        ("federation.bayes_admm_round", 1.0, 5.0, 1, None),
        ("solvers.solve_von", 1.5, 4.0, 2, (7, 1)),
        ("losses.loss_hess", 2.0, 3.5, 3, None),
        ("federation.bayes_admm_round", 5.0, 8.5, 1, None),
        ("solvers.solve_von", 5.0, 8.0, 5, (30, 0)),
        ("families.chol_spd", 6.0, 6.5, 6, None),
        ("families.chol_spd", 7.0, 7.25, 6, None),
    ]


def test_self_time_subtracts_direct_children_only():
    own = self_times(_tree())
    assert own == pytest.approx([2.0, 0.5, 1.5, 1.0, 1.5, 0.5, 2.25, 0.5, 0.25])


def test_self_times_add_up_to_the_root_duration():
    assert sum(self_times(_tree())) == pytest.approx(10.0)


def test_reduce_groups_layers_functions_and_counts():
    m = reduce_spans(_tree(), import_s=0.4, write_s=0.2)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["federation.self_s"] == pytest.approx(0.5 + 1.5 + 0.5)
    assert m["federation.round.self_s"] == pytest.approx(2.0)
    assert m["solvers.solve_von.self_s"] == pytest.approx(3.25)
    assert m["solvers.solve_von.calls"] == 2
    assert m["solvers.solve_von.steps"] == 37
    assert m["solvers.solve_von.converged_frac"] == pytest.approx(0.5)
    assert m["losses.loss_hess.self_s"] == pytest.approx(1.5)
    assert m["losses.loss_hess.calls"] == 1
    assert m["families.chol_spd.calls"] == 2
    assert m["families.chol_spd.self_s"] == pytest.approx(0.75)
    assert m["losses.loss_grad.calls"] == 0
    assert m["solvers.solve_ivon.steps_per_s"] == 0.0
    assert m["cli.import_s"] == 0.4 and m["cli.write_s"] == 0.2


def test_ivon_steps_per_second_uses_inclusive_time():
    rows = [
        ("solvers.solve_ivon", 0.0, 2.0, -1, (200, 0)),
        ("losses.loss_grad", 0.5, 1.5, 0, None),
    ]
    m = reduce_spans(rows, import_s=0.0, write_s=0.0)
    assert m["solvers.solve_ivon.steps_per_s"] == pytest.approx(100.0)
    assert m["solvers.solve_ivon.self_s"] == pytest.approx(1.0)


def test_tracer_records_parents_and_survives_exceptions():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(fail):
        if fail:
            raise ValueError("boom")
        return 1

    traced_leaf = tracer.wrap("families.chol_spd", leaf)

    def outer():
        traced_leaf(False)
        with pytest.raises(ValueError):
            traced_leaf(True)
        return 2

    assert tracer.wrap("families.kl", outer)() == 2
    names = [row[0] for row in tracer.rows]
    parents = [row[3] for row in tracer.rows]
    assert names == ["families.kl", "families.chol_spd", "families.chol_spd"]
    assert parents == [-1, 0, 0]
    assert all(row[2] > row[1] for row in tracer.rows)


def test_traced_child_reaches_every_layer(tmp_path):
    """A small ridge run through child.py: spans cover each layer and nest under cli.main."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    config = tmp_path / "ridge.ini"
    config.write_text(
        "[experiment]\nmethod = bayes_admm\nfamily = full\nrounds = 2\n"
        "[data]\nkind = ridge\nn = 80\nd = 5\nseed = 1\n"
        "[split]\nkind = homogeneous\nk = 2\n"
        "[hyper]\nrho = 0.5\n"
    )
    stamps = tmp_path / "stamps.json"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, os.path.join(here, "child.py"), str(stamps), src, "1",
         "run", "--config", str(config), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [tuple(r) for r in json.loads(stamps.read_text())["spans"]]
    names = {r[0] for r in rows}
    assert rows[0][0] == "cli.main" and rows[0][3] == -1
    assert all(r[3] >= 0 for r in rows[1:])
    for name in ("cli.cmd_run", "federation.run_rounds", "federation.bayes_admm_round",
                 "federation.server_combine", "solvers.solve_conjugate",
                 "families.NatParam.from_dual", "families.chol_spd", "losses.natural_gradient",
                 "harness.gen_ridge", "harness.metrics", "federation.checkpoint_to_jsonable"):
        assert name in names, name
    assert not any(name.endswith("_jsonable") and not name.startswith("federation.")
                   for name in names)
    assert sum(self_times(rows)) == pytest.approx(rows[0][2] - rows[0][1])
