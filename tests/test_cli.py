import base64
import json
import math
import os
import re
import struct
import zlib

import numpy as np
import pytest

from bayesadmm import solvers
from bayesadmm.cli import main
from bayesadmm.families import array_from_jsonable, array_to_jsonable
from bayesadmm.losses import MulticlassLogistic, loss_hess


PROP2_INI = """
[experiment]
method = bayes_admm
family = full
rounds = 3
seed = 0

[data]
kind = ridge
n = 80
d = 10
noise_sd = 0.3
seed = 5

[split]
kind = homogeneous
k = 2
seed = 1

[hyper]
rho = 0.5
delta = 1.0

[inner]
solver = conjugate
"""


BLOBS_INI = """
[experiment]
method = bayes_admm
family = diag
rounds = 2
seed = 1

[data]
kind = blobs
n_per_class = 30
classes = 3
d = 2
test_seed = 9
test_n = 20

[split]
kind = homogeneous
k = 2
seed = 1

[hyper]
rho = 1.0
delta = 1.0

[inner]
ivon_steps = 20
ivon_lr = 0.05
ivon_batch = 8
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_idx(directory, n=24, rows=2, cols=2, seed=0):
    """An MNIST-shaped IDX image/label pair under the names the mnist kind defaults to."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, rows * cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    with open(directory / "train-images-idx3-ubyte", "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(directory / "train-labels-idx1-ubyte", "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.tobytes())


MNIST_BAYES_INI = """
[experiment]
method = bayes_admm
family = diag
rounds = 2
seed = 0

[data]
kind = mnist
limit = 20

[split]
kind = homogeneous
k = 2

[hyper]
rho = 1.0

[inner]
steps = 50
"""


def test_run_prop2_reaches_tolerance_in_one_round(tmp_path, capsys):
    cfg = write(tmp_path, "prop2.ini", PROP2_INI)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds_to_tol"] == 1
    assert not summary["diverged"]
    assert (out / "trace.jsonl").exists()
    assert (out / "checkpoint.json").exists()


def test_run_traces_are_byte_identical(tmp_path):
    cfg = write(tmp_path, "prop2.ini", PROP2_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()


def test_run_divergence_exits_two(tmp_path):
    # a weak prior on near-separable data: the run must exit 2 and record a
    # divergence event in summary.json
    diverging = """
[experiment]
method = pvi
family = full
rounds = 8
seed = 0

[data]
kind = blobs
n_per_class = 100
classes = 10
d = 2
spread = 0.45
radius = 6.0
center = 12.0
test_seed = 12
test_n = 20

[split]
kind = class_partition
assignments = 0,1|2,3|4,5|6,7|8,9

[hyper]
rho = 1.0
delta = 0.03
damping = 1.0

[inner]
solver = von
estimator = delta
steps = 200
"""
    cfg = write(tmp_path, "div.ini", diverging)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] and summary["event"]["type"] == "divergence"


def test_ivon_admm_run_is_deterministic_across_repeats(tmp_path):
    cfg = write(tmp_path, "ivon.ini", BLOBS_INI.replace("method = bayes_admm", "method = ivon_admm"))
    traces = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        traces.append((out / "trace.jsonl").read_bytes())
    assert traces[0] == traces[1] and len(traces[0].splitlines()) == 3


def test_workers_other_than_one_is_a_config_error_naming_the_removed_pool(tmp_path, capsys):
    text = with_value(PROP2_INI, "experiment", "workers", "2")
    assert_rejected(tmp_path, capsys, text, [],
                    "[experiment] workers: must be 1 (the client thread pool it sized was removed), got 2")


def test_module_docstring_lists_every_config_key():
    import bayesadmm.cli as cli

    doc = cli.__doc__
    for entry in cli._TABLE:
        block = doc.split(f"[{entry.section}]", 1)[1].split("\n    [", 1)[0]
        assert re.search(rf"(?<![\w|]){entry.key}(?![\w|])", block), (entry.section, entry.key)


def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = PROP2_INI.replace("rho = 0.5", "rho = 0.5\nwombat = 3")
    cfg = write(tmp_path, "bad.ini", bad)
    code = main(["run", "--config", cfg])
    assert code == 1
    assert "wombat" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("hyper", "tau", "0"),
        ("hyper", "tau", "-1.0"),
        ("hyper", "delta", "0"),
        ("hyper", "damping", "0.0"),
        ("inner", "lr", "0"),
        ("experiment", "workers", "0"),
        ("experiment", "tol_dist", "0"),
        ("data", "d", "0"),
        ("split", "k", "0"),
    ],
)
def test_nonpositive_config_value_rejected(tmp_path, capsys, section, key, value):
    # Each of these once fell back to its default through ``x or default``;
    # ``d`` had that fallback only for blobs data.  ``k = 0`` reached ``split``.
    text = BLOBS_INI if key == "d" else PROP2_INI
    assert_rejected(tmp_path, capsys, with_value(text, section, key, value), [], f"[{section}] {key}")


def with_value(text, section, key, value):
    """``text`` with ``key = value`` as the only ``key`` line, placed in ``[section]``."""
    text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
    return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")


def assert_rejected(tmp_path, capsys, text, flags, where, command="run"):
    """The command exits 1 with a config error naming ``where`` and writes no output."""
    cfg = write(tmp_path, "bad.ini", text)
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}") and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section,key,value,flags",
    [
        ("hyper", "rho", "", []),
        ("data", "n", "", []),
        ("hyper", "tau", "", []),
        ("experiment", "delta_method", "", []),
        ("inner", "solver", "bogus", []),
        ("experiment", "family", "bogus", []),
        ("split", "kind", "bogus", []),
        ("hyper", "damping", "2.0", []),
        ("split", "assignments", "0,1|x", []),
        ("experiment", "method", None, ["--method", "bogus"]),
        ("hyper", "rho", None, ["--rho", "0"]),
        ("experiment", "rounds", None, ["--rounds", "-3"]),
        ("split", "assignments", "0,1|1,2", []),
    ],
)
def test_bad_config_name_or_empty_value_rejected(tmp_path, capsys, section, key, value, flags):
    # None of these was once a config error naming its key: most raised a
    # ValueError or TypeError (``solver`` only in round 0, after the trace
    # header), ``--rounds -3`` ran no rounds and exited 0, ``tau =`` became 1.0,
    # and a class in two ``assignments`` groups raised from the split.
    text = PROP2_INI if value is None else with_value(PROP2_INI, section, key, value)
    assert_rejected(tmp_path, capsys, text, flags, f"[{section}] {key}")



def test_missing_key_takes_its_default_and_empty_means_unset(tmp_path):
    cfg = write(tmp_path, "prop2.ini", PROP2_INI)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    unset = PROP2_INI.replace("rho = 0.5\n", "gamma =\nalpha =\n")
    unset = unset.replace("[inner]\n", "[inner]\nlr =\nivon_batch =\n")
    assert main(["run", "--config", write(tmp_path, "unset.ini", unset), "--out", str(tmp_path / "b")]) == 0
    # rho's default is the 0.5 the file gave, and "" is the default of the rest.
    assert (tmp_path / "a" / "trace.jsonl").read_bytes() == (tmp_path / "b" / "trace.jsonl").read_bytes()


def test_nonpositive_flag_and_oracle_delta_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "prop2.ini", PROP2_INI)
    assert main(["run", "--config", cfg, "--tau", "0", "--out", str(tmp_path / "out")]) == 1
    assert "[hyper] tau" in capsys.readouterr().err
    assert main(["oracle", "--config", cfg, "--delta", "0"]) == 1
    assert "[hyper] delta" in capsys.readouterr().err


def test_sweep_single_cell_matches_run(tmp_path):
    cfg = write(tmp_path, "prop2.ini", PROP2_INI + "\n[sweep]\nrho = 0.5\ntau = 1.0\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + one cell
    header = rows[0].split(",")
    cell = dict(zip(header, rows[1].split(",")))
    assert cell["converged"] == "True"
    assert float(cell["alpha"]) == pytest.approx(0.5)  # 1/(1+0.5*2)
    assert float(cell["dist_to_oracle"]) < 1e-8


def test_sweep_cell_reports_what_run_reports(tmp_path):
    cfg = write(tmp_path, "prop2.ini", PROP2_INI + "\n[sweep]\nrho = 0.5\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    cell = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert int(cell["rounds"]) == summary["rounds_completed"] == 3
    assert cell["converged"] == str(not summary["diverged"] and summary["event"] is None)
    assert float(cell["dist_to_oracle"]) == summary["final"]["dist_to_oracle"]


@pytest.mark.parametrize("grid, want", [
    ("0.5,abc", "[sweep] rho: not a number: 'abc'"),
    ("0,0.5", "[sweep] rho: must be > 0, got 0.0"),
    ("0.5,", "[sweep] rho: empty value"),
])
def test_sweep_grid_entries_are_checked_before_any_cell(tmp_path, capsys, grid, want):
    text = PROP2_INI + f"\n[sweep]\nrho = {grid}\n"
    assert_rejected(tmp_path, capsys, text, [], want, command="sweep")


def test_sweep_grid_has_a_row_per_rho(tmp_path):
    cfg = write(tmp_path, "grid.ini", PROP2_INI + "\n[sweep]\nrho = 0.25,0.5,1.0\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    for row in rows[1:]:
        cell = dict(zip(rows[0].split(","), row.split(",")))
        rho = float(cell["rho"])
        assert float(cell["alpha"]) == pytest.approx(1.0 / (1.0 + rho * 2))
        assert cell["converged"] in ("True", "False")


@pytest.mark.parametrize("pinned, want", [("alpha = 0.3\n", 0.3), ("", 1.0 / (1.0 + 0.5 * 2))])
def test_sweep_alpha_column_is_the_servers_weight(tmp_path, pinned, want):
    text = PROP2_INI.replace("[hyper]\n", "[hyper]\n" + pinned) + "\n[sweep]\nrho = 0.5\n"
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write(tmp_path, "alpha.ini", text), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert float(dict(zip(rows[0].split(","), rows[1].split(",")))["alpha"]) == want


def test_sweep_cell_with_a_failing_metric_is_not_converged(tmp_path, monkeypatch):
    import bayesadmm.cli as cli

    def failing(*args, **kwargs):
        raise RuntimeError("metric failed")

    monkeypatch.setattr(cli, "metrics", failing)
    cfg = write(tmp_path, "prop2.ini", PROP2_INI + "\n[sweep]\nrho = 0.5\ntau = 1.0\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
    cell = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert cell["converged"] == "False" and cell["error"] == "RuntimeError"
    assert cell["rounds"] == "0"


def test_a_sweep_cell_that_cannot_be_set_up_is_a_row_naming_its_error(tmp_path, capsys):
    # Class 2 of the three is in no client's group, so each cell's split raises EmptyClient.
    text = BLOBS_INI.replace("kind = homogeneous", "kind = class_partition\nassignments = 0|1")
    cfg = write(tmp_path, "partition.ini", text + "\n[sweep]\nrho = 0.5,1.0\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "error: EmptyClient: class_partition leaves some examples unassigned" in capsys.readouterr().err
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert rows[1:] == ["0.5,1.0,,0,False,,,EmptyClient", "1.0,1.0,,0,False,,,EmptyClient"]



def test_verify_checkpoint_paths(tmp_path):
    cfg = write(tmp_path, "prop2.ini", PROP2_INI)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    ck = str(out / "checkpoint.json")
    assert main(["verify", ck]) == 0
    assert main(["verify", ck, "--tol", "inf"]) == 0
    assert main(["verify", ck, "--tol", "1e-300"]) == 3


def test_verify_fresh_state_fails(tmp_path):
    cfg = write(tmp_path, "fresh.ini", PROP2_INI.replace("rounds = 3", "rounds = 0"))
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    assert main(["verify", str(out / "checkpoint.json")]) == 3


def test_verify_of_a_point_checkpoint_is_an_error(tmp_path, capsys):
    cfg = write(tmp_path, "admm.ini", PROP2_INI.replace("method = bayes_admm", "method = admm"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out / "checkpoint.json")]) == 1
    err = capsys.readouterr().err
    assert err == "error: CheckpointError: checkpoint has no distribution-valued server state to verify\n"



def test_verify_corrupt_checkpoint_is_an_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    assert main(["verify", str(bad)]) == 1
    assert "checkpoint" in capsys.readouterr().err.lower()


def test_oracle_subcommand_prints_solution(tmp_path, capsys):
    cfg = write(tmp_path, "prop2.ini", PROP2_INI)
    assert main(["oracle", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "conjugate"
    assert len(out["mean"]) == 10
    prec = np.array(out["precision"])
    assert np.allclose(prec, prec.T)


def test_svg_output(tmp_path):
    cfg = write(tmp_path, "prop2.ini", PROP2_INI)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--svg"]) == 0
    svg = (out / "chart.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize("vals, labels", [
    ([2.0, 2.0, None, 2.0], ("2", "3")),
    ([None, math.nan, math.inf], None),
], ids=["flat", "nothing-finite"])
def test_svg_of_a_flat_series_spans_one_unit_and_of_no_finite_value_is_not_written(tmp_path, vals, labels):
    import bayesadmm.cli as cli

    path = tmp_path / "chart.svg"
    cli._write_svg(str(path), "dist_to_oracle", vals, "title")
    if labels is None:
        assert not path.exists()
    else:
        svg = path.read_text()
        ymin, ymax = labels
        assert f'text-anchor="end">{ymin}</text>' in svg and f'text-anchor="end">{ymax}</text>' in svg
        assert "nan" not in svg and "inf" not in svg



def test_a_run_clears_the_previous_runs_record(tmp_path, monkeypatch, capsys):
    # A second run into the same directory that stops after its header once left
    # the first run's summary and checkpoint beside its own trace, and verify passed.
    import bayesadmm.cli as cli

    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, "prop2.ini", PROP2_INI), "--out", str(out), "--svg"]) == 0
    assert {p.name for p in out.iterdir()} == {"trace.jsonl", "summary.json", "checkpoint.json", "chart.svg"}

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_rounds", interrupted)
    blowup = write(tmp_path, "blowup.ini", IVON_BLOWUP_INI)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", blowup, "--out", str(out)])
    assert [p.name for p in out.iterdir()] == ["trace.jsonl"]
    lines = (out / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["config"]["experiment"]["method"] == "ivon_admm"
    capsys.readouterr()
    assert main(["verify", str(out / "checkpoint.json")]) == 1
    assert "CheckpointError" in capsys.readouterr().err


def test_run_writes_its_summary_and_checkpoint_whole_or_not_at_all(tmp_path, monkeypatch):
    real = json.dump

    def cut_short(obj, fh, **kwargs):
        if "clients" in obj:
            fh.write('{"clients": [')
            raise OSError("no space left on device")
        real(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", cut_short)
    out = tmp_path / "out"
    with pytest.raises(OSError):
        main(["run", "--config", write(tmp_path, "prop2.ini", PROP2_INI), "--out", str(out)])
    assert json.loads((out / "summary.json").read_text())["rounds_completed"] == 3
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("family, flags", [("full", []), ("isotropic", []), ("diag", ["--family", "full"])])
def test_ivon_admm_needs_the_diag_family(tmp_path, capsys, family, flags):
    # ivon_admm once ran a diag prior whatever the family, while the trace recorded it.
    text = with_value(BLOBS_INI.replace("method = bayes_admm", "method = ivon_admm"),
                      "experiment", "family", family)
    assert_rejected(tmp_path, capsys, text, flags, "[experiment] family: ivon_admm needs diag")


def test_run_outlier_toy_scenario(tmp_path):
    toy_ini = """
[experiment]
method = admm
rounds = 5
seed = 0

[data]
kind = outlier_toy

[hyper]
rho = 0.2
delta = 0.2
"""
    cfg = write(tmp_path, "toy.ini", toy_ini)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert rows[0]["type"] == "header"
    assert all("acc_mean" in r for r in rows[1:])


def test_admm_on_blobs_steps_by_the_multiclass_curvature_bound(tmp_path, monkeypatch):
    # The softmax loss's Hessian is sum_i (diag(p_i) - p_i p_i^T) (x) x_i x_i^T / scale, and
    # diag(p) - p p^T has spectral norm at most 1/2: each client's gradient step comes from
    # 0.5 lambda_max(X^T X) / scale.  At theta = 0, p = 1/3 for three classes, so the Hessian's
    # largest eigenvalue is lambda_max(X^T X) / (3 scale), above the binary loss's 1/4.
    seen = []
    real = solvers._gd_lipschitz

    def recording(loss):
        seen.append((loss, real(loss)))
        return seen[-1][1]

    monkeypatch.setattr(solvers, "_gd_lipschitz", recording)
    cfg = write(tmp_path, "admm.ini", BLOBS_INI.replace("method = bayes_admm", "method = admm"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(seen) == 4  # two clients, two rounds
    for loss, bound in seen:
        assert isinstance(loss, MulticlassLogistic)
        gram_max = np.linalg.eigvalsh(loss.X.T @ loss.X)[-1]
        assert bound == pytest.approx(0.5 * gram_max / loss.scale, rel=1e-12)
        assert bound >= np.linalg.eigvalsh(loss_hess(loss, np.zeros(loss.dim)))[-1]


def test_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, "prop2.ini", PROP2_INI)
    out = tmp_path / "out"
    # rho far from 1/K breaks the one-round property
    assert main(["run", "--config", cfg, "--out", str(out), "--rho", "4.0"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds_to_tol"] != 1


def test_mnist_kind_reads_idx_from_data_dir(tmp_path, monkeypatch):
    write_idx(tmp_path)
    monkeypatch.setenv("BAYES_ADMM_DATA", str(tmp_path))
    ini = """
[experiment]
method = fedavg
rounds = 2
seed = 0

[data]
kind = mnist
limit = 20

[split]
kind = homogeneous
k = 2

[hyper]
rho = 1.0

[inner]
local_steps = 3
lr = 0.05
"""
    cfg = write(tmp_path, "mnist.ini", ini)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds_completed"] == 2


# ---------------------------------------------------------------------------
# lean checkpoints: verify rebuilds the losses from the config and data files
# ---------------------------------------------------------------------------


OUTLIER_BAYES_INI = """
[experiment]
method = bayes_admm
family = diag
rounds = 2
seed = 0

[data]
kind = outlier_toy

[hyper]
rho = 0.5
delta = 1.0
"""


CSV_INI = """
[experiment]
method = bayes_admm
family = full
rounds = 2
seed = 0

[data]
kind = csv
path = {path}

[split]
kind = homogeneous
k = 2
seed = 1

[hyper]
rho = 0.5

[inner]
solver = conjugate
"""


def write_csv(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 3))
    y = x @ np.array([0.5, -1.0, 2.0]) + 0.3 * rng.standard_normal(30)
    rows = ["x0,x1,x2,y"] + [",".join(f"{v:.17g}" for v in (*xi, yi)) for xi, yi in zip(x, y)]
    return write(tmp_path, "table.csv", "\n".join(rows) + "\n")


@pytest.mark.parametrize("text, command, where", [
    (CSV_INI.replace("path = {path}\n", ""), "run", "[data] csv kind needs a path"),
    (BLOBS_INI.replace("kind = homogeneous", "kind = class_partition"), "run",
     "[split] class_partition needs assignments"),
    (with_value(PROP2_INI, "experiment", "family", "fixed"), "run", "[experiment] family: must be one of"),
    (with_value(PROP2_INI, "experiment", "delta_method", "maybe"), "run",
     "[experiment] delta_method: not a boolean: 'maybe'"),
    (PROP2_INI + "\n[wombat]\nx = 1\n", "run", "{path}: unknown section [wombat]"),
    (BLOBS_INI, "oracle", "the conjugate oracle needs a regression (ridge) dataset"),
], ids=["csv-without-path", "class-partition-without-assignments", "removed-family", "not-a-boolean",
        "unknown-section", "oracle-without-ridge"])
def test_a_config_that_cannot_be_built_is_rejected(tmp_path, capsys, text, command, where):
    assert_rejected(tmp_path, capsys, text, [], where.format(path=tmp_path / "bad.ini"), command=command)


def test_an_unreadable_config_file_is_rejected(tmp_path, capsys):
    missing = str(tmp_path / "missing.ini")
    assert main(["run", "--config", missing, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot read config file {missing!r}")
    assert not (tmp_path / "out").exists()


def run_for_verify(tmp_path, monkeypatch, kind):
    """Run a small Bayesian config of one data kind; returns the output directory."""
    if kind == "ridge":
        text = PROP2_INI
    elif kind == "blobs":
        text = BLOBS_INI.replace("family = diag", "family = full")
    elif kind == "outlier_toy":
        text = OUTLIER_BAYES_INI
    elif kind == "mnist":
        write_idx(tmp_path)
        monkeypatch.setenv("BAYES_ADMM_DATA", str(tmp_path))
        text = MNIST_BAYES_INI
    else:
        text = CSV_INI.format(path=write_csv(tmp_path))
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, f"{kind}.ini", text), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("kind", ["ridge", "blobs", "outlier_toy", "mnist", "csv"])
def test_verify_rebuilds_the_run_residuals(tmp_path, monkeypatch, capsys, kind):
    out = run_for_verify(tmp_path, monkeypatch, kind)
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["clients"] and not any("loss" in rec for rec in checkpoint["clients"])
    assert checkpoint["config"]["data"]["kind"] == kind
    last = json.loads((out / "trace.jsonl").read_text().splitlines()[-1])
    capsys.readouterr()
    assert main(["verify", str(out / "checkpoint.json"), "--tol", "inf"]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert lines
    for line in lines:
        name, value = line.split(": ")
        assert value == f"{last['residual_' + name]:.3e}"


def verify_error(capsys, out) -> str:
    capsys.readouterr()
    assert main(["verify", str(out / "checkpoint.json")]) == 1
    err = capsys.readouterr().err
    assert "CheckpointError" in err
    return err


def test_verify_rejects_a_checkpoint_without_config(tmp_path, monkeypatch, capsys):
    out = run_for_verify(tmp_path, monkeypatch, "ridge")
    path = out / "checkpoint.json"
    data = json.loads(path.read_text())
    for key in ("config", "config_hash", "data_sha256"):
        del data[key]
    path.write_text(json.dumps(data))
    assert "no resolved config" in verify_error(capsys, out)


def test_verify_names_a_missing_data_file(tmp_path, monkeypatch, capsys):
    out = run_for_verify(tmp_path, monkeypatch, "mnist")
    os.remove(tmp_path / "train-labels-idx1-ubyte")
    err = verify_error(capsys, out)
    assert "[data] labels" in err and "No such file" in err


def test_verify_names_a_changed_data_file(tmp_path, monkeypatch, capsys):
    out = run_for_verify(tmp_path, monkeypatch, "mnist")
    images = tmp_path / "train-images-idx3-ubyte"
    raw = bytearray(images.read_bytes())
    raw[-1] ^= 1
    images.write_bytes(bytes(raw))
    err = verify_error(capsys, out)
    assert "[data] images" in err and "SHA-256" in err


@pytest.mark.parametrize("edit", ["drop", "renumber"])
def test_verify_rejects_client_records_that_do_not_match(tmp_path, monkeypatch, capsys, edit):
    out = run_for_verify(tmp_path, monkeypatch, "ridge")
    path = out / "checkpoint.json"
    data = json.loads(path.read_text())
    if edit == "drop":
        data["clients"].pop()
        want = "checkpoint client ids [0] are not the 2 rebuilt clients"
    else:
        data["clients"][0]["id"] = 7
        want = "checkpoint client ids [7, 1] are not the 2 rebuilt clients"
    path.write_text(json.dumps(data))
    assert want in verify_error(capsys, out)


@pytest.mark.parametrize("rehash", [False, True])
def test_verify_rejects_a_truncated_config(tmp_path, monkeypatch, capsys, rehash):
    from bayesadmm.cli import _config_hash

    out = run_for_verify(tmp_path, monkeypatch, "ridge")
    path = out / "checkpoint.json"
    data = json.loads(path.read_text())
    del data["config"]["experiment"]
    if rehash:
        data["config_hash"] = _config_hash(data["config"])
        want = "KeyError('experiment')"
    else:
        want = "its config does not match its config_hash"
    path.write_text(json.dumps(data))
    assert want in verify_error(capsys, out)


def test_verify_rejects_a_list_array_checkpoint_without_a_format(tmp_path, monkeypatch, capsys):
    out = run_for_verify(tmp_path, monkeypatch, "ridge")
    path = out / "checkpoint.json"
    data = json.loads(path.read_text())
    del data["format"]
    lam_g = {key: array_from_jsonable(block) for key, block in data["lam_g"].items()}
    for rec in data["clients"]:
        rec["lam"] = {key: array_from_jsonable(block, lam_g[key]).tolist() for key, block in rec["lam"].items()}

    def as_lists(node):  # the float-list arrays of the formats before 3
        if isinstance(node, dict):
            if "b64" in node:
                return array_from_jsonable(node).tolist()
            return {k: as_lists(v) for k, v in node.items()}
        return [as_lists(v) for v in node] if isinstance(node, list) else node

    path.write_text(json.dumps(as_lists(data)))
    assert "checkpoint format None is not 4" in verify_error(capsys, out)


@pytest.mark.parametrize("edit, want", [
    ({"dtype": "<f4"}, "'<f8'"),
    ({"shape": [3]}, "needs 24 bytes"),
    ({"b64": "*"}, "base64"),
], ids=["dtype", "byte-count", "base64"])
def test_verify_rejects_a_corrupt_array(tmp_path, monkeypatch, capsys, edit, want):
    out = run_for_verify(tmp_path, monkeypatch, "ridge")
    path = out / "checkpoint.json"
    data = json.loads(path.read_text())
    data["clients"][1]["eta"]["v"].update(edit)
    path.write_text(json.dumps(data))
    assert want in verify_error(capsys, out)


def triangle(a, count=None, **edit):
    """``a``'s stored upper triangle, cut to ``count`` floats, with ``edit`` applied."""
    data = array_to_jsonable(a, triangle=True)
    if count is not None:
        upper = np.frombuffer(base64.b64decode(data["b64"]), dtype="<f8")[:count]
        data["b64"] = base64.b64encode(upper.tobytes()).decode("ascii")
    return {**data, **edit}


@pytest.mark.parametrize("edit, want", [
    (lambda a: triangle(a, count=54), "upper triangle of shape (10, 10) needs 440 bytes, got 432"),
    (lambda a: {**array_to_jsonable(a), "triangle": "upper"},
     "upper triangle of shape (10, 10) needs 440 bytes, got 800"),
    (lambda a: array_to_jsonable(a), "a full family's block must be stored with 'triangle': 'upper'"),
    (lambda a: triangle(a[:9, :9]), "shape (9, 9) is not (10, 10)"),
    (lambda a: triangle(a, shape=[10, 11]),
     "triangle 'upper' of shape (10, 11) is not the upper triangle of a square"),
], ids=["byte-count", "format-2-square-with-marker", "format-2-square", "shape", "not-square"])
@pytest.mark.parametrize("record, key", [("lam_g", "S"), ("eta", "V")])
def test_verify_rejects_a_full_block_that_is_not_its_upper_triangle(tmp_path, monkeypatch, capsys,
                                                                     edit, want, record, key):
    out = run_for_verify(tmp_path, monkeypatch, "ridge")
    path = out / "checkpoint.json"
    data = json.loads(path.read_text())
    block = data[record] if record == "lam_g" else data["clients"][1][record]
    block[key] = edit(array_from_jsonable(block[key]))
    path.write_text(json.dumps(data))
    assert f"{key}: {want}" in verify_error(capsys, out)


def rewritten(block, edit):
    """``block`` with its stored bytes replaced by ``edit(bytes)``."""
    return {**block, "b64": base64.b64encode(edit(base64.b64decode(block["b64"]))).decode("ascii")}


def redeflated(edit):
    """An edit of a deflated block: ``edit`` applied to its XOR words, deflated again."""
    return lambda raw: zlib.compress(edit(zlib.decompress(raw)), 1)


@pytest.mark.parametrize("key, edit, want", [
    ("S", lambda b: rewritten(b, lambda raw: raw[:-4]), "S: corrupt or truncated deflate stream"),
    ("m", lambda b: rewritten(b, lambda raw: raw[:len(raw) // 2]), "m: corrupt or truncated deflate stream"),
    ("S", lambda b: rewritten(b, lambda raw: b"\x00" + raw[1:]),
     "S: corrupt or truncated deflate stream: Error -3 while decompressing data: incorrect header check"),
    ("S", lambda b: rewritten(b, redeflated(lambda words: words[:-8])),
     "S: upper triangle of shape (10, 10) needs 440 bytes, got 432"),
    ("m", lambda b: rewritten(b, redeflated(lambda words: words + words[:8])),
     "m: array of shape (10,) needs 80 bytes, got 88"),
    ("S", lambda b: {k: v for k, v in b.items() if k != "encoding"}, "S: encoding None is not 'xor-deflate'"),
    ("m", lambda b: array_to_jsonable(np.zeros(10)), "m: encoding None is not 'xor-deflate'"),
], ids=["truncated", "truncated-m", "corrupt", "short", "long-m", "unmarked", "plain-m"])
def test_verify_rejects_a_corrupt_client_block_naming_its_key(tmp_path, monkeypatch, capsys, key, edit, want):
    out = run_for_verify(tmp_path, monkeypatch, "ridge")
    path = out / "checkpoint.json"
    data = json.loads(path.read_text())
    lam = data["clients"][1]["lam"]
    lam[key] = edit(lam[key])
    path.write_text(json.dumps(data))
    assert f"CheckpointError: checkpoint clients[1]: {want}" in verify_error(capsys, out)


@pytest.mark.parametrize("drop", ["lam_g", "S"])
def test_verify_rejects_client_blocks_without_a_server_block_to_xor_against(tmp_path, monkeypatch, capsys,
                                                                           drop):
    out = run_for_verify(tmp_path, monkeypatch, "ridge")
    path = out / "checkpoint.json"
    data = json.loads(path.read_text())
    del (data if drop == "lam_g" else data["lam_g"])[drop]
    path.write_text(json.dumps(data))
    assert f"KeyError({drop!r})" in verify_error(capsys, out)


def test_a_converged_runs_client_blocks_deflate_against_the_server(tmp_path, monkeypatch):
    out = run_for_verify(tmp_path, monkeypatch, "ridge")
    data = json.loads((out / "checkpoint.json").read_text())
    assert data["rounds_completed"] == 3 and "eta0" not in data
    server = data["lam_g"]
    for rec in data["clients"]:
        assert set(rec["lam"]) == set(server) == {"m", "S"}
        for key, block in rec["lam"].items():
            assert block["encoding"] == "xor-deflate" and "encoding" not in server[key]
        assert len(rec["lam"]["S"]["b64"]) < len(server["S"]["b64"]) / 10
        assert all("encoding" not in block for block in rec["eta"].values())


FULL_CASES = {
    "conjugate": ("bayes_admm", "conjugate", "auto"),
    "von-delta": ("bayes_admm", "von", "delta"),
    "von-mc": ("bayes_admm", "von", "mc"),
    "bregman": ("bregman_admm", "auto", "auto"),
    "pvi": ("pvi", "auto", "auto"),
}


@pytest.mark.parametrize("kind, name", [
    *(("ridge", name) for name in FULL_CASES),
    # The conjugate solver refuses a multiclass logistic loss.
    *(("blobs", name) for name in FULL_CASES if name != "conjugate"),
])
def test_a_runs_full_blocks_are_symmetric_and_survive_the_checkpoint_bit_for_bit(
        tmp_path, monkeypatch, kind, name):
    import bayesadmm.cli as cli
    from bayesadmm.federation import checkpoint_from_jsonable

    method, solver, estimator = FULL_CASES[name]
    text = PROP2_INI.replace("solver = conjugate\n", "") if kind == "ridge" else \
        BLOBS_INI.replace("family = diag", "family = full")
    text = text.replace("method = bayes_admm", f"method = {method}")
    text += f"solver = {solver}\nestimator = {estimator}\n"
    committed = []
    real = cli.checkpoint_to_jsonable

    def capture(server, clients, rounds):
        committed.append((server, clients, rounds))
        return real(server, clients, rounds)

    monkeypatch.setattr(cli, "checkpoint_to_jsonable", capture)
    # bregman_admm on blobs leaves the family in round 0: a divergence, exit 2.
    assert main(["run", "--config", write(tmp_path, "full.ini", text),
                 "--out", str(tmp_path / "out")]) in (0, 2)
    server, clients, rounds = committed[0]
    eta0 = server.eta0

    def arrays():
        out = [server.lam_g.m, server.lam_g.prec]
        for c in clients:
            out += [c.lam.m, c.lam.prec, c.eta.v, c.eta.u]
        return out

    before = arrays()
    for block in (eta0.u, *before[1::2]):
        bits = block.view(np.uint64)
        assert block.shape == (server.fam.dim,) * 2 and np.array_equal(bits, bits.T)
    data = json.loads(json.dumps(real(server, clients, rounds)))
    assert data["lam_g"]["S"]["triangle"] == data["clients"][0]["eta"]["V"]["triangle"] == "upper"
    assert checkpoint_from_jsonable(data, server, clients) == rounds
    assert server.eta0 is eta0  # the config's prior, never stored
    after = arrays()
    assert all(a is not b for a, b in zip(after, before))
    for got, want in zip(after, before):
        assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def committed_state(out_dir):
    """The checkpoint without the config it was run with."""
    data = json.loads((out_dir / "checkpoint.json").read_text())
    return {k: v for k, v in data.items() if k not in ("config", "config_hash")}


def test_run_streams_the_trace_before_a_failing_metric(tmp_path, monkeypatch, capsys):
    import bayesadmm.cli as cli

    calls = []
    real = cli.metrics

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("metric failed in round 2")
        return real(*args, **kwargs)

    cfg = write(tmp_path, "prop2.ini", PROP2_INI.replace("rounds = 3", "rounds = 5"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "full")]) == 0
    assert main(["run", "--config", write(tmp_path, "three.ini", PROP2_INI),
                 "--out", str(tmp_path / "three")]) == 0
    calls.clear()
    monkeypatch.setattr(cli, "metrics", failing)
    capsys.readouterr()
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and "in failing" in err
    assert err.endswith("error: round 2 metrics: RuntimeError: metric failed in round 2\n")
    text = (tmp_path / "out" / "trace.jsonl").read_text()
    lines = [json.loads(line) for line in text.splitlines()]
    assert [line["type"] for line in lines] == ["header", "round", "round"]
    assert [line["round"] for line in lines[1:]] == [0, 1]
    assert (tmp_path / "full" / "trace.jsonl").read_text().startswith(text)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["event"] == {"type": "failure", "round": 2, "method": "bayes_admm",
                                "phase": "metrics", "reason": "RuntimeError",
                                "detail": "metric failed in round 2"}
    assert summary["rounds_completed"] == 2 and not summary["diverged"]
    assert summary["final"] == {k: v for k, v in lines[-1].items() if k != "type"}
    # The engine committed round 2 before its metric failed.
    assert committed_state(tmp_path / "out") == committed_state(tmp_path / "three")


def assert_verify_failure_keeps_the_record(tmp_path, monkeypatch, error):
    """A run whose verifier raises ``error`` in round 0 exits 1 with its summary and checkpoint."""
    import bayesadmm.cli as cli

    def failing(*args, **kwargs):
        raise error

    one = write(tmp_path, "one.ini", PROP2_INI.replace("rounds = 3", "rounds = 1"))
    assert main(["run", "--config", one, "--out", str(tmp_path / "one")]) == 0
    monkeypatch.setattr(cli, "verify_fixed_point", failing)
    cfg = write(tmp_path, "prop2.ini", PROP2_INI)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
    assert [json.loads(line)["type"] for line in lines] == ["header"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["event"] == {"type": "failure", "round": 0, "method": "bayes_admm",
                                "phase": "verify", "reason": type(error).__name__,
                                "detail": str(error)}
    assert summary["rounds_completed"] == 0 and summary["final"] == {}
    assert committed_state(tmp_path / "out") == committed_state(tmp_path / "one")


def test_run_keeps_its_record_when_an_engine_raises(tmp_path, monkeypatch, capsys):
    import bayesadmm.federation as federation
    from bayesadmm.errors import DegenerateMoment

    two = write(tmp_path, "two.ini", PROP2_INI.replace("rounds = 3", "rounds = 2"))
    assert main(["run", "--config", two, "--out", str(tmp_path / "two")]) == 0
    calls = []
    real = federation.solve_conjugate

    def failing(spec):
        calls.append(None)
        if len(calls) == 5:  # two clients a round: round 2's first client step
            raise DegenerateMoment("implied covariance is not positive definite")
        return real(spec)

    monkeypatch.setattr(federation, "solve_conjugate", failing)
    out = tmp_path / "out"
    capsys.readouterr()
    five = write(tmp_path, "five.ini", PROP2_INI.replace("rounds = 3", "rounds = 5"))
    assert main(["run", "--config", five, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and "in failing" in err
    assert err.endswith("error: round 2 round: DegenerateMoment: implied covariance is not positive definite\n")
    lines = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert [line["type"] for line in lines] == ["header", "round", "round"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["event"] == {"type": "failure", "round": 2, "method": "bayes_admm", "phase": "round",
                                "reason": "DegenerateMoment",
                                "detail": "implied covariance is not positive definite"}
    assert summary["rounds_completed"] == 2 and not summary["diverged"]
    # The checkpoint holds the state round 1 committed, as a two-round run leaves it.
    assert committed_state(out)["rounds_completed"] == 2
    assert committed_state(out) == committed_state(tmp_path / "two")
    assert main(["verify", str(out / "checkpoint.json")]) == 0


def test_run_keeps_its_record_when_verify_raises(tmp_path, monkeypatch):
    assert_verify_failure_keeps_the_record(tmp_path, monkeypatch, ZeroDivisionError("verifier failed"))


def test_run_keeps_its_record_when_verify_raises_a_package_error(tmp_path, monkeypatch, capsys):
    from bayesadmm.errors import DegenerateMoment

    error = DegenerateMoment("implied covariance is not finite and positive")
    assert_verify_failure_keeps_the_record(tmp_path, monkeypatch, error)
    err = capsys.readouterr().err
    assert err.endswith(f"error: round 0 verify: DegenerateMoment: {error}\n")


def test_run_reports_a_raising_kl_as_a_metrics_failure(tmp_path, monkeypatch, capsys):
    # Two same-family NatParams cannot make kl raise, so a raise is a defect, not a divergence.
    from bayesadmm import harness

    def failing(*args, **kwargs):
        raise ZeroDivisionError("kl failed")

    monkeypatch.setattr(harness, "kl_div", failing)
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, "prop2.ini", PROP2_INI), "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith("error: round 0 metrics: ZeroDivisionError: kl failed\n")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["event"] == {"type": "failure", "round": 0, "method": "bayes_admm",
                                "phase": "metrics", "reason": "ZeroDivisionError",
                                "detail": "kl failed"}
    assert summary["rounds_completed"] == 0 and not summary["diverged"]
    assert committed_state(out)["clients"]


def test_verify_rejects_a_checkpoint_with_an_infinite_precision(tmp_path, monkeypatch, capsys):
    out = run_for_verify(tmp_path, monkeypatch, "ridge")
    path = out / "checkpoint.json"
    data = json.loads(path.read_text())
    server_prec = array_from_jsonable(data["lam_g"]["S"])
    prec = array_from_jsonable(data["clients"][0]["lam"]["S"], server_prec)
    prec[0, 0] = np.inf
    data["clients"][0]["lam"]["S"] = array_to_jsonable(prec, triangle=True, xor=server_prec)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: NonPositivePrecision: full precision has non-finite entries\n"


# ---------------------------------------------------------------------------
# dual maps that keep their covariance
# ---------------------------------------------------------------------------


IVON_BLOWUP_INI = """
[experiment]
method = ivon_admm
family = diag
rounds = 20
seed = 1

[data]
kind = blobs
n_per_class = 100
classes = 3
d = 40
test_seed = 9
test_n = 50

[split]
kind = dirichlet
k = 10
seed = 1
concentration = 0.5

[hyper]
rho = 0.1
delta = 1.0

[inner]
ivon_steps = 200
ivon_lr = 0.1
ivon_batch = 32
"""


def test_ivon_admm_blowup_is_a_reported_divergence(tmp_path, capsys):
    # Client means reach about 6e7 at precisions near 800, where m*m + 1/s rounds
    # to m*m, so the verifier's dual maps must not take m*m back out of m2.
    out = tmp_path / "out"
    code = main(["run", "--config", write(tmp_path, "blowup.ini", IVON_BLOWUP_INI), "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    event = summary["event"]
    assert summary["diverged"] and event["type"] == "divergence" and event["method"] == "ivon_admm"
    assert event["reason"] and isinstance(event["round"], int)
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert len(checkpoint["clients"]) == 10
    rounds = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()[1:]]
    assert len(rounds) == summary["rounds_completed"] > event["round"]


RIDGE_WIDE_INI = """
[experiment]
method = bayes_admm
family = full
rounds = 2
seed = 3

[data]
kind = ridge
n = 6000
d = 200
noise_sd = 0.3
seed = 4

[split]
kind = homogeneous
k = 10
seed = 5

[hyper]
rho = 0.1
delta = 1.0

[inner]
solver = auto
"""


def test_verify_passes_a_converged_wide_ridge_run(tmp_path, capsys):
    # At this precision scale, taking m m^T back out of m2 in the inverse dual map
    # leaves a dual_map residual near 1.8e-7, above the default tol 1e-8.
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, "wide.ini", RIDGE_WIDE_INI), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out / "checkpoint.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[3].split()[1]) < 1e-10 and lines[3].startswith("dual_map:")


# ---------------------------------------------------------------------------
# estimator names and inner-solve reports end to end
# ---------------------------------------------------------------------------


def round_lines(out_dir) -> list[str]:
    """The trace's round lines as written; the header, which holds the config, left out."""
    return [line for line in (out_dir / "trace.jsonl").read_text().splitlines()
            if json.loads(line)["type"] == "round"]


def test_analytic_delta_and_auto_give_the_same_round_lines(tmp_path):
    # On a T-linear loss all three names evaluate the moments at the mean, which is exact.
    von = PROP2_INI.replace("solver = conjugate", "solver = von")
    lines = {}
    for name in ("auto", "analytic", "delta"):
        out = tmp_path / name
        cfg = write(tmp_path, f"{name}.ini", f"{von}estimator = {name}\n")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines[name] = round_lines(out)
    assert len(lines["auto"]) == 3
    assert lines["analytic"] == lines["auto"] and lines["delta"] == lines["auto"]


def test_auto_solves_isotropic_quadratics_by_the_proximal_step(tmp_path):
    # Under a fixed covariance the expected quadratic is the quadratic at the mean plus a
    # constant, so the proximal step is exact; VON's plain gradient steps diverge here.
    iso = with_value(PROP2_INI, "experiment", "family", "isotropic")
    runs = {
        "auto": with_value(iso, "inner", "solver", "auto"),
        "prox": with_value(iso, "inner", "solver", "prox"),
        "delta_method": with_value(with_value(iso, "inner", "solver", "auto"),
                                   "experiment", "delta_method", "true"),
    }
    lines = {}
    for name, text in runs.items():
        out = tmp_path / name
        assert main(["run", "--config", write(tmp_path, f"{name}.ini", text), "--out", str(out)]) == 0
        lines[name] = round_lines(out)
    assert len(lines["auto"]) == 3
    assert lines["prox"] == lines["auto"] and lines["delta_method"] == lines["auto"]


def test_analytic_estimator_refuses_a_logistic_loss(tmp_path, capsys):
    # The config alone decides it, so it is a config error before any output.
    text = BLOBS_INI.replace("family = diag", "family = full") + "solver = von\nestimator = analytic\n"
    code = main(["run", "--config", write(tmp_path, "analytic.ini", text), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert ("config error: [inner] estimator: analytic needs a loss linear in T, "
            "and MulticlassLogistic is not") in err
    assert not (tmp_path / "out").exists()


def test_a_conjugate_solver_on_classification_data_is_a_config_error_before_any_output(tmp_path, capsys):
    text = BLOBS_INI.replace("family = diag", "family = full") + "solver = conjugate\n"
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, "conjugate.ini", text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert ("config error: [inner] solver: conjugate needs a loss linear in T, "
            "and MulticlassLogistic is not") in err
    assert not out.exists()
    # The same key is fine where no distribution round solves a logistic loss.
    ivon = BLOBS_INI.replace("method = bayes_admm", "method = ivon_admm") + "solver = conjugate\n"
    assert main(["run", "--config", write(tmp_path, "ivon.ini", ivon), "--out", str(out)]) == 0


def test_a_diag_reparam_run_is_seeded_and_the_delta_method_replaces_it(tmp_path):
    reparam = OUTLIER_BAYES_INI + "\n[inner]\nestimator = reparam\nmc_count = 8\n"
    runs = {
        "reparam": reparam,
        "again": reparam,
        "delta": OUTLIER_BAYES_INI,
        "delta_method": reparam.replace("[experiment]\n", "[experiment]\ndelta_method = true\n"),
    }
    lines = {}
    for name, text in runs.items():
        out = tmp_path / name
        assert main(["run", "--config", write(tmp_path, f"{name}.ini", text), "--out", str(out)]) == 0
        lines[name] = round_lines(out)
    assert len(lines["reparam"]) == 2 and lines["again"] == lines["reparam"]
    assert lines["reparam"] != lines["delta"]
    assert lines["delta_method"] == lines["delta"]


# The full_logreg benchmark workload at workload seed 28, its derived seeds
# (data, test, split, experiment) written out.
FULL_LOGREG_SEED_28_INI = """
[experiment]
method = bayes_admm
family = full
rounds = 12
seed = 972408974
workers = 1

[data]
kind = blobs
n_per_class = 100
classes = 10
d = 2
spread = 0.6
radius = 2.0
center = 4.0
seed = 485147340
test_seed = 562005788
test_n = 50

[split]
kind = class_partition
assignments = 0,1|2,3|4,5|6,7|8,9

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


def test_full_logreg_workload_seed_28_escapes_in_round_1(tmp_path):
    # Client 2 (classes 4 and 5) leaves the family at VON step 2 of round 1; round 0's
    # solves stop at their 30-step cap.
    out = tmp_path / "out"
    cfg = write(tmp_path, "seed28.ini", FULL_LOGREG_SEED_28_INI)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds_completed"] == 1 and summary["diverged"]
    event = summary["event"]
    assert (event["type"], event["reason"], event["round"]) == ("divergence", "PrecisionEscape", 1)
    assert "at step 2" in event["detail"]
    rounds = [json.loads(line) for line in round_lines(out)]
    assert len(rounds) == 1 and rounds[0]["inner_converged"] is False
