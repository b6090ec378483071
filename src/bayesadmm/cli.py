"""Command-line front end: configure, run, sweep, verify, and export experiments.

Configuration lives in an INI file (sections below); command-line flags
override file values.  Every run writes a JSON-lines trace whose header embeds
the fully-resolved configuration and its hash, so any chart or table is
reproducible from config + seed alone.

Sections and keys (``_TABLE`` gives each one's type, default and allowed values)::

    [experiment] method family rounds seed workers tol_dist delta_method
    [data]       kind (ridge|blobs|outlier_toy|mnist|csv) seed n d noise_sd
                 n_per_class classes spread radius center bias test_seed test_n
                 images labels limit path
    [split]      kind (homogeneous|class_partition|dirichlet) k seed
                 assignments (e.g. 0,1|2,3|4,5|6,7|8,9) concentration
    [hyper]      rho gamma tau delta damping alpha
    [inner]      solver steps beta tol estimator mc_count lr local_steps
                 ivon_steps ivon_lr ivon_beta1 ivon_beta2 ivon_h0 ivon_batch
    [sweep]      rho tau (comma-separated grids)

A missing key takes its default.  An empty value means "unset" for gamma,
alpha, lr, ivon_batch, test_seed, assignments, images, labels and path, and
is a config error anywhere else.  Every value is checked before a run writes
anything.  ``workers`` accepts only 1 and sizes nothing: a run's IVON solves
use one forked worker per usable CPU (``federation.run_rounds``), and every
other client step runs on the calling thread, with the same outputs either
way; the key stays so that configs and traces that set it keep their hash.

Exit codes: 0 completed, 2 completed with a reported divergence, 1 error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import json
import math
import os
import sys
import traceback
from collections import namedtuple

import numpy as np

from . import __version__
from .errors import BayesAdmmError, CheckpointError, ConfigError
from .families import Family, NatParam
from .federation import (
    METHODS,
    InnerConfig,
    MethodConfig,
    checkpoint_from_jsonable,
    checkpoint_to_jsonable,
    init_bayes_states,
    init_point_states,
    pick_solver,
    require_checkpoint_format,
    run_rounds,
    verify_fixed_point,
)
from .harness import (
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
    ridge_losses,
    split,
)
from .solvers import IvonConfig


def _bool(raw: str) -> bool:
    raw = raw.strip().lower()
    if raw in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        return raw in ("1", "true", "yes", "on")
    raise ValueError(raw)


def _groups(raw: str) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(c) for c in grp.split(",")) for grp in raw.split("|"))


_WHAT = {int: "an integer", float: "a number", _bool: "a boolean",
         _groups: "class groups such as 0,1|2,3"}

_POSITIVE = (lambda v: v > 0, "> 0")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_UNIT = (lambda v: 0 < v <= 1, "in (0, 1]")
_OPEN_UNIT = (lambda v: 0 < v < 1, "in (0, 1)")
_DISJOINT = (lambda v: len({c for grp in v for c in grp}) == sum(map(len, v)),
             "groups with no class in two of them")


def _one_of(*names):
    return (lambda v: v in names, "one of " + "|".join(names))


# One entry per config key.  ``default`` is the string a missing key resolves
# to; "" and None (no default, key absent unless given) mean an empty value is
# "unset" (None), while any other key rejects an empty value.  ``check`` is
# (predicate, description) on the parsed value; ``flag`` overrides the key.
_Key = namedtuple("_Key", "section key parser default check flag", defaults=(None, None))
_TABLE = (
    _Key("experiment", "method", str, "bayes_admm", _one_of(*METHODS), "--method"),
    _Key("experiment", "family", str, "full", _one_of("isotropic", "diag", "full"), "--family"),
    _Key("experiment", "rounds", int, "20", _NONNEGATIVE, "--rounds"),
    _Key("experiment", "seed", int, "0", _NONNEGATIVE, "--seed"),
    _Key("experiment", "workers", int, "1", (lambda v: v == 1, "1 (the client thread pool it sized was removed)")),
    _Key("experiment", "tol_dist", float, "1e-8", _POSITIVE),
    _Key("experiment", "delta_method", _bool, "false"),
    _Key("data", "kind", str, "ridge", _one_of("ridge", "blobs", "outlier_toy", "mnist", "csv")),
    _Key("data", "seed", int, "0", _NONNEGATIVE),
    _Key("data", "n", int, "100", _POSITIVE),
    _Key("data", "d", int, "10", _POSITIVE),
    _Key("data", "noise_sd", float, "0.3", _NONNEGATIVE),
    _Key("data", "n_per_class", int, "100", _POSITIVE),
    _Key("data", "classes", int, "10", _POSITIVE),
    _Key("data", "spread", float, "0.6", _NONNEGATIVE),
    _Key("data", "radius", float, "2.0"),
    _Key("data", "center", float, "4.0"),
    _Key("data", "bias", _bool, "true"),
    _Key("data", "test_seed", int, "", _NONNEGATIVE),
    _Key("data", "test_n", int, "50", _POSITIVE),
    _Key("data", "images", str, None),
    _Key("data", "labels", str, None),
    _Key("data", "limit", int, "5000", _POSITIVE),
    _Key("data", "path", str, None),
    _Key("split", "kind", str, "homogeneous", _one_of("homogeneous", "class_partition", "dirichlet")),
    _Key("split", "k", int, "2", _POSITIVE),
    _Key("split", "seed", int, "0", _NONNEGATIVE),
    _Key("split", "assignments", _groups, "", _DISJOINT),
    _Key("split", "concentration", float, "1.0", _POSITIVE),
    _Key("hyper", "rho", float, "0.5", _POSITIVE, "--rho"),
    _Key("hyper", "gamma", float, "", _POSITIVE, "--gamma"),
    _Key("hyper", "tau", float, "1.0", _POSITIVE, "--tau"),
    _Key("hyper", "delta", float, "1.0", _POSITIVE, "--delta"),
    _Key("hyper", "damping", float, "1.0", _UNIT, "--damping"),
    _Key("hyper", "alpha", float, ""),
    _Key("inner", "solver", str, "auto", _one_of("auto", "conjugate", "von", "prox", "ivon")),
    _Key("inner", "steps", int, "500", _NONNEGATIVE),
    _Key("inner", "beta", float, "0.5", _UNIT),
    _Key("inner", "tol", float, "1e-8", _NONNEGATIVE),
    _Key("inner", "estimator", str, "auto", _one_of("auto", "analytic", "delta", "mc", "reparam")),
    _Key("inner", "mc_count", int, "64", _POSITIVE),
    _Key("inner", "lr", float, "", _POSITIVE),
    _Key("inner", "local_steps", int, "10", _NONNEGATIVE),
    _Key("inner", "ivon_steps", int, "1000", _NONNEGATIVE),
    _Key("inner", "ivon_lr", float, "0.1", _POSITIVE),
    _Key("inner", "ivon_beta1", float, "0.9", _OPEN_UNIT),
    _Key("inner", "ivon_beta2", float, "0.99999", _OPEN_UNIT),
    _Key("inner", "ivon_h0", float, "0.1", _NONNEGATIVE),
    _Key("inner", "ivon_batch", int, "", _POSITIVE),
    # Comma-separated grids; each item is read as the [hyper] key of that name.
    _Key("sweep", "rho", None, None),
    _Key("sweep", "tau", None, None),
)
_ENTRY = {(k.section, k.key): k for k in _TABLE}


def _value(entry: _Key, raw: str | None, section: str | None = None):
    """``raw`` parsed and checked by ``entry``; None when it is unset."""
    where = f"[{section or entry.section}] {entry.key}"
    if raw is None or (raw == "" and entry.default in ("", None)):
        return None
    if raw == "":
        raise ConfigError(f"{where}: empty value; leave the key out to take its default")
    try:
        value = entry.parser(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: not {_WHAT[entry.parser]}: {raw!r}") from exc
    if entry.check is not None and not entry.check[0](value):
        raise ConfigError(f"{where}: must be {entry.check[1]}, got {value!r}")
    return value


def _resolve(conf: dict) -> dict:
    """Typed values of a resolved string config.  Nothing is filled in: a
    missing section, or a missing key that has a default, is a KeyError."""
    typed: dict = {k.section: {} for k in _TABLE}
    for k in _TABLE:
        raw = conf[k.section][k.key] if k.default is not None else conf[k.section].get(k.key)
        if k.section == "sweep":
            item = _ENTRY["hyper", k.key]
            typed["sweep"][k.key] = None if raw is None else [
                _value(item, x, "sweep") for x in raw.split(",")]
        else:
            typed[k.section][k.key] = _value(k, raw)
    if typed["data"]["kind"] == "csv" and typed["data"]["path"] is None:
        raise ConfigError("[data] csv kind needs a path")
    if typed["split"]["kind"] == "class_partition" and typed["split"]["assignments"] is None:
        raise ConfigError("[split] class_partition needs assignments")
    e = typed["experiment"]
    if e["method"] == "ivon_admm" and e["family"] != "diag":
        raise ConfigError(f"[experiment] family: ivon_admm needs diag, got {e['family']!r}")
    return typed


def _configure(args) -> tuple[dict, dict]:
    """Defaults, ``--config`` and flags as resolved strings (what the trace and checkpoint
    store; a flag as ``str(int(x))`` or ``str(float(x))``) and as typed values."""
    conf: dict = {k.section: {} for k in _TABLE}
    for k in _TABLE:
        if k.default is not None:
            conf[k.section][k.key] = k.default
    path = args.config
    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            if section not in conf:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, value in parser.items(section):
                if (section, key) not in _ENTRY:
                    raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
                conf[section][key] = value
    for k in _TABLE:
        if k.flag and getattr(args, k.key) is not None:
            conf[k.section][k.key] = str(getattr(args, k.key))
    return conf, _resolve(conf)


def _config_hash(conf: dict) -> str:
    canon = json.dumps(conf, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


def _data_files(c) -> dict[str, str]:
    """The input files a config reads, by ``[data]`` key; generated data reads none."""
    d = c["data"]
    if d["kind"] == "mnist":
        data_dir = os.environ.get("BAYES_ADMM_DATA", ".")
        return {
            "images": d["images"] or os.path.join(data_dir, "train-images-idx3-ubyte"),
            "labels": d["labels"] or os.path.join(data_dir, "train-labels-idx1-ubyte"),
        }
    if d["kind"] == "csv":
        return {"path": d["path"]}
    return {}


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _build_data(c) -> tuple[Dataset, Dataset | None, list | None]:
    """Returns (train, test-or-None, explicit-shard-indices-or-None)."""
    d = c["data"]
    kind, seed = d["kind"], d["seed"]
    if kind == "ridge":
        return gen_ridge(d["n"], d["d"], d["noise_sd"], seed), None, None
    if kind == "blobs":
        kw = dict(n_classes=d["classes"], d=d["d"], spread=d["spread"],
                  radius=d["radius"], center=d["center"])
        train = gen_blobs(d["n_per_class"], seed=seed, **kw)
        test = None
        if d["test_seed"] is not None:
            test = gen_blobs(d["test_n"], seed=d["test_seed"], **kw)
        if d["bias"]:
            train = append_bias(train)
            test = append_bias(test) if test is not None else None
        return train, test, None
    if kind == "outlier_toy":
        toy = gen_outlier_toy(seed)
        test = toy.data.subset(toy.test_indices())
        return toy.data, test, [np.asarray(i) for i in toy.client_indices]
    if kind == "mnist":
        files = _data_files(c)
        train = load_idx(files["images"], files["labels"], d["limit"])
        return (append_bias(train) if d["bias"] else train), None, None
    table = np.genfromtxt(_data_files(c)["path"], delimiter=",", skip_header=1)
    x, y = table[:, :-1], table[:, -1]
    classes = int(y.max()) + 1 if np.allclose(y, y.astype(int)) and y.min() >= 0 else 0
    return Dataset(x, y, classes), None, None


def _build_plan(c) -> SplitPlan:
    s = c["split"]
    if s["kind"] == "class_partition":
        return SplitPlan(s["kind"], len(s["assignments"]), s["seed"], assignments=s["assignments"])
    return SplitPlan(s["kind"], s["k"], s["seed"], concentration=s["concentration"])


def _prior(name: str, dim: int, delta: float) -> NatParam:
    if name == "isotropic":
        return NatParam(Family.isotropic(dim), np.zeros(dim))
    if name == "diag":
        return NatParam(Family.diag(dim), np.zeros(dim), delta * np.ones(dim))
    return NatParam(Family.full(dim), np.zeros(dim), delta * np.eye(dim))


_Setup = namedtuple("_Setup", "server clients cfg oracle test")


def _assemble(c) -> _Setup:
    """The states, method config, oracle (ridge only) and test set a typed config builds."""
    train, test, explicit = _build_data(c)
    if explicit is not None:
        shards = [train.subset(idx) for idx in explicit]
    else:
        shards = split(train, _build_plan(c))
    h = c["hyper"]
    if train.n_classes:
        losses = classification_losses(shards, train.n_classes)
        oracle = None
    else:
        losses = ridge_losses(shards)
        oracle = conjugate_oracle(h["delta"], shards)
    ns = [s.n for s in shards]
    dim = losses[0].dim
    e, i = c["experiment"], c["inner"]
    ivon = IvonConfig(steps=i["ivon_steps"], lr=i["ivon_lr"], beta1=i["ivon_beta1"],
                      beta2=i["ivon_beta2"], h0=i["ivon_h0"], batch_size=i["ivon_batch"])
    inner = InnerConfig(solver=i["solver"], steps=i["steps"], beta=i["beta"], tol=i["tol"],
                        lr=i["lr"], estimator=i["estimator"], mc_count=i["mc_count"], ivon=ivon)
    cfg = MethodConfig(e["method"], inner=inner, delta_method=e["delta_method"],
                       damping=h["damping"], local_steps=i["local_steps"],
                       lr=0.1 if i["lr"] is None else i["lr"])
    prior = None if cfg.method in ("admm", "fedavg") else _prior(e["family"], dim, h["delta"])
    if train.n_classes and cfg.method in ("bayes_admm", "bregman_admm", "pvi"):
        # A logistic loss is not linear in T: no client solve could start.
        name = type(losses[0]).__name__
        if inner.solver == "conjugate":
            raise ConfigError(f"[inner] solver: conjugate needs a loss linear in T, and {name} is not")
        if inner.estimator == "analytic" and pick_solver(inner, cfg, losses[0], prior.fam) == "von":
            raise ConfigError(f"[inner] estimator: analytic needs a loss linear in T, and {name} is not")
    if prior is None:
        server, clients = init_point_states(dim, losses, ns, h["rho"], delta=h["delta"])
    else:
        server, clients = init_bayes_states(prior, losses, ns, h["rho"],
                                            gamma=h["gamma"], tau=h["tau"], alpha_override=h["alpha"])
    return _Setup(server, clients, cfg, oracle, test)


def _play(setup: _Setup, c, on_record=None):
    """Run a setup's rounds with the metrics and fixed-point residuals every run records."""
    seed = c["experiment"]["seed"]
    return run_rounds(
        setup.server, setup.clients, setup.cfg, c["experiment"]["rounds"], base_seed=seed,
        metrics_fn=lambda s, _: metrics(s, oracle=setup.oracle, test=setup.test, seed=seed),
        verify_fn=_residuals if setup.server.lam_g is not None else None,
        on_record=on_record,
    )


def _residuals(server, clients) -> dict:
    return {f"residual_{k}": v for k, v in verify_fixed_point(server, clients).as_dict().items()}


def _sanitize(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_line(fh, record: dict) -> None:
    """One flushed trace line, so a run that stops keeps every line written so far."""
    fh.write(json.dumps(record, sort_keys=True) + "\n")
    fh.flush()


def _write_json(path: str, obj, indent: int | None = None) -> None:
    """``obj`` as JSON at ``path``, whole or not at all: written beside it, then renamed over it."""
    part = path + ".part"
    with open(part, "w") as fh:
        json.dump(obj, fh, indent=indent, sort_keys=True)
    os.replace(part, path)


def _write_svg(path, name: str, vals: list, title: str) -> None:
    """Minimal standalone line chart of one series; CSV/JSONL stay the canonical outputs."""
    width, height, pad = 640, 360, 40
    pts_all = [(i, v) for i, v in enumerate(vals) if v is not None and math.isfinite(v)]
    if not pts_all:
        return
    xmax = max(i for i, _ in pts_all) or 1
    ymin = min(v for _, v in pts_all)
    ymax = max(v for _, v in pts_all)
    if ymax == ymin:
        ymax = ymin + 1.0
    def sx(i):
        return pad + (width - 2 * pad) * i / xmax
    def sy(v):
        return height - pad - (height - 2 * pad) * (v - ymin) / (ymax - ymin)
    pts = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in pts_all)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width//2}" y="16" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="#333"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="#333"/>',
        f'<text x="{pad}" y="{height-pad+16}" font-size="10">0</text>',
        f'<text x="{width-pad}" y="{height-pad+16}" font-size="10" text-anchor="end">{xmax}</text>',
        f'<text x="{pad-4}" y="{height-pad}" font-size="10" text-anchor="end">{ymin:.3g}</text>',
        f'<text x="{pad-4}" y="{pad+4}" font-size="10" text-anchor="end">{ymax:.3g}</text>',
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        f'<text x="{width-pad}" y="{pad}" font-size="11" fill="#1f77b4" text-anchor="end">{name}</text>',
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    conf, c = _configure(args)
    setup = _assemble(c)
    data_sha256 = {key: _file_sha256(path) for key, path in _data_files(c).items()}
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    config_hash = _config_hash(conf)
    for name in ("summary.json", "checkpoint.json", "chart.svg"):  # an earlier run's record
        if os.path.exists(path := os.path.join(out_dir, name)):
            os.remove(path)
    with open(os.path.join(out_dir, "trace.jsonl"), "w") as trace:
        _write_line(trace, {"type": "header", "config": conf, "config_hash": config_hash,
                            "inner_tol": c["inner"]["tol"], "version": __version__})
        result = _play(setup, c, on_record=lambda rec: _write_line(
            trace, {"type": "round", **{k: _sanitize(v) for k, v in rec.items()}}))
    rounds_to_tol = None
    for rec in result.records:
        dist = rec.get("dist_to_oracle")
        if dist is not None and dist <= c["experiment"]["tol_dist"]:
            rounds_to_tol = rec["round"] + 1
            break
    summary = {
        "method": setup.cfg.method,
        "rounds_completed": result.rounds_completed,
        "diverged": result.diverged,
        "event": result.event,
        "rounds_to_tol": rounds_to_tol,
        "config_hash": config_hash,
        "final": {k: _sanitize(v) for k, v in (result.records[-1].items() if result.records else [])},
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary, indent=2)
    checkpoint = checkpoint_to_jsonable(setup.server, setup.clients, result.rounds_committed)
    checkpoint.update(config=conf, config_hash=config_hash, data_sha256=data_sha256)
    _write_json(os.path.join(out_dir, "checkpoint.json"), checkpoint)
    if args.svg:  # a run with neither metric has no points, so no chart
        metric = "dist_to_oracle" if setup.oracle is not None else "nll_mean"
        _write_svg(os.path.join(out_dir, "chart.svg"), metric,
                   [rec.get(metric) for rec in result.records], f"{setup.cfg.method}: {metric}")
    print(json.dumps(summary, sort_keys=True))
    if result.failed:
        ev = result.event
        traceback.print_exception(result.error, file=sys.stderr)
        print(f"error: round {ev['round']} {ev['phase']}: {ev['reason']}: {ev['detail']}", file=sys.stderr)
        return 1
    return 2 if result.diverged else 0


def cmd_sweep(args) -> int:
    """One run per (rho, tau) cell of the ``[sweep]`` grids; one ``sweep.csv`` row per cell."""
    _, c = _configure(args)
    cells = itertools.product(c["sweep"]["rho"] or [c["hyper"]["rho"]],
                              c["sweep"]["tau"] or [c["hyper"]["tau"]])
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write("rho,tau,alpha,rounds,converged,dist_to_oracle,nll_mean,error\n")
        for rho, tau in cells:
            cell = {**c, "hyper": {**c["hyper"], "rho": rho, "tau": tau}}
            try:
                setup = _assemble(cell)
                result = _play(setup, cell)
            except BayesAdmmError as exc:
                row = [rho, tau, "", 0, False, None, None, type(exc).__name__]
            else:
                last = result.records[-1] if result.records else {}
                row = [rho, tau, setup.server.alpha, result.rounds_completed,
                       not (result.diverged or result.failed), _sanitize(last.get("dist_to_oracle")),
                       _sanitize(last.get("nll_mean")), result.event["reason"] if result.failed else ""]
            fh.write(",".join("" if v is None else str(v) for v in row) + "\n")
    print(csv_path)
    return 0


def cmd_verify(args) -> int:
    """Rebuild the run from the checkpoint's config and data files, load its state, check it."""
    where = f"checkpoint {args.checkpoint!r}"
    try:
        with open(args.checkpoint) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read {where}: {exc}") from exc
    require_checkpoint_format(data)
    if "config" not in data:
        raise CheckpointError(f"{where} has no resolved config")
    conf = data["config"]
    if not isinstance(conf, dict) or _config_hash(conf) != data.get("config_hash"):
        raise CheckpointError(f"{where}: its config does not match its config_hash")
    try:
        c = _resolve(conf)
        for key, path in _data_files(c).items():
            try:
                digest = _file_sha256(path)
            except OSError as exc:
                raise CheckpointError(f"data file [data] {key} = {path!r}: {exc.strerror}") from exc
            if digest != data["data_sha256"].get(key):
                raise CheckpointError(f"data file [data] {key} = {path!r} has SHA-256 {digest}, "
                                      f"the checkpoint recorded {data['data_sha256'].get(key)}")
        setup = _assemble(c)
        checkpoint_from_jsonable(data, setup.server, setup.clients)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"cannot read {where}: {exc!r}") from exc
    if setup.server.lam_g is None:
        raise CheckpointError("checkpoint has no distribution-valued server state to verify")
    report = verify_fixed_point(setup.server, setup.clients)
    for name, value in report.as_dict().items():
        print(f"{name}: {value:.3e}")
    ok = report.ok(args.tol)
    print(f"max residual {report.max_residual:.3e} {'<' if ok else '>='} tol {args.tol:g}")
    return 0 if ok else 3


def cmd_oracle(args) -> int:
    _, c = _configure(args)
    oracle = _assemble(c).oracle
    if oracle is None:
        raise ConfigError("the conjugate oracle needs a regression (ridge) dataset")
    out = {"kind": oracle.kind, "mean": oracle.lam.m.tolist(), "precision": oracle.lam.prec.tolist()}
    print(json.dumps(out, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bayesadmm",
        description="Federated ADMM and Bayesian-ADMM experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, text in (
        ("run", cmd_run, "execute rounds and write trace/summary/checkpoint"),
        ("sweep", cmd_sweep, "grid over rho/tau; emits CSV"),
        ("oracle", cmd_oracle, "print the conjugate oracle for a config"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--out", help="output directory")
        for k in _TABLE:
            if k.flag:
                p.add_argument(k.flag, type=k.parser, help=f"overrides [{k.section}] {k.key}")
        p.add_argument("--svg", action="store_true", help="also render a line chart")
        p.set_defaults(fn=fn)

    p_verify = sub.add_parser("verify", help="fixed-point residuals of a checkpoint")
    p_verify.add_argument("checkpoint")
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BayesAdmmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
