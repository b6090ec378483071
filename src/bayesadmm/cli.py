"""Command-line front end: configure, run, sweep, verify, and export experiments.

Configuration lives in an INI file (sections below); command-line flags
override file values.  Every run writes a JSON-lines trace whose header embeds
the fully-resolved configuration and its hash, so any chart or table is
reproducible from config + seed alone.

Sections and keys::

    [experiment] method family rounds seed workers tol_dist
    [data]       kind (ridge|blobs|outlier_toy|mnist|csv) + kind-specific keys
    [split]      kind (homogeneous|class_partition|dirichlet) K seed
                 assignments (e.g. 0,1|2,3|4,5|6,7|8,9) concentration
    [hyper]      rho gamma tau delta damping alpha
    [inner]      solver steps beta tol estimator mc_count lr
                 ivon_steps ivon_lr ivon_beta1 ivon_beta2 ivon_h0 ivon_batch
    [sweep]      rho tau (comma-separated grids)

Exit codes: 0 completed, 2 completed with a reported divergence, 1 error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import traceback

import numpy as np

from . import __version__
from .errors import BayesAdmmError, CheckpointError, ConfigError
from .families import Family, NatParam
from .federation import (
    InnerConfig,
    MethodConfig,
    checkpoint_from_jsonable,
    checkpoint_to_jsonable,
    init_bayes_states,
    init_point_states,
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

_SECTION_KEYS = {
    "experiment": {"method", "family", "rounds", "seed", "workers", "tol_dist", "delta_method"},
    "data": {
        "kind", "n", "d", "noise_sd", "seed", "n_per_class", "classes", "spread",
        "radius", "center", "bias", "images", "labels", "limit", "path",
        "test_seed", "test_n",
    },
    "split": {"kind", "k", "seed", "assignments", "concentration"},
    "hyper": {"rho", "gamma", "tau", "delta", "damping", "alpha"},
    "inner": {
        "solver", "steps", "beta", "tol", "estimator", "mc_count", "lr",
        "ivon_steps", "ivon_lr", "ivon_beta1", "ivon_beta2", "ivon_h0", "ivon_batch",
        "local_steps",
    },
    "sweep": {"rho", "tau"},
}

_DEFAULTS = {
    "experiment": {
        "method": "bayes_admm", "family": "full", "rounds": "20", "seed": "0",
        "workers": "1", "tol_dist": "1e-8", "delta_method": "false",
    },
    "data": {"kind": "ridge", "n": "100", "d": "10", "noise_sd": "0.3", "seed": "0",
             "n_per_class": "100", "classes": "10", "spread": "0.6", "radius": "2.0",
             "center": "4.0", "bias": "true", "limit": "5000", "test_seed": "",
             "test_n": "50"},
    "split": {"kind": "homogeneous", "k": "2", "seed": "0",
              "assignments": "", "concentration": "1.0"},
    "hyper": {"rho": "0.5", "gamma": "", "tau": "1.0", "delta": "1.0",
              "damping": "1.0", "alpha": ""},
    "inner": {"solver": "auto", "steps": "500", "beta": "0.5", "tol": "1e-8",
              "estimator": "auto", "mc_count": "64", "lr": "",
              "ivon_steps": "1000", "ivon_lr": "0.1", "ivon_beta1": "0.9",
              "ivon_beta2": "0.99999", "ivon_h0": "0.1", "ivon_batch": "",
              "local_steps": "10"},
}


def _load_config(path: str | None) -> dict[str, dict[str, str]]:
    conf = {sec: dict(vals) for sec, vals in _DEFAULTS.items()}
    conf["sweep"] = {}
    if path is None:
        return conf
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            conf.setdefault(section, {})[key] = value
    return conf


def _override(conf, args) -> None:
    pairs = [
        ("experiment", "seed", args.seed),
        ("experiment", "rounds", args.rounds),
        ("experiment", "method", args.method),
        ("experiment", "family", args.family),
        ("hyper", "rho", args.rho),
        ("hyper", "gamma", args.gamma),
        ("hyper", "tau", args.tau),
        ("hyper", "delta", args.delta),
        ("hyper", "damping", args.damping),
    ]
    for section, key, value in pairs:
        if value is not None:
            conf[section][key] = str(value)


def _req_float(conf, section, key):
    raw = conf[section].get(key, "")
    if raw == "":
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc


def _req_int(conf, section, key):
    raw = conf[section].get(key, "")
    if raw == "":
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from exc


def _int_or(conf, section, key, default):
    value = _req_int(conf, section, key)
    return default if value is None else value


def _positive(conf, section, key, default, read=_req_float):
    """A value > 0, or ``default`` when the key is empty; zero or less is a ConfigError."""
    value = read(conf, section, key)
    if value is None:
        return default
    if not value > 0:
        raise ConfigError(f"[{section}] {key}: must be > 0, got {value!r}")
    return value


def _req_bool(conf, section, key):
    raw = conf[section].get(key, "false").strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off", ""):
        return False
    raise ConfigError(f"[{section}] {key}: not a boolean: {raw!r}")


def _config_hash(conf: dict) -> str:
    canon = json.dumps(conf, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


def _data_files(conf) -> dict[str, str]:
    """The input files a config reads, by ``[data]`` key; generated data reads none."""
    d = conf["data"]
    kind = d.get("kind", "ridge")
    if kind == "mnist":
        data_dir = os.environ.get("BAYES_ADMM_DATA", ".")
        return {
            "images": d.get("images") or os.path.join(data_dir, "train-images-idx3-ubyte"),
            "labels": d.get("labels") or os.path.join(data_dir, "train-labels-idx1-ubyte"),
        }
    if kind == "csv":
        if not d.get("path"):
            raise ConfigError("[data] csv kind needs a path")
        return {"path": d["path"]}
    return {}


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _build_data(conf) -> tuple[Dataset, Dataset | None, list | None]:
    """Returns (train, test-or-None, explicit-shard-indices-or-None)."""
    d = conf["data"]
    kind = d.get("kind", "ridge")
    seed = _req_int(conf, "data", "seed") or 0
    if kind == "ridge":
        train = gen_ridge(_req_int(conf, "data", "n"), _req_int(conf, "data", "d"),
                          _req_float(conf, "data", "noise_sd"), seed)
        return train, None, None
    if kind == "blobs":
        kw = dict(
            n_classes=_req_int(conf, "data", "classes"),
            d=_positive(conf, "data", "d", 2, read=_req_int),
            spread=_req_float(conf, "data", "spread"),
            radius=_req_float(conf, "data", "radius"),
            center=_req_float(conf, "data", "center"),
        )
        train = gen_blobs(_req_int(conf, "data", "n_per_class"), seed=seed, **kw)
        test = None
        if d.get("test_seed", "") != "":
            test = gen_blobs(_req_int(conf, "data", "test_n"),
                             seed=_req_int(conf, "data", "test_seed"), **kw)
        if _req_bool(conf, "data", "bias"):
            train = append_bias(train)
            test = append_bias(test) if test is not None else None
        return train, test, None
    if kind == "outlier_toy":
        toy = gen_outlier_toy(seed)
        test = toy.data.subset(toy.test_indices())
        return toy.data, test, [np.asarray(i) for i in toy.client_indices]
    if kind == "mnist":
        files = _data_files(conf)
        train = load_idx(files["images"], files["labels"], _req_int(conf, "data", "limit"))
        if _req_bool(conf, "data", "bias"):
            train = append_bias(train)
        return train, None, None
    if kind == "csv":
        table = np.genfromtxt(_data_files(conf)["path"], delimiter=",", skip_header=1)
        x, y = table[:, :-1], table[:, -1]
        classes = int(y.max()) + 1 if np.allclose(y, y.astype(int)) and y.min() >= 0 else 0
        return Dataset(x, y, classes), None, None
    raise ConfigError(f"[data] unknown kind {kind!r}")


def _build_plan(conf, ds: Dataset) -> SplitPlan:
    s = conf["split"]
    kind = s.get("kind", "homogeneous")
    k = _req_int(conf, "split", "k")
    seed = _req_int(conf, "split", "seed") or 0
    if kind == "class_partition":
        raw = s.get("assignments", "")
        if not raw:
            raise ConfigError("[split] class_partition needs assignments")
        groups = tuple(tuple(int(c) for c in grp.split(",")) for grp in raw.split("|"))
        return SplitPlan(kind, len(groups), seed, assignments=groups)
    if kind == "dirichlet":
        return SplitPlan(kind, k, seed, concentration=_req_float(conf, "split", "concentration"))
    return SplitPlan("homogeneous", k, seed)


def _family(name: str, dim: int, delta: float) -> tuple[Family, NatParam]:
    if name == "isotropic":
        fam = Family.isotropic(dim)
        return fam, NatParam(fam, np.zeros(dim))
    if name == "diag":
        fam = Family.diag(dim)
        return fam, NatParam(fam, np.zeros(dim), delta * np.ones(dim))
    if name == "full":
        fam = Family.full(dim)
        return fam, NatParam(fam, np.zeros(dim), delta * np.eye(dim))
    raise ConfigError(f"unknown family {name!r}")


def _inner_config(conf) -> InnerConfig:
    i = conf["inner"]
    batch = _req_int(conf, "inner", "ivon_batch")
    ivon = IvonConfig(
        steps=_req_int(conf, "inner", "ivon_steps"),
        lr=_req_float(conf, "inner", "ivon_lr"),
        beta1=_req_float(conf, "inner", "ivon_beta1"),
        beta2=_req_float(conf, "inner", "ivon_beta2"),
        h0=_req_float(conf, "inner", "ivon_h0"),
        batch_size=batch,
    )
    return InnerConfig(
        solver=i.get("solver", "auto"),
        steps=_req_int(conf, "inner", "steps"),
        beta=_req_float(conf, "inner", "beta"),
        tol=_req_float(conf, "inner", "tol"),
        lr=_req_float(conf, "inner", "lr"),
        estimator=i.get("estimator", "auto"),
        mc_count=_req_int(conf, "inner", "mc_count"),
        ivon=ivon,
    )


def _assemble(conf):
    """Build (server, clients, method_cfg, oracle, test, extras) from a config."""
    train, test, explicit = _build_data(conf)
    if explicit is not None:
        shards = [train.subset(idx) for idx in explicit]
    else:
        shards = split(train, _build_plan(conf, train))
    method = conf["experiment"]["method"]
    family_name = conf["experiment"]["family"]
    rho = _req_float(conf, "hyper", "rho")
    gamma = _req_float(conf, "hyper", "gamma")
    tau = _positive(conf, "hyper", "tau", 1.0)
    delta = _positive(conf, "hyper", "delta", 1.0)
    alpha = _req_float(conf, "hyper", "alpha")
    if train.n_classes:
        losses = classification_losses(shards, train.n_classes)
        oracle = None
    else:
        losses = ridge_losses(shards)
        oracle = conjugate_oracle(delta, shards)
    ns = [s.n for s in shards]
    dim = losses[0].dim
    inner = _inner_config(conf)
    cfg = MethodConfig(
        method,
        inner=inner,
        delta_method=_req_bool(conf, "experiment", "delta_method"),
        damping=_positive(conf, "hyper", "damping", 1.0),
        local_steps=_int_or(conf, "inner", "local_steps", 10),
        lr=_positive(conf, "inner", "lr", 0.1),
        workers=_positive(conf, "experiment", "workers", 1, read=_req_int),
    )
    if method in ("admm", "fedavg"):
        server, clients = init_point_states(dim, losses, ns, rho, delta=delta)
    else:
        fam_name = "diag" if method == "ivon_admm" else family_name
        fam, prior = _family(fam_name, dim, delta)
        server, clients = init_bayes_states(
            prior, losses, ns, rho, gamma=gamma, tau=tau, alpha_override=alpha
        )
    return server, clients, cfg, oracle, test


def _sanitize(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_line(fh, record: dict) -> None:
    """One flushed trace line, so a run that stops keeps every line written so far."""
    fh.write(json.dumps(record, sort_keys=True) + "\n")
    fh.flush()


def _write_svg(path, series: dict[str, list[float]], title: str) -> None:
    """Minimal standalone line chart; CSV/JSONL stay the canonical outputs."""
    width, height, pad = 640, 360, 40
    pts_all = [(i, v) for vals in series.values() for i, v in enumerate(vals) if math.isfinite(v)]
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
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width//2}" y="16" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="#333"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="#333"/>',
        f'<text x="{pad}" y="{height-pad+16}" font-size="10">0</text>',
        f'<text x="{width-pad}" y="{height-pad+16}" font-size="10" text-anchor="end">{xmax}</text>',
        f'<text x="{pad-4}" y="{height-pad}" font-size="10" text-anchor="end">{ymin:.3g}</text>',
        f'<text x="{pad-4}" y="{pad+4}" font-size="10" text-anchor="end">{ymax:.3g}</text>',
    ]
    for idx, (name, vals) in enumerate(sorted(series.items())):
        pts = " ".join(
            f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(vals) if math.isfinite(v)
        )
        color = colors[idx % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width-pad}" y="{pad + 14*idx}" font-size="11" fill="{color}" text-anchor="end">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    conf = _load_config(args.config)
    _override(conf, args)
    seed = _int_or(conf, "experiment", "seed", 0)
    rounds = _int_or(conf, "experiment", "rounds", 20)
    tol_dist = _positive(conf, "experiment", "tol_dist", 1e-8)
    server, clients, cfg, oracle, test = _assemble(conf)
    data_sha256 = {key: _file_sha256(path) for key, path in _data_files(conf).items()}

    def verify_fn(s, c):
        return {f"residual_{k}": v for k, v in verify_fixed_point(s, c).as_dict().items()}

    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    header = {
        "config": conf,
        "config_hash": _config_hash(conf),
        "inner_tol": _req_float(conf, "inner", "tol"),
        "version": __version__,
    }
    with open(os.path.join(out_dir, "trace.jsonl"), "w") as trace:
        _write_line(trace, {"type": "header", **header})
        result = run_rounds(
            server, clients, cfg, rounds, base_seed=seed,
            metrics_fn=lambda s, c: metrics(s, oracle=oracle, test=test, seed=seed),
            verify_fn=verify_fn if server.lam_g is not None else None,
            on_record=lambda rec: _write_line(
                trace, {"type": "round", **{k: _sanitize(v) for k, v in rec.items()}}),
        )
    rounds_to_tol = None
    for rec in result.records:
        dist = rec.get("dist_to_oracle")
        if dist is not None and dist <= tol_dist:
            rounds_to_tol = rec["round"] + 1
            break
    summary = {
        "method": cfg.method,
        "rounds_completed": result.rounds_completed,
        "diverged": result.diverged,
        "event": result.event,
        "rounds_to_tol": rounds_to_tol,
        "config_hash": header["config_hash"],
        "final": {k: _sanitize(v) for k, v in (result.records[-1].items() if result.records else [])},
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "checkpoint.json"), "w") as fh:
        checkpoint = checkpoint_to_jsonable(server, clients, cfg.method)
        checkpoint.update(config=conf, config_hash=header["config_hash"], data_sha256=data_sha256)
        json.dump(checkpoint, fh, sort_keys=True)
    if args.svg:
        metric = "dist_to_oracle" if oracle is not None else ("nll_mean" if test is not None else None)
        if metric:
            vals = [rec.get(metric, float("nan")) for rec in result.records]
            vals = [v if v is not None else float("nan") for v in vals]
            _write_svg(os.path.join(out_dir, "chart.svg"), {metric: vals}, f"{cfg.method}: {metric}")
    print(json.dumps(summary, sort_keys=True))
    if result.failed:
        ev = result.event
        traceback.print_exception(result.error, file=sys.stderr)
        print(f"error: round {ev['round']} {ev['phase']}: {ev['reason']}: {ev['detail']}", file=sys.stderr)
        return 1
    return 2 if result.diverged else 0


def cmd_sweep(args) -> int:
    conf = _load_config(args.config)
    _override(conf, args)
    grids = conf.get("sweep", {})
    rhos = [float(x) for x in grids.get("rho", conf["hyper"]["rho"]).split(",")]
    taus = [float(x) for x in grids.get("tau", conf["hyper"]["tau"]).split(",")]
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for rho in rhos:
        for tau in taus:
            cell = json.loads(json.dumps(conf))  # deep copy
            cell["hyper"]["rho"] = str(rho)
            cell["hyper"]["tau"] = str(tau)
            try:
                server, clients, cfg, oracle, test = _assemble(cell)
                seed = _int_or(cell, "experiment", "seed", 0)
                rounds = _int_or(cell, "experiment", "rounds", 20)
                metrics_fn = lambda s, c: metrics(s, oracle=oracle, test=test, seed=seed)  # noqa: E731
                result = run_rounds(server, clients, cfg, rounds, base_seed=seed, metrics_fn=metrics_fn)
                last = result.records[-1] if result.records else {}
                rows.append({
                    "rho": rho,
                    "tau": tau,
                    "alpha": 1.0 / (1.0 + rho * server.K),
                    "rounds": result.rounds_completed,
                    "converged": not (result.diverged or result.failed),
                    "dist_to_oracle": _sanitize(last.get("dist_to_oracle")),
                    "nll_mean": _sanitize(last.get("nll_mean")),
                    "error": result.event["reason"] if result.failed else "",
                })
            except BayesAdmmError as exc:
                rows.append({"rho": rho, "tau": tau, "alpha": "", "rounds": 0,
                             "converged": False, "dist_to_oracle": None,
                             "nll_mean": None, "error": type(exc).__name__})
    csv_path = os.path.join(out_dir, "sweep.csv")
    cols = ["rho", "tau", "alpha", "rounds", "converged", "dist_to_oracle", "nll_mean", "error"]
    with open(csv_path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join("" if row[c] is None else str(row[c]) for c in cols) + "\n")
    print(csv_path)
    return 0


def _server_settings(method: str, s) -> tuple:
    """What a config fixes about a server; a checkpoint must agree with its config on it."""
    return (method, s.rho, s.gamma, s.tau, s.K, s.delta, s.alpha_override,
            s.fam and (s.fam.kind, s.fam.dim))


def cmd_verify(args) -> int:
    """Rebuild the losses from the checkpoint's config and data files, then check the state."""
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
        for key, path in _data_files(conf).items():
            try:
                digest = _file_sha256(path)
            except OSError as exc:
                raise CheckpointError(f"data file [data] {key} = {path!r}: {exc.strerror}") from exc
            if digest != data["data_sha256"].get(key):
                raise CheckpointError(f"data file [data] {key} = {path!r} has SHA-256 {digest}, "
                                      f"the checkpoint recorded {data['data_sha256'].get(key)}")
        built, rebuilt, _, _, _ = _assemble(conf)
        server, clients, method = checkpoint_from_jsonable(data, [c.loss for c in rebuilt])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"cannot read {where}: {exc!r}") from exc
    stored = _server_settings(method, server)
    expected = _server_settings(conf["experiment"]["method"], built)
    if stored != expected:
        raise CheckpointError(f"{where}: server settings {stored} disagree "
                              f"with the ones its config builds, {expected}")
    if server.lam_g is None:
        raise CheckpointError("checkpoint has no distribution-valued server state to verify")
    report = verify_fixed_point(server, clients)
    tol = args.tol
    for name, value in report.as_dict().items():
        print(f"{name}: {value:.3e}")
    ok = report.ok(tol)
    print(f"max residual {report.max_residual:.3e} {'<' if ok else '>='} tol {tol:g}")
    return 0 if ok else 3


def cmd_oracle(args) -> int:
    conf = _load_config(args.config)
    _override(conf, args)
    train, _, explicit = _build_data(conf)
    if train.n_classes:
        raise ConfigError("the conjugate oracle needs a regression (ridge) dataset")
    shards = (
        [train.subset(idx) for idx in explicit]
        if explicit is not None
        else split(train, _build_plan(conf, train))
    )
    delta = _positive(conf, "hyper", "delta", 1.0)
    oracle = conjugate_oracle(delta, shards)
    out = {
        "kind": oracle.kind,
        "mean": oracle.lam.m.tolist(),
        "precision": oracle.lam.prec.tolist(),
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bayesadmm",
        description="Federated ADMM and Bayesian-ADMM experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--rounds", type=int)
        p.add_argument("--method")
        p.add_argument("--rho", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--tau", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--damping", type=float)
        p.add_argument("--family")
        p.add_argument("--svg", action="store_true", help="also render a line chart")

    p_run = sub.add_parser("run", help="execute rounds and write trace/summary/checkpoint")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid over rho/tau; emits CSV")
    common(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="fixed-point residuals of a checkpoint")
    p_verify.add_argument("checkpoint")
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.set_defaults(fn=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="print the conjugate oracle for a config")
    common(p_oracle)
    p_oracle.set_defaults(fn=cmd_oracle)

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
