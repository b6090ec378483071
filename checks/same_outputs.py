"""Check that a change keeps every output of ``bayesadmm run`` and ``verify`` byte for byte.

Run from anywhere, with only the standard library and the package's own
dependencies::

    python3 checks/same_outputs.py PARENT_TREE
    python3 checks/same_outputs.py PARENT_TREE --workloads full_logreg --seeds 1-240,1801-1960 --no-test-configs
    python3 checks/same_outputs.py PARENT_TREE --workloads "" --jobs 2

``PARENT_TREE`` is another checkout of the project, such as one made with
``git archive``; the tree this script sits in is the change.  A case is a
benchmark workload at one workload seed, its config text and IDX writer read
from ``perfbench/workloads.py``, or one of the configs in ``TEST_CONFIGS``,
built from the INI texts of ``tests/test_cli.py``.  For each case, each tree
writes its own inputs and runs ``bayesadmm run`` and then ``bayesadmm verify``
on its checkpoint, in a directory of its own with the same relative paths,
BLAS on one thread.  The two sides' exit codes, stdout, stderr,
``trace.jsonl``, ``summary.json`` and ``checkpoint.json`` must be equal,
except that source paths and line numbers in numpy warnings and tracebacks
are masked.

When both sides wrote a checkpoint and the two carry different ``format``
values, their bytes are not compared.  Instead each tree decodes its own ``checkpoint.json``
with its own package into the states ``cli._assemble`` rebuilds from the
stored config, and dumps every state array's raw bytes and the checkpoint's
other keys (``DECODE``); both decoders must exit 0, and the dumps must be
equal.  So a change of the checkpoint's encoding must keep every stored
state bit for bit.

Each case prints ``same`` or ``DIFF`` with the first differing output.
``--expected FILE`` names the cases a change means to alter: each line holds
a case name, a colon and the reason (blank lines and ``#`` lines are
skipped).  A listed case may differ; a listed case that comes out ``same``,
or that names no case run, is a stale entry.  Exit 0 when no unlisted case
differs and no entry is stale, 1 otherwise, 2 on a bad argument.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("full_logreg", "ridge_wide", "ivon_mnist")
OUTPUT_FILES = ("trace.jsonl", "summary.json", "checkpoint.json")

# (name, INI text of tests/test_cli.py, {"section.key": value} edits)
TEST_CONFIGS = (
    ("PROP2 bayes_admm", "PROP2_INI", {}),
    ("PROP2 admm", "PROP2_INI", {"experiment.method": "admm"}),
    ("PROP2 bregman_admm", "PROP2_INI", {"experiment.method": "bregman_admm"}),
    ("PROP2 pvi", "PROP2_INI", {"experiment.method": "pvi"}),
    ("PROP2 fedavg", "PROP2_INI", {"experiment.method": "fedavg"}),
    ("PROP2 full VON delta", "PROP2_INI", {"inner.solver": "von", "inner.estimator": "delta"}),
    ("PROP2 full VON delta tau 2", "PROP2_INI",
     {"inner.solver": "von", "inner.estimator": "delta", "hyper.tau": "2.0"}),
    ("PROP2 full VON analytic", "PROP2_INI", {"inner.solver": "von", "inner.estimator": "analytic"}),
    ("PROP2 full VON mc 5", "PROP2_INI",
     {"inner.solver": "von", "inner.estimator": "mc", "inner.mc_count": "5"}),
    ("PROP2 diag VON mc 5", "PROP2_INI",
     {"experiment.family": "diag", "inner.solver": "von", "inner.estimator": "mc", "inner.mc_count": "5"}),
    ("PROP2 diag auto", "PROP2_INI", {"experiment.family": "diag", "inner.solver": "auto"}),
    ("PROP2 isotropic auto", "PROP2_INI", {"experiment.family": "isotropic", "inner.solver": "auto"}),
    ("PROP2 isotropic auto delta_method", "PROP2_INI",
     {"experiment.family": "isotropic", "inner.solver": "auto", "experiment.delta_method": "true"}),
    ("BLOBS diag", "BLOBS_INI", {}),
    ("BLOBS full", "BLOBS_INI", {"experiment.family": "full"}),
    ("BLOBS full VON mc 1", "BLOBS_INI",
     {"experiment.family": "full", "inner.solver": "von", "inner.estimator": "mc", "inner.mc_count": "1"}),
    ("BLOBS full VON mc 7", "BLOBS_INI",
     {"experiment.family": "full", "inner.solver": "von", "inner.estimator": "mc", "inner.mc_count": "7"}),
    ("BLOBS full VON analytic", "BLOBS_INI",
     {"experiment.family": "full", "inner.solver": "von", "inner.estimator": "analytic"}),
    ("BLOBS full tau 1.5", "BLOBS_INI", {"experiment.family": "full", "hyper.tau": "1.5"}),
    ("BLOBS full bregman_admm", "BLOBS_INI", {"experiment.family": "full", "experiment.method": "bregman_admm"}),
    ("BLOBS full pvi", "BLOBS_INI", {"experiment.family": "full", "experiment.method": "pvi"}),
    ("BLOBS ivon_admm", "BLOBS_INI", {"experiment.method": "ivon_admm"}),
    ("OUTLIER diag", "OUTLIER_BAYES_INI", {}),
    ("OUTLIER full", "OUTLIER_BAYES_INI", {"experiment.family": "full"}),
    ("OUTLIER diag reparam 8", "OUTLIER_BAYES_INI", {"inner.estimator": "reparam", "inner.mc_count": "8"}),
    ("OUTLIER diag reparam 8 delta_method", "OUTLIER_BAYES_INI",
     {"inner.estimator": "reparam", "inner.mc_count": "8", "experiment.delta_method": "true"}),
    ("OUTLIER admm", "OUTLIER_BAYES_INI", {"experiment.method": "admm"}),
    ("IVON_BLOWUP", "IVON_BLOWUP_INI", {}),
    ("RIDGE_WIDE", "RIDGE_WIDE_INI", {}),
)

# Run in a side's directory with its tree's package: decode out/checkpoint.json into the states
# its stored config builds, then write every state array's name, shape and raw bytes, and the
# checkpoint's keys that hold no state, as sorted JSON.
DECODE = r"""
import json, sys
from bayesadmm.cli import _assemble, _resolve
from bayesadmm.federation import checkpoint_from_jsonable


def blocks(value):
    if hasattr(value, "prec"):
        return {"m": value.m, "prec": value.prec}
    if hasattr(value, "b1"):
        return {"b1": value.b1, "b2": value.b2}
    return {"": value}


with open("out/checkpoint.json") as fh:
    data = json.load(fh)
setup = _assemble(_resolve(data["config"]))
checkpoint_from_jsonable(data, setup.server, setup.clients)
out = sys.stdout.buffer
for owner, state in [("server", setup.server)] + [(f"client {c.id}", c) for c in setup.clients]:
    for field in ("lam_g", "eta0", "theta_g", "lam", "eta", "theta", "v"):
        for part, a in blocks(getattr(state, field, None)).items():
            out.write(f"{owner} {field} {part} {None if a is None else list(a.shape)}\n".encode())
            if a is not None:
                out.write(a.astype("<f8").tobytes() + b"\n")
kept = ("format", "rounds_completed", "lam_g", "eta0", "theta_g", "clients")
out.write(json.dumps({k: v for k, v in data.items() if k not in kept}, sort_keys=True).encode())
"""

# A numpy warning names the source file and line; a traceback frame does too.
_WARNING = re.compile(r"[^\s\"']*/bayesadmm/(\w+\.py):\d+:")
_FRAME = re.compile(r"File \"[^\"]*/bayesadmm/(\w+\.py)\", line \d+")


def mask(stderr: bytes) -> bytes:
    text = stderr.decode(errors="replace")
    text = _WARNING.sub(r"bayesadmm/\1:<line>:", text)
    return _FRAME.sub(r'File "bayesadmm/\1", line <line>', text).encode()


def with_keys(text: str, edits: dict[str, str]) -> str:
    """``text`` with each ``section.key`` set to its value, in place or appended to its section."""
    lines = text.strip("\n").split("\n")
    for dotted, value in edits.items():
        section, key = dotted.split(".")
        try:
            start = lines.index(f"[{section}]") + 1
        except ValueError:
            lines += ["", f"[{section}]"]
            start = len(lines)
        end = start
        while end < len(lines) and not lines[end].startswith("["):
            end += 1
        for i in range(start, end):
            if lines[i].split("=")[0].strip() == key:
                lines[i] = f"{key} = {value}"
                break
        else:
            while end > start and not lines[end - 1].strip():
                end -= 1
            lines.insert(end, f"{key} = {value}")
    return "\n".join(lines) + "\n"


def ini_texts() -> dict[str, str]:
    """The module-level ``*_INI`` strings of ``tests/test_cli.py``, read without importing it."""
    with open(os.path.join(ROOT, "tests", "test_cli.py")) as fh:
        tree = ast.parse(fh.read())
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.endswith("_INI")}


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in filter(None, spec.split(",")):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def tree_env(tree: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_side(tree: str, side_dir: str, config: str, idx_seed: int | None) -> list[tuple[str, bytes]]:
    """One tree's inputs, run and verify in ``side_dir``; its outputs as (name, bytes) in compare order."""
    env = tree_env(tree)
    os.makedirs(side_dir)
    with open(os.path.join(side_dir, "config.ini"), "w") as fh:
        fh.write(config)
    if idx_seed is not None:
        os.makedirs(os.path.join(side_dir, "inputs"))
        write = ("import sys; sys.path.insert(0, sys.argv[1]); from workloads import write_idx; "
                 "from bayesadmm.harness import gen_blobs; write_idx('inputs', int(sys.argv[2]), gen_blobs)")
        subprocess.run([sys.executable, "-c", write, PERFBENCH, str(idx_seed)],
                       cwd=side_dir, env=env, check=True)
    outputs = []

    def command(name: str, *args: str) -> None:
        proc = subprocess.run([sys.executable, "-m", "bayesadmm.cli", *args],
                              cwd=side_dir, env=env, capture_output=True)
        outputs.extend([(f"{name} exit code", str(proc.returncode).encode()),
                        (f"{name} stdout", proc.stdout), (f"{name} stderr", mask(proc.stderr))])

    command("run", "run", "--config", "config.ini", "--out", "out")
    for name in OUTPUT_FILES:
        try:
            with open(os.path.join(side_dir, "out", name), "rb") as fh:
                outputs.append((name, fh.read()))
        except FileNotFoundError:
            outputs.append((name, b"<missing>"))
    if os.path.exists(os.path.join(side_dir, "out", "checkpoint.json")):
        command("verify", "verify", os.path.join("out", "checkpoint.json"))
    return outputs


def checkpoint_format(outputs: list[tuple[str, bytes]]):
    """The ``format`` of a side's ``checkpoint.json``; ``None`` when it has none or is missing."""
    text = dict(outputs)["checkpoint.json"]
    return None if text == b"<missing>" else json.loads(text).get("format")


def decoded_state(tree: str, side_dir: str) -> list[tuple[str, bytes]]:
    """``DECODE`` run on a side's checkpoint with its own tree's package."""
    proc = subprocess.run([sys.executable, "-c", DECODE], cwd=side_dir, env=tree_env(tree),
                          capture_output=True)
    return [("decoded state exit code", str(proc.returncode).encode()),
            ("decoded state", proc.stdout), ("decoded state stderr", mask(proc.stderr))]


def compare(case: tuple, parent: str, work: str) -> tuple[str, str | None, str]:
    """(case name, first differing output or None, the change's exit codes)."""
    name, config, idx_seed = case
    case_dir = tempfile.mkdtemp(prefix="case-", dir=work)
    sides = ((parent, os.path.join(case_dir, "parent")), (ROOT, os.path.join(case_dir, "change")))
    try:
        theirs, ours = (run_side(tree, side_dir, config, idx_seed) for tree, side_dir in sides)
        formats = checkpoint_format(theirs), checkpoint_format(ours)
        decode = None not in formats and formats[0] != formats[1]
        if decode:
            theirs, ours = ([o for o in outputs if o[0] != "checkpoint.json"] + decoded_state(*side)
                            for outputs, side in zip((theirs, ours), sides))
    finally:
        shutil.rmtree(case_dir, ignore_errors=True)
    if [n for n, _ in theirs] != [n for n, _ in ours]:
        differs = "the set of outputs (verify ran on one side only)"
    elif any(dict(outputs).get("decoded state exit code", b"0") != b"0" for outputs in (theirs, ours)):
        differs = "decoded state exit code (a decoder failed, so no state was compared)"
    else:
        differs = next((n for (n, a), (_, b) in zip(theirs, ours) if a != b), None)
    codes = ", ".join(f"{n} {v.decode()}" for n, v in ours if n.endswith("exit code"))
    if decode:
        codes += f"; checkpoint format {formats[0]} -> {formats[1]}, decoded states compared"
    return name, differs, codes


def read_expected(path: str) -> dict[str, str]:
    """``{case name: reason}`` from an expected-differences file."""
    expected = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                name, sep, reason = line.partition(":")
                if not sep or not reason.strip():
                    raise ValueError(f"{path}: no reason after a colon in {line!r}")
                expected[name.strip()] = reason.strip()
    return expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="the parent checkout to compare against")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated benchmark workloads; empty for none")
    parser.add_argument("--seeds", default="1-12", help="workload seeds, such as 1-240,1801-1960")
    parser.add_argument("--no-test-configs", action="store_true", help="skip TEST_CONFIGS")
    parser.add_argument("--jobs", type=int, default=1,
                        help="cases run at once (each runs one process, and an IVON case its solve workers)")
    parser.add_argument("--work", default=None, help="scratch directory (default: a temporary one)")
    parser.add_argument("--expected", default=None,
                        help="file of 'case name: reason' lines, the cases allowed to differ")
    args = parser.parse_args()
    parent = os.path.abspath(args.parent)
    if not os.path.isfile(os.path.join(parent, "src", "bayesadmm", "cli.py")):
        print(f"no bayesadmm sources under {parent}", file=sys.stderr)
        return 2
    try:
        expected = {} if args.expected is None else read_expected(args.expected)
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2

    sys.path.insert(0, PERFBENCH)
    from workloads import WORKLOADS as SPECS, derived_seeds

    cases = []
    for workload in filter(None, args.workloads.split(",")):
        spec = SPECS[workload]
        for seed in parse_seeds(args.seeds):
            seeds = derived_seeds(seed)
            cases.append((f"{workload} seed {seed}", spec.config(seeds, "inputs"),
                          seeds["data"] if spec.needs_idx else None))
    if not args.no_test_configs:
        texts = ini_texts()
        cases += [(name, with_keys(texts[ini], edits), None) for name, ini, edits in TEST_CONFIGS]

    work = tempfile.mkdtemp(prefix="same-outputs-", dir=args.work)
    differing = unexpected = 0
    stale = set(expected) - {name for name, _, _ in cases}
    try:
        with ThreadPoolExecutor(max_workers=max(args.jobs, 1)) as pool:
            for name, differs, codes in pool.map(lambda case: compare(case, parent, work), cases):
                differing += differs is not None
                unexpected += differs is not None and name not in expected
                if differs is None and name in expected:
                    stale.add(name)
                print(f"{'same' if differs is None else 'DIFF'}  {name} ({codes})"
                      + ("" if differs is None else f": {differs} differs")
                      + (f" [expected: {expected[name]}]" if name in expected else ""), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(cases) - differing} of {len(cases)} cases have the same outputs")
    if expected:
        print(f"{differing - unexpected} of {len(expected)} expected differences seen")
    for name in sorted(stale):
        print(f"stale expected difference: {name!r} has the same outputs or names no case run")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
