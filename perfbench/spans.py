"""Spans around the public functions of each ``bayesadmm`` module, and their reduction.

``Tracer.install`` wraps every public function of the six layers (JSON
helpers aside, see ``UNWRAPPED_SUFFIX``) and rebinds
each reference the package holds to it: the module attribute, every
``from``-import binding in the other ``bayesadmm`` modules, the
``ROUND_ENGINES`` entries and the ``NatParam.from_dual`` classmethod.  Nothing
in ``src/`` changes.  Spans stay in memory as ``(name, start, end, parent,
extra)`` rows until the run ends; ``extra`` carries the counts a span reports
from its arguments or return value (VON steps and convergence, IVON steps).

``reduce_spans`` turns rows into the per-layer metrics.  A span's self time is
its duration minus its direct children's durations.  It runs in the
benchmark's parent process, so the traced program pays only for recording.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("families", "losses", "solvers", "federation", "harness", "cli")

# Public functions of harness that build a run's inputs.
HARNESS_DATA = (
    "gen_ridge", "gen_blobs", "gen_outlier_toy", "load_idx", "append_bias",
    "split", "split_indices", "ridge_losses", "classification_losses",
    "conjugate_oracle",
)

# JSON helpers of families and losses stay unwrapped, so the time spent
# turning state into lists counts as checkpoint_to_jsonable's own.
UNWRAPPED_SUFFIX = "_jsonable"

# Per-function self times and call counts reported as per-layer metrics.
FUNCTION_SELF = (
    "families.chol_spd", "families.NatParam.from_dual", "families.to_expectation",
    "families.to_natural", "families.kl", "families.sample", "families.dual_sum",
    "losses.loss_hess", "losses.loss_grad", "losses.expected_moments",
    "solvers.solve_von", "solvers.solve_ivon", "solvers.solve_conjugate",
    "federation.server_combine", "federation.verify_fixed_point",
    "federation.checkpoint_to_jsonable", "harness.posterior_average_proba",
)
FUNCTION_CALLS = (
    "families.chol_spd", "families.NatParam.from_dual", "families.to_expectation",
    "losses.loss_hess", "losses.loss_grad", "solvers.solve_von",
)


def _extra(name: str, args: tuple, kwargs: dict, result) -> tuple | None:
    """Counts a span carries: VON (steps, converged), IVON steps from its config."""
    if name == "solvers.solve_von" and result is not None:
        return (result.steps, 1 if result.converged else 0)
    if name == "solvers.solve_ivon":
        cfg = kwargs.get("cfg", args[5] if len(args) > 5 else None)
        return (cfg.steps, 0)
    return None


class Tracer:
    """Records one span per call of a wrapped function; single-threaded."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.rows: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        rows, stack, clock = self.rows, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                rows[index] = (name, start, end, parent, _extra(name, args, kwargs, result))

        return traced

    def install(self, package: str = "bayesadmm") -> None:
        """Wrap the public functions of every layer and rebind every reference to them."""
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and (layer == "federation" or not attr.endswith(UNWRAPPED_SUFFIX))
                ):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    setattr(mod, attr, wrappers[id(obj)])
        engines = modules["federation"].ROUND_ENGINES
        for method, engine in list(engines.items()):
            if id(engine) in wrappers:
                engines[method] = wrappers[id(engine)]
        nat = modules["families"].NatParam
        nat.from_dual = classmethod(self.wrap("families.NatParam.from_dual", nat.from_dual.__func__))


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def self_times(rows: list[tuple]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in rows]
    for _, start, end, parent, _ in rows:
        if parent >= 0:
            own[parent] -= end - start
    return own


def reduce_spans(rows: list[tuple], import_s: float, write_s: float) -> dict[str, float]:
    """Per-layer metrics from the span rows of one traced run."""
    own = self_times(rows)
    self_by_fn: dict[str, float] = {}
    calls: dict[str, int] = {}
    total_by_fn: dict[str, float] = {}
    steps: dict[str, int] = {}
    converged: dict[str, int] = {}
    for (name, start, end, _, extra), mine in zip(rows, own):
        self_by_fn[name] = self_by_fn.get(name, 0.0) + mine
        total_by_fn[name] = total_by_fn.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if extra is not None:
            steps[name] = steps.get(name, 0) + extra[0]
            converged[name] = converged.get(name, 0) + extra[1]

    def self_of(pred) -> float:
        return sum(v for k, v in self_by_fn.items() if pred(k))

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_of(lambda k, p=layer + ".": k.startswith(p))
    for name in FUNCTION_SELF:
        out[f"{name}.self_s"] = self_by_fn.get(name, 0.0)
    for name in FUNCTION_CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)
    out["solvers.solve_von.steps"] = steps.get("solvers.solve_von", 0)
    von_calls = calls.get("solvers.solve_von", 0)
    out["solvers.solve_von.converged_frac"] = (
        converged.get("solvers.solve_von", 0) / von_calls if von_calls else 0.0
    )
    ivon_s = total_by_fn.get("solvers.solve_ivon", 0.0)
    out["solvers.solve_ivon.steps_per_s"] = (
        steps.get("solvers.solve_ivon", 0) / ivon_s if ivon_s > 0 else 0.0
    )
    out["federation.round.self_s"] = self_of(
        lambda k: k.startswith("federation.") and k.endswith("_round")
    )
    out["harness.data.self_s"] = self_of(
        lambda k: k.startswith("harness.") and k.split(".", 1)[1] in HARNESS_DATA
    )
    out["harness.metrics.self_s"] = self_by_fn.get("harness.metrics", 0.0)
    out["cli.import_s"] = import_s
    out["cli.write_s"] = write_s
    return out
