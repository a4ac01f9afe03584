"""Per-layer numbers from cProfile dumps and from the runner's own spans.

A layer is a module of ``src/loopsv``; ``lattice`` is counted with
``groups`` and the stdlib ``fractions`` module, the scalar backend, is
reported beside ``scalars``.  Busy time is self time (cProfile ``tottime``)
summed over a layer's functions; call counts are exact cProfile counts.
Function rows report inclusive time (cProfile ``cumtime``) and read 0 on a
workload that never calls the function.
"""

from __future__ import annotations

import json
import pstats
import time
from pathlib import Path

MODULE_LAYERS = ("scalars", "groups", "algebra", "derivations", "automorphisms",
                 "cohomology", "solvers", "laurent", "parser")

# metric -> ((module, function), ...) whose exact call counts it sums
CALL_COUNTS = {
    "algebra.structure.calls": (("algebra", "structure"),),
    "algebra.structure.misses": (("algebra", "_structure"),),
    "algebra.bracket.calls": (("algebra", "bracket"),),
    "cohomology.reduce_cocycle.calls": (("cohomology", "reduce_cocycle"),),
    "cohomology.central_jacobi.triples": (("cohomology", "jacobi_defect"),),  # one call per triple
    "derivations.canonical_decompose_degree0.calls": (("derivations", "canonical_decompose_degree0"),),
    "derivations.operator_apply.calls": (("derivations", "apply_key"), ("derivations", "__call__")),
    "automorphisms.factor.calls": (("automorphisms", "factor"),),
    "automorphisms.apply_key.calls": (("automorphisms", "apply_key"),),
    "solvers.nullspace.calls": (("solvers", "nullspace"),),
}

# metric -> (module, function) whose inclusive time (cProfile cumtime) it reports
INCLUSIVE = {
    "algebra.window_keys.busy_s": ("algebra", "window_keys"),
    "algebra.antisymmetry_witnesses.busy_s": ("algebra", "antisymmetry_witnesses"),
    "algebra.jacobi_witnesses.busy_s": ("algebra", "jacobi_witnesses"),
    "cohomology.cocycle_witnesses.busy_s": ("cohomology", "cocycle_witnesses"),
    "cohomology.reduce_cocycle.busy_s": ("cohomology", "reduce_cocycle"),
    "cohomology.central_jacobi.busy_s": ("cohomology", "jacobi_defect"),
    "derivations.derivation_witnesses.busy_s": ("derivations", "derivation_witnesses"),
    "derivations.canonical_decompose_degree0.busy_s": ("derivations", "canonical_decompose_degree0"),
    "automorphisms.automorphism_witnesses.busy_s": ("automorphisms", "automorphism_witnesses"),
    "automorphisms.factor.busy_s": ("automorphisms", "factor"),
    "solvers.shear_constraint_space.busy_s": ("solvers", "shear_constraint_space"),
    "solvers.g_constraint_space.busy_s": ("solvers", "g_constraint_space"),
}


def _module_of(filename: str) -> str | None:
    path = Path(filename)
    if path.parent.name == "loopsv":
        return path.stem
    if path.name == "fractions.py":
        return "fractions"
    return None


def aggregate(profile_files) -> dict:
    """Busy time and call counts per layer, plus the function rows above."""
    stats = pstats.Stats(*[str(p) for p in profile_files]).stats
    busy: dict = {}
    calls: dict = {}
    fn_calls: dict = {}
    fn_time: dict = {}
    for (filename, _line, func), (_cc, nc, tt, ct, _callers) in stats.items():
        module = _module_of(filename)
        if module is None:
            continue
        layer = {"fractions": "scalars.fractions", "lattice": "groups"}.get(module, module)
        if layer in MODULE_LAYERS or layer == "scalars.fractions":
            busy[layer] = busy.get(layer, 0.0) + tt
            calls[layer] = calls.get(layer, 0) + nc
        fn_calls[(module, func)] = fn_calls.get((module, func), 0) + nc
        fn_time[(module, func)] = fn_time.get((module, func), 0.0) + ct

    out = {}
    for layer in MODULE_LAYERS:
        out[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out["scalars.fractions_busy_s"] = busy.get("scalars.fractions", 0.0)
    out["scalars.fractions_calls"] = calls.get("scalars.fractions", 0)
    for name, funcs in CALL_COUNTS.items():
        out[name] = sum(fn_calls.get(f, 0) for f in funcs)
    hits = out["algebra.structure.calls"] - out["algebra.structure.misses"]
    out["algebra.structure.hit_ratio"] = hits / out["algebra.structure.calls"] if out["algebra.structure.calls"] else 0.0
    for name, func in INCLUSIVE.items():
        out[name] = fn_time.get(func, 0.0)
    return out


class Spans:
    """Spans kept in memory (name, start, end, parent) and written once at the end."""

    def __init__(self):
        self.records = []
        self._t0 = time.perf_counter()

    def open(self, name: str, parent: int | None = None) -> int:
        self.records.append({"id": len(self.records), "name": name, "parent": parent,
                             "start": time.perf_counter() - self._t0, "end": None})
        return len(self.records) - 1

    def close(self, span: int, **counts) -> None:
        self.records[span]["end"] = time.perf_counter() - self._t0
        self.records[span].update(counts)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records, indent=0))
