"""Benchmark for loopsv: certificate sweeps, the operator pipeline and the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweeps-q --seed 1 --seconds 35 --trace 0

One process, one client, closed loop: each operation starts when the previous
one has finished, and at most one ``python -m loopsv`` child is alive at a
time.  The run repeats rounds of seeded operations (see ``workloads.py``)
until ``--seconds`` is used up, checks every output, and prints a line per
metric followed by one JSON object as the last line of stdout.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs round 0 of
the workload twice, each time in a fresh child process, plain and then with
every call under cProfile, and prints the per-layer metrics; the profiled
child writes its span dump to ``perfbench/out`` when it ends.
``--repeat N`` runs every workload N times on seeds 1..N and prints each
metric's median and quartiles against the bounds in ``BENCHMARK.json``.

Two workloads are not part of the benchmark.  ``sweeps-root2`` runs the
certificate over Q(sqrt2); it is left out because the host's speed swings
move its figures beyond the bounds too often (see README.md).  ``probes``
runs the CLI's known-defect probes and reports how many of them still fail.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import layers  # noqa: E402  (imported after the paths above are known)
import workloads as W  # noqa: E402

WORKLOADS = ("sweeps-q", "pipeline", "cli")
IN_PROCESS = ("sweeps-q", "sweeps-root2", "pipeline")
ALL_WORKLOADS = WORKLOADS + ("sweeps-root2", "probes")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "triples_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scalars.busy_s": "s",
    "scalars.calls": "count",
    "scalars.fractions_busy_s": "s",
    "scalars.fractions_calls": "count",
    "groups.busy_s": "s",
    "groups.calls": "count",
    "algebra.busy_s": "s",
    "algebra.window_keys.busy_s": "s",
    "algebra.window_keys.keys": "count",
    "algebra.antisymmetry_witnesses.busy_s": "s",
    "algebra.antisymmetry_witnesses.pairs": "count",
    "algebra.jacobi_witnesses.busy_s": "s",
    "algebra.jacobi_witnesses.triples": "count",
    "algebra.structure.calls": "count",
    "algebra.structure.misses": "count",
    "algebra.structure.hit_ratio": "ratio",
    "algebra.bracket.calls": "count",
    "cohomology.busy_s": "s",
    "cohomology.cocycle_witnesses.busy_s": "s",
    "cohomology.cocycle_witnesses.triples": "count",
    "cohomology.reduce_cocycle.busy_s": "s",
    "cohomology.reduce_cocycle.calls": "count",
    "cohomology.central_jacobi.busy_s": "s",
    "cohomology.central_jacobi.triples": "count",
    "derivations.busy_s": "s",
    "derivations.derivation_witnesses.busy_s": "s",
    "derivations.derivation_witnesses.pairs": "count",
    "derivations.canonical_decompose_degree0.busy_s": "s",
    "derivations.canonical_decompose_degree0.calls": "count",
    "derivations.operator_apply.calls": "count",
    "automorphisms.busy_s": "s",
    "automorphisms.automorphism_witnesses.busy_s": "s",
    "automorphisms.automorphism_witnesses.pairs": "count",
    "automorphisms.factor.busy_s": "s",
    "automorphisms.factor.calls": "count",
    "automorphisms.apply_key.calls": "count",
    "solvers.busy_s": "s",
    "solvers.shear_constraint_space.busy_s": "s",
    "solvers.g_constraint_space.busy_s": "s",
    "solvers.nullspace.calls": "count",
    "parser.busy_s": "s",
    "parser.calls": "count",
    "laurent.busy_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    **{f"cli.{label}.p50_ms": "ms" for label in W.CLI_SUBCOMMANDS},
    "trace.overhead_ratio": "ratio",
}

SETUP_RUNS = 21
STARTUP_RUNS = 3

# import, group and algebra construction, window enumeration: what a fresh
# process does before its first timed call
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import {module}
from loopsv import GroupData, LoopAlgebra, Window
LoopAlgebra(GroupData.from_config({config!r})).window_keys(Window{window!r})
print(time.perf_counter() - t0)
"""

IMPORT_CODE = """\
import time
t0 = time.perf_counter()
import loopsv.cli
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, and so call counts, repeat
    return env


def python(args, **kw) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=170, **kw)


def python_value(code: str) -> float:
    proc = python(["-c", code])
    if proc.returncode:
        raise RuntimeError(f"child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def percentile(values, q: float) -> float:
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


# -- workloads as rounds of operations ----------------------------------------------


class Bench:
    """Builds the seeded rounds of one workload."""

    def __init__(self, workload: str, seed: int, sizes: W.Sizes, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.tmp = tmp
        self.profile_dir: Path | None = None  # set: CLI children run under cProfile
        self.launches = 0
        self._lib = None

    @property
    def lib(self) -> W.Lib:
        if self._lib is None:
            self._lib = W.Lib()
        return self._lib

    def setup_code(self) -> str:
        s = self.sizes
        module, config, window = {
            "sweeps-q": ("loopsv", W.Q_CONFIG, s.sweep_q),
            "sweeps-root2": ("loopsv", W.ROOT2_CONFIG, s.sweep_root2),
            "pipeline": ("loopsv", W.Q_CONFIG, s.pipeline),
        }.get(self.workload, ("loopsv.cli", W.Q_CONFIG, s.cli_check))
        return SETUP_CODE.format(module=module, config=config, window=window)

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.workload}:{self.seed}:{r}")

    def round(self, r: int) -> list:
        s = self.sizes
        if self.workload == "sweeps-q":
            return W.sweep_round(self.lib, W.Q_CONFIG, s.sweep_q, self.rng(r))
        if self.workload == "sweeps-root2":
            return W.sweep_round(self.lib, W.ROOT2_CONFIG, s.sweep_root2, self.rng(r))
        if self.workload == "pipeline":
            return W.pipeline_round(self.lib, s, self.rng(r))
        build = W.cli_round if self.workload == "cli" else W.probe_round
        return [self.cli_op(c) for c in build(self.rng(r), s, self.tmp, r)]

    def cli_op(self, c: W.CliCall) -> W.Op:
        def call():
            prefix = ["-m", "loopsv"]
            if self.profile_dir is not None:
                self.launches += 1
                prefix = ["-m", "cProfile", "-o", str(self.profile_dir / f"{self.launches}.prof"), *prefix]
            proc = python([*prefix, *c.argv])
            return proc.returncode, proc.stdout, proc.stderr

        def counts(res):
            return {metric: W.payload_field(res[1], name) for metric, name in c.counts.items()}

        def triples(res):
            return W.payload_field(res[1], c.triples) if c.triples else 0

        return W.Op(c.label, call, lambda res: c.expect(*res), counts, triples)

    def warm_up(self) -> None:
        """Untimed: writes bytecode caches and loads the interpreter once."""
        python_value(self.setup_code())
        if self.workload in IN_PROCESS:
            import loopsv

            alg = loopsv.LoopAlgebra(loopsv.GroupData.default())
            loopsv.antisymmetry_witnesses(alg, loopsv.Window(1, 0))
        else:
            python(["-m", "loopsv", "bracket", "L(1,0)", "L(2,3)"])

    def setup_seconds(self) -> list:
        return [python_value(self.setup_code()) for _ in range(SETUP_RUNS)]


@dataclass
class Sample:
    name: str
    seconds: float
    ok: bool
    triples: int
    counts: dict


def run_op(op: W.Op, spans: layers.Spans | None = None, parent: int | None = None,
           profiler: cProfile.Profile | None = None) -> Sample:
    """Times one call; a profiler, if given, is on during the call only, not the check."""
    span = spans.open(op.name, parent) if spans else None
    t0 = time.perf_counter()
    try:
        with profiler or contextlib.nullcontext():
            result = op.call()
        seconds = time.perf_counter() - t0
        ok = bool(op.check(result))
        triples = op.triples(result)
        counts = op.counts(result)
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        seconds = time.perf_counter() - t0
        print(f"# {op.name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        ok, triples, counts = False, 0, {}
    if spans:
        spans.close(span, ok=ok, triples=triples, **counts)
    if not ok:
        print(f"# wrong output: {op.name}", file=sys.stderr)
    return Sample(op.name, seconds, ok, triples, counts)


def run_rounds(bench: Bench, seconds: float) -> list:
    """Whole rounds until the budget is spent; a round starts only if half of it fits."""
    rounds = []
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        rounds.append([run_op(op) for op in bench.round(r)])
        took = time.perf_counter() - t0
        r += 1
        if time.perf_counter() - start + took / 2 > seconds:
            return rounds


def run_pass(bench: Bench, spans: layers.Spans | None = None, profiler: cProfile.Profile | None = None) -> list:
    """Round 0 of the workload, the unit of a traced run."""
    root = spans.open(f"{bench.workload}/round0") if spans else None
    samples = [run_op(op, spans, root, profiler) for op in bench.round(0)]
    if spans:
        spans.close(root)
    return samples


def rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- the two kinds of run -------------------------------------------------------------


def end_to_end(bench: Bench, seconds: float) -> tuple:
    bench.warm_up()
    setups = bench.setup_seconds()
    rounds = run_rounds(bench, seconds)
    samples = [s for rnd in rounds for s in rnd]
    swept = [s for s in samples if s.triples]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(sum(s.seconds for s in rnd) for rnd in rounds),
        "triples_per_s": sum(s.triples for s in swept) / sum(s.seconds for s in swept) if swept else 0.0,
        "op_p50_ms": statistics.median(percentile([s.seconds * 1000 for s in rnd], 0.5) for rnd in rounds),
        "op_p90_ms": statistics.median(percentile([s.seconds * 1000 for s in rnd], 0.9) for rnd in rounds),
        "peak_rss_mb": rss_mb(resource.RUSAGE_SELF if bench.workload in IN_PROCESS else resource.RUSAGE_CHILDREN),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "run_s": f"median over {len(rounds)} rounds of {len(rounds[0])} operations",
        "triples_per_s": f"{sum(s.triples for s in swept)} triples in {len(swept)} calls",
        "op_p50_ms": f"median over rounds of the round's median, {len(samples)} operations",
        "op_p90_ms": f"median over rounds of the round's 90th percentile, {len(samples)} operations",
        "peak_rss_mb": "ru_maxrss, " + ("this process" if bench.workload in IN_PROCESS else "children"),
    }
    by_name: dict = {}
    for s in samples:
        by_name.setdefault(s.name, []).append(s.seconds * 1000)
    extra = [f"op {name} p50 {percentile(v, 0.5):.2f} ms (n={len(v)})" for name, v in sorted(by_name.items())]
    return metrics, notes, samples, extra


def traced(bench: Bench, args) -> tuple:
    """Round 0 in a fresh child, plain and then profiled; per-layer numbers from the profiles."""
    bench.warm_up()
    interpreter = []
    for _ in range(STARTUP_RUNS):
        t0 = time.perf_counter()
        python(["-c", "pass"])
        interpreter.append(time.perf_counter() - t0)
    imports = [python_value(IMPORT_CODE) for _ in range(STARTUP_RUNS)]
    profile_dir = Path(tempfile.mkdtemp(dir=bench.tmp))
    plain = pass_child(args)
    profiled = pass_child(args, profile_dir)
    metrics = layers.aggregate(sorted(profile_dir.glob("*.prof")))
    for name in PER_LAYER:
        if name.endswith((".keys", ".pairs", ".triples")) and name not in metrics:
            metrics[name] = profiled["counts"].get(name, 0)
    for label in W.CLI_SUBCOMMANDS:
        latency = plain["latency_ms"].get(label)
        metrics[f"cli.{label}.p50_ms"] = percentile(latency, 0.5) if latency else 0.0
    metrics["cli.interpreter_s"] = statistics.median(interpreter)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_ratio"] = profiled["seconds"] / plain["seconds"]
    attempted = plain["attempted"] + profiled["attempted"]
    failed = plain["failed"] + profiled["failed"]
    return metrics, attempted, failed, [f"spans {spans_path(bench).relative_to(ROOT)}"]


def spans_path(bench: Bench) -> Path:
    return OUT / f"spans-{bench.workload}-seed{bench.seed}.json"


def pass_child(args, profile_dir: Path | None = None) -> dict:
    argv = [str(HERE / "run.py"), "--phase", "pass", "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    if profile_dir:
        argv += ["--profile", str(profile_dir)]
    proc = python(argv)
    if proc.returncode:
        raise RuntimeError(f"pass child failed: {proc.stderr.strip()}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def phase_pass(bench: Bench, args) -> None:
    """Child side of a traced run: one pass, with every call profiled if asked.

    In-process calls run under this process's profiler; CLI children run
    under their own and write their dumps into the same directory.
    """
    profiler = spans = None
    if args.profile:
        profiler, spans = cProfile.Profile(), layers.Spans()
        bench.profile_dir = Path(args.profile)
    samples = run_pass(bench, spans, profiler)
    if profiler:
        profiler.dump_stats(Path(args.profile) / "pass.prof")
        spans.dump(spans_path(bench))
    counts: dict = {}
    latency: dict = {}
    for s in samples:
        latency.setdefault(s.name, []).append(s.seconds * 1000)
        for name, n in s.counts.items():
            counts[name] = counts.get(name, 0) + n
    print(json.dumps({
        "seconds": sum(s.seconds for s in samples),
        "attempted": len(samples),
        "failed": sum(not s.ok for s in samples),
        "counts": counts,
        "latency_ms": latency,
    }))


# -- repeat mode ---------------------------------------------------------------------------


def repeat(args) -> int:
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    names = [args.workload] if args.workload else list(ALL_WORKLOADS)
    worst = 0.0
    for workload in names:
        runs = []
        for seed in range(1, args.repeat + 1):
            argv = [str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=ROOT)
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, fail_ratio {failed / attempted:.4f} ({failed}/{attempted})")
        for name, unit in END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            if bound and workload in WORKLOADS:
                worst = max(worst, spread / bound)
            verdict = "" if bound is None else ("steady" if spread < bound / 3 else "ok" if spread <= bound else "NOISY")
            print(f"  {name:14s} median {med:12.4f} {unit:5s} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {spread:6.3f} bound {bound} {verdict}")
            print("    runs " + " ".join(f"{v:.4g}" for v in values))
    print(f"worst spread/bound over the benchmark workloads: {worst:.3f}")
    return 0


# -- entry point ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=ALL_WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="runs per workload, on seeds 1..N")
    ap.add_argument("--tiny", action="store_true", help="tiny windows, for the smoke test")
    ap.add_argument("--phase", choices=("pass",), help=argparse.SUPPRESS)
    ap.add_argument("--profile", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "loopsv" / "__init__.py").is_file():
        print(f"error: no loopsv sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.repeat:
        return repeat(args)
    if args.workload is None:
        ap.error("--workload is required")

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        bench = Bench(args.workload, args.seed, W.TINY if args.tiny else W.FULL, tmp)
        if args.phase == "pass":
            phase_pass(bench, args)
            return 0
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        if args.trace:
            metrics, attempted, failed, extra = traced(bench, args)
            units = PER_LAYER
            notes = {}
        else:
            metrics, notes, samples, extra = end_to_end(bench, args.seconds)
            attempted, failed = len(samples), sum(not s.ok for s in samples)
            units = END_TO_END
        for line in extra:
            print(line)
        for name, unit in units.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"metric {name} {metrics[name]:.6g} {unit}{note}")
        print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} operations)")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
