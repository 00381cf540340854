"""Benchmark harness for braidrt: seeded braid workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload fund --seed 1 --seconds 40 --trace 0

Each braid spec goes through the user path of ``braidrt invariant --format
json``: ``cli.parse_braid_spec`` then ``cli.run_invariant(b, pipeline,
"json")``, once for every pipeline that applies to it (``skein`` evaluates
spin-1/2 braids only).  The loop is closed and single-threaded: the next
evaluation starts only after the previous one returned.  A run is

1. set-up: import braidrt and make a cold-cache pass over the workload's
   set-up braids, a prefix of its pool (timed: what one-shot CLI calls pay);
2. a cold pass over the rest of the pool, so every cache the pool needs is
   filled before anything warm is timed;
3. warm passes over the whole pool (at least ``MIN_WARM_BRAIDS`` braids),
   as many whole passes as fit in ``--seconds`` (at least one);
4. ``SETUP_RUNS - 1`` more fresh processes that repeat the timed set-up,
   so ``setup_s`` is a median of ``SETUP_RUNS``.

Throughput is warm evaluations over the sum of their latencies, and the
latency quantiles pool every warm evaluation.  Many braids per run keep the
figures from hanging on a few heavy braids of one seed; whole passes keep
each run's mix of shapes and spins the same, however fast the program is.

With ``--trace 1`` the run is traced instead (``tracer.py``): the cold
pass over the pool, then the first ``TRACED_BRAIDS`` braids once traced and once
untraced for the overhead ratio.  The traced run reports the cache misses
of its warm braids, which must be 0.

Every run checks correctness: the ``w_L``/``I_L`` of each braid must agree
across pipelines, and every later evaluation of a braid, in a warm pass or a
set-up process, must reproduce its first outputs.  A disagreement or
exception is logged with its spec and counted in ``failed``; it does not
abort the run.  The SHA-256 of the ordered JSON outputs is the result
digest: a change that alters no value leaves it unchanged, traced or not.
Both kinds of run evaluate every braid of the pool, so the digest covers
all of them.

Measurement uses the process's own counters only (``time.perf_counter_ns``
and ``resource.getrusage(RUSAGE_SELF)``).  Nothing acts on the machine: no
cache drops, no cgroup or scheduler changes.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full report, with machine info, sample counts and the
skein metrics, goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PIPELINES, WORKLOADS, Workload, generate, pipelines_for

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: Fresh processes whose timed set-up gives the median setup_s.
SETUP_RUNS = 5
#: Warm braids evaluated once traced and once untraced in a --trace 1 run.
TRACED_BRAIDS = 36

_WARM = "per warm braid"
_COLD = "in the cold pass over the pool"

#: End-to-end metrics (--trace 0): name -> (unit, meaning).
END_TO_END = {
    "setup_s": ("s", f"median of {SETUP_RUNS} fresh processes: import braidrt, cold pass "
                     "over the set-up braids ("
                     + ", ".join(f"{w.name} {w.setup}" for w in WORKLOADS.values())
                     + ") with every pipeline"),
    "rt_bps": ("1/s", "warm rt evaluations / sum of their latencies"),
    "rt_p50_ms": ("ms", "median warm rt latency (parse + run_invariant)"),
    "rt_p90_ms": ("ms", "90th-percentile warm rt latency"),
    "shadow_bps": ("1/s", "warm shadow evaluations / sum of their latencies"),
    "shadow_p50_ms": ("ms", "median warm shadow latency"),
    "shadow_p90_ms": ("ms", "90th-percentile warm shadow latency"),
    "all_bps": ("1/s", "warm braids / sum of their latencies through every pipeline "
                       "that applies"),
    "peak_rss_mb": ("MB", "peak resident set of the measuring process (getrusage)"),
}

#: Written to the full report only, because the last line must carry the
#: same metrics for every workload: on colored, skein sees only the spin-1/2
#: braids, mostly 6- and 8-letter knots whose proportions the seed sets and
#: whose skein costs are 4x apart, so its figures move from seed to seed.
#: Failures are the last line's own ``failed``/``attempted``.
REPORTED = {
    "skein_bps": ("1/s", "warm skein evaluations (spin-1/2 braids) / sum of their latencies"),
    "skein_p50_ms": ("ms", "median warm skein latency"),
    "skein_p90_ms": ("ms", "90th-percentile warm skein latency"),
    "failed_frac": ("ratio", "failed evaluations / attempted evaluations"),
}

#: Per-layer metrics (--trace 1): name -> (unit, meaning).  Times are self
#: times (span minus child spans) unless marked inclusive.
PER_LAYER = {
    "laurent.mul_calls": ("count", f"LaurentScalar.__mul__ calls {_WARM}"),
    "laurent.mul_term_pairs": ("count", f"sum of |a|*|b| over multiplies {_WARM}"),
    "laurent.add_calls": ("count", f"LaurentScalar.__add__ calls {_WARM}"),
    "laurent.max_terms": ("count", "most terms in a product or sum, warm"),
    "laurent.max_coeff_bits": ("bits", "largest coefficient in a product or sum, warm"),
    "laurent.gcd_calls": ("count", f"polynomial gcd calls {_WARM}"),
    "laurent.gcd_s": ("s", f"gcd self time {_WARM}"),
    "laurent.gcd_useful_ratio": ("ratio", "share of gcd results that are not 1, warm"),
    "laurent.divide_exact_s": ("s", f"divide_exact self time {_WARM}"),
    "uqsl2.fraction_init_calls": ("count", f"FractionScalar.__init__ calls {_WARM}"),
    "uqsl2.fraction_init_s": ("s", f"FractionScalar.__init__ self time {_WARM}"),
    "uqsl2.braiding_misses": ("count", f"braiding cache misses {_COLD}"),
    "uqsl2.braiding_build_s": ("s", f"time of braiding calls that missed, {_COLD}"),
    "uqsl2.cg_pair_misses": ("count", f"cg_pair cache misses {_COLD}"),
    "uqsl2.cg_pair_build_s": ("s", f"time of cg_pair calls that missed, {_COLD}"),
    "uqsl2.compose_calls": ("count", f"TensorOperator.compose calls {_WARM}"),
    "uqsl2.compose_s": ("s", f"compose self time {_WARM}"),
    "uqsl2.tensor_s": ("s", f"TensorOperator.tensor self time {_WARM}"),
    "uqsl2.quantum_trace_s": ("s", f"quantum_trace self time {_WARM}"),
    "uqsl2.max_operator_nnz": ("count", "most nonzeros in a compose or tensor result, warm"),
    "rt_engine.evaluate_s": ("s", f"evaluate_rt inclusive time {_WARM}"),
    "rt_engine.strip_operator_s": ("s", f"strip_operator self time {_WARM}"),
    "rt_engine.letters": ("count", f"strip_operator calls {_WARM}"),
    "shadow_engine.evaluate_s": ("s", f"evaluate_shadow inclusive time {_WARM}"),
    "shadow_engine.apply_crossing_calls": ("count", f"apply_crossing calls {_WARM}"),
    "shadow_engine.apply_crossing_s": ("s", f"apply_crossing self time {_WARM}"),
    "shadow_engine.peak_path_pairs": ("count", "most amplitude pairs in a shadow state, warm"),
    "shadow_engine.coefficient_hits": ("count", f"shadow_coefficient cache hits {_COLD}"),
    "shadow_engine.coefficient_misses": ("count", f"shadow_coefficient cache misses {_COLD}"),
    "shadow_engine.coefficient_build_s": ("s", f"time of shadow_coefficient calls that missed, {_COLD}"),
    "shadow_engine.coefficient_nonzero_ratio": ("ratio", f"share of nonzero coefficients {_COLD}"),
    "skein_oracle.bracket_s": ("s", f"kauffman_bracket self time {_WARM}"),
    "skein_oracle.states": ("count", f"bracket states (sum of 2^crossings) {_WARM}"),
    "skein_oracle.jones_s": ("s", f"jones_unnormalized inclusive time {_WARM}"),
    "braid.closure_s": ("s", f"closure_components self time {_WARM}"),
    "braid.diagram_s": ("s", f"braid_to_diagram self time {_WARM}"),
    "cli.parse_s": ("s", f"parse_braid_spec self time {_WARM}"),
    "cli.render_s": ("s", f"run_invariant self time (run_invariant minus the pipeline "
                          f"evaluation and closure spans) {_WARM}"),
    "trace.overhead_ratio": ("ratio", "traced warm wall time / untraced warm wall time"),
}


def load_braidrt() -> dict:
    """Import braidrt from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import braidrt
        from braidrt import braid, cli, laurent, rt_engine, shadow_engine, skein_oracle, uqsl2
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import braidrt from {src}: {exc}") from None
    if not Path(braidrt.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: braidrt was imported from {braidrt.__file__}, not {src}")
    return {"laurent": laurent, "uqsl2": uqsl2, "braid": braid, "rt_engine": rt_engine,
            "shadow_engine": shadow_engine, "skein_oracle": skein_oracle, "cli": cli}


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


class Run:
    """Evaluates passes over one workload's braids and keeps every latency,
    output and failure of the measuring process."""

    def __init__(self, specs: list[str], modules: dict, tracer=None):
        self.specs, self.cli, self.tracer = specs, modules["cli"], tracer
        #: First outputs of each braid; later evaluations must reproduce them.
        self.reference: list[dict[str, str | None] | None] = [None] * len(specs)
        #: Warm latencies per pipeline.
        self.latency_ns: dict[str, list[int]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def evaluate(self, index: int) -> None:
        """Every pipeline that applies, on one braid.  Failures are logged
        with the spec and counted once per evaluation, never raised."""
        spec, cli = self.specs[index], self.cli
        if self.tracer is not None:
            self.tracer.braid = index
        out: dict[str, str | None] = {}
        problems: dict[str, str] = {}
        for pipeline in pipelines_for(spec):
            start = time.perf_counter_ns()
            try:
                out[pipeline] = cli.run_invariant(cli.parse_braid_spec(spec), pipeline, "json")
            except Exception as exc:  # a failed evaluation is counted, not fatal
                out[pipeline] = None
                problems[pipeline] = f"raised {type(exc).__name__}: {exc}"
            self.latency_ns.setdefault(pipeline, []).append(time.perf_counter_ns() - start)
        values = {p: json.loads(text) for p, text in out.items() if text is not None}
        if len({json.dumps([v["w_L"], v["I_L"]]) for v in values.values()}) > 1:
            for pipeline in values:
                problems.setdefault(pipeline, "w_L/I_L differ from another pipeline")
        expected = self.reference[index]
        if expected is None:
            self.reference[index] = out
        else:
            for pipeline in values:
                if out[pipeline] != expected[pipeline]:
                    problems.setdefault(pipeline, "output differs from the first evaluation")
        for pipeline, reason in problems.items():
            self.fail(f"[{pipeline}] {spec}: {reason}")
        self.attempted += len(out)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)

    def run_pass(self, braids: range) -> None:
        for i in braids:
            self.evaluate(i)

    def warm(self, braids: range, seconds: float) -> int:
        """As many whole warm passes over the braids as fit in the time (at
        least one); returns the pass count."""
        self.latency_ns = {}
        passes, start = 0, time.perf_counter()
        while True:
            self.run_pass(braids)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed * (passes + 1) / passes > seconds:
                return passes

    def digest(self, braids: int | None = None) -> str:
        """SHA-256 over the ordered first outputs of the first braids (all
        of them by default)."""
        h = hashlib.sha256()
        for spec, outputs in zip(self.specs, self.reference[:braids]):
            for pipeline, text in outputs.items():
                h.update(f"{spec}\t{pipeline}\t{text}\n".encode())
        return h.hexdigest()


def timed_setup(workload: Workload, seed: int) -> tuple[Run, float]:
    """Import braidrt and make the cold pass over the set-up braids; returns
    the run and the wall time of both."""
    start = time.perf_counter()
    run = Run(generate(workload, seed), load_braidrt())
    run.run_pass(range(workload.setup))
    return run, time.perf_counter() - start


def setup_in_child(workload: Workload, seed: int) -> tuple[float, str]:
    """One timed set-up in a fresh interpreter; returns (seconds, digest)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up process failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["digest"]


def latency_metrics(run: Run) -> dict[str, float]:
    """Throughput and latency quantiles over every warm evaluation, per
    pipeline and for braids through all of them."""
    values = {}
    for pipeline in PIPELINES:
        samples = run.latency_ns.get(pipeline, [])
        if len(samples) < 2:
            continue
        values[f"{pipeline}_bps"] = len(samples) / (sum(samples) / 1e9)
        values[f"{pipeline}_p50_ms"] = statistics.median(samples) / 1e6
        values[f"{pipeline}_p90_ms"] = statistics.quantiles(samples, n=10)[8] / 1e6
    # Every braid goes through rt, so its sample count is the braid count.
    total_ns = sum(sum(samples) for samples in run.latency_ns.values())
    values["all_bps"] = len(run.latency_ns["rt"]) / (total_ns / 1e9)
    return values


def measure(workload: Workload, seed: int, seconds: float, setup_runs: int = SETUP_RUNS) -> dict:
    """The untraced run: end-to-end metrics."""
    run, setup = timed_setup(workload, seed)
    run.run_pass(range(workload.setup, workload.pool))
    passes = run.warm(range(workload.pool), seconds)
    values = latency_metrics(run)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups, setup_digest = [setup], run.digest(workload.setup)
    for _ in range(setup_runs - 1):
        child_s, child_digest = setup_in_child(workload, seed)
        setups.append(child_s)
        if child_digest != setup_digest:
            run.fail("a fresh set-up process gave different outputs")
    values["setup_s"] = statistics.median(setups)
    values["failed_frac"] = len(run.failures) / run.attempted
    return {
        "run": run, "values": values, "passes": passes, "setup_samples_s": setups,
        "samples": {p: len(run.latency_ns.get(p, ())) for p in PIPELINES},
    }


def measure_traced(workload: Workload, seed: int) -> dict:
    """The traced run: per-layer metrics and the tracing overhead."""
    from tracer import CACHED, Tracer

    modules = load_braidrt()
    tracer = Tracer(modules)
    run = Run(generate(workload, seed), modules, tracer)
    tracer.install()
    try:
        run.run_pass(range(workload.pool))
        cold = cold_layer_values(tracer)
        tracer.reset()
        braids = range(min(TRACED_BRAIDS, workload.pool))
        start = time.perf_counter()
        run.run_pass(braids)
        traced_wall = time.perf_counter() - start
        values = warm_layer_values(tracer, len(braids))
        shares = layer_shares(tracer)
        warm_misses = {name: tracer.cache_delta(name)[1] for name in CACHED}
    finally:
        tracer.uninstall()
    start = time.perf_counter()
    run.run_pass(braids)
    values.update(cold)
    values["trace.overhead_ratio"] = traced_wall / (time.perf_counter() - start)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{seed}.spans"
    span_count = tracer.write_spans(str(spans_path))
    if any(warm_misses.values()):
        print(f"bench: warm braids missed a cache: {warm_misses}", file=sys.stderr)
    return {"run": run, "values": values, "passes": 1, "shares": shares,
            "warm_cache_misses": warm_misses,
            "spans": os.path.relpath(spans_path, ROOT), "span_count": span_count}


def cold_layer_values(tracer) -> dict[str, float]:
    values = {}
    for name in ("uqsl2.braiding", "uqsl2.cg_pair"):
        values[f"{name}_misses"] = tracer.cache_delta(name)[1]
        values[f"{name}_build_s"] = tracer.miss_ns[name] / 1e9
    hits, misses = tracer.cache_delta("shadow_engine.coefficient")
    calls = tracer.calls["shadow_engine.coefficient"]
    values.update({
        "shadow_engine.coefficient_hits": hits,
        "shadow_engine.coefficient_misses": misses,
        "shadow_engine.coefficient_build_s": tracer.miss_ns["shadow_engine.coefficient"] / 1e9,
        "shadow_engine.coefficient_nonzero_ratio":
            tracer.counts["coefficient_nonzero"] / calls if calls else 0.0,
    })
    return values


def warm_layer_values(tracer, braids: int) -> dict[str, float]:
    mul_calls, term_pairs, add_calls, max_terms, max_coeff = tracer.laurent
    gcd_calls = tracer.calls["laurent.gcd"]
    calls = {
        "laurent.mul_calls": mul_calls,
        "laurent.mul_term_pairs": term_pairs,
        "laurent.add_calls": add_calls,
        "laurent.gcd_calls": gcd_calls,
        "uqsl2.fraction_init_calls": tracer.calls["uqsl2.fraction_init"],
        "uqsl2.compose_calls": tracer.calls["uqsl2.compose"],
        "rt_engine.letters": tracer.calls["rt_engine.strip_operator"],
        "shadow_engine.apply_crossing_calls": tracer.calls["shadow_engine.apply_crossing"],
        "skein_oracle.states": tracer.counts["states"],
    }
    seconds = {
        "laurent.gcd_s": tracer.self_s("laurent.gcd"),
        "laurent.divide_exact_s": tracer.self_s("laurent.divide_exact"),
        "uqsl2.fraction_init_s": tracer.self_s("uqsl2.fraction_init"),
        "uqsl2.compose_s": tracer.self_s("uqsl2.compose"),
        "uqsl2.tensor_s": tracer.self_s("uqsl2.tensor"),
        "uqsl2.quantum_trace_s": tracer.self_s("uqsl2.quantum_trace"),
        "rt_engine.evaluate_s": tracer.total_ns["rt_engine.evaluate"] / 1e9,
        "rt_engine.strip_operator_s": tracer.self_s("rt_engine.strip_operator"),
        "shadow_engine.evaluate_s": tracer.total_ns["shadow_engine.evaluate"] / 1e9,
        "shadow_engine.apply_crossing_s": tracer.self_s("shadow_engine.apply_crossing"),
        "skein_oracle.bracket_s": tracer.self_s("skein_oracle.bracket"),
        "skein_oracle.jones_s": tracer.total_ns["skein_oracle.jones"] / 1e9,
        "braid.closure_s": tracer.self_s("braid.closure"),
        "braid.diagram_s": tracer.self_s("braid.diagram"),
        "cli.parse_s": tracer.self_s("cli.parse"),
        "cli.render_s": tracer.self_s("cli.run_invariant"),
    }
    values = {name: v / braids for name, v in {**calls, **seconds}.items()}
    values.update({
        "laurent.max_terms": max_terms,
        "laurent.max_coeff_bits": max_coeff.bit_length(),
        "laurent.gcd_useful_ratio": tracer.counts["gcd_useful"] / gcd_calls if gcd_calls else 0.0,
        "uqsl2.max_operator_nnz": tracer.maxima["nnz"],
        "shadow_engine.peak_path_pairs": tracer.maxima["path_pairs"],
    })
    return values


def layer_shares(tracer) -> dict[str, dict[str, float]]:
    """Per pipeline: each span's share of the pipeline's self time (warm)."""
    totals: dict[str, int] = {}
    for (pipeline, _), ns in tracer.self_ns.items():
        totals[pipeline] = totals.get(pipeline, 0) + ns
    shares: dict[str, dict[str, float]] = {}
    for (pipeline, name), ns in sorted(tracer.self_ns.items(), key=lambda kv: -kv[1]):
        if pipeline != "-":
            shares.setdefault(pipeline, {})[name] = round(ns / totals[pipeline], 4)
    return shares


def report(workload: Workload, seed: int, trace: bool, result: dict) -> dict:
    """Print the human-readable report, write the full one, return the JSON line."""
    run, values = result["run"], result["values"]
    tables = PER_LAYER if trace else {**END_TO_END, **REPORTED}
    digest = run.digest()
    full = {
        "machine": machine_info(), "workload": workload.name, "seed": seed, "trace": trace,
        "pool": len(run.specs),
        "warm_passes": result["passes"], "digest": digest,
        "attempted": run.attempted, "failures": run.failures,
        "metrics": {name: {"value": values[name], "unit": tables[name][0]}
                    for name in tables if name in values},
        **{k: v for k, v in result.items() if k not in ("run", "values", "passes")},
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")

    info = full["machine"]
    print(f"# braidrt bench: workload={workload.name} seed={seed} trace={int(trace)} "
          f"pool={len(run.specs)} warm_passes={result['passes']}")
    print(f"# machine: python {info['python']}, nproc {info['nproc']}, {info['platform']}")
    print(f"# digest sha256={digest}  attempted={run.attempted} failed={len(run.failures)}")
    samples = result.get("samples", {})
    for name, entry in full["metrics"].items():
        note = ""
        pipeline = name.split("_")[0]
        if name.endswith("_ms") and pipeline in samples:
            n = samples[pipeline]
            note = f"  (n={n}, {n - int(0.9 * n)} beyond p90)" if name.endswith("p90_ms") else f"  (n={n})"
        print(f"{name:42s} {entry['value']:.6g} {entry['unit']}{note}")
    if "warm_cache_misses" in result:
        print(f"# warm cache misses (must be 0): {result['warm_cache_misses']}")
    for pipeline, shares in result.get("shares", {}).items():
        top = ", ".join(f"{n} {s:.1%}" for n, s in list(shares.items())[:6])
        print(f"# {pipeline} self-time shares: {top}")
    print(f"# full report: {os.path.relpath(path, ROOT)}")

    emitted = END_TO_END if not trace else PER_LAYER
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in emitted.items()},
    }


def metric_help() -> str:
    lines = ["end-to-end metrics (--trace 0, on the last line):"]
    lines += [f"  {n:40s} [{u}] {d}" for n, (u, d) in END_TO_END.items()]
    lines += ["reported in .bench_out/ only:"]
    lines += [f"  {n:40s} [{u}] {d}" for n, (u, d) in REPORTED.items()]
    lines += ["per-layer metrics (--trace 1, on the last line):"]
    lines += [f"  {n:40s} [{u}] {d}" for n, (u, d) in PER_LAYER.items()]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0], epilog=metric_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="warm measuring time of an untraced run, in whole passes over "
                             "the pool (default 40); a traced run does a fixed amount of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="internal: time one set-up in this process and print it")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        run, seconds = timed_setup(workload, args.seed)
        print(json.dumps({"setup_s": seconds, "digest": run.digest(workload.setup)}))
        return 0
    if args.trace:
        result = measure_traced(workload, args.seed)
    else:
        result = measure(workload, args.seed, args.seconds)
    print(json.dumps(report(workload, args.seed, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
