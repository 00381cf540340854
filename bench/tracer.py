"""Per-layer tracing of braidrt from outside the program.

``Tracer.install`` replaces public functions of ``laurent``, ``uqsl2``,
``braid``, ``rt_engine``, ``shadow_engine``, ``skein_oracle`` and ``cli``
with wrappers, at each name through which the program looks them up (the
engines and ``cli`` import most of them by name), and ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.

Each wrapped call records a span (name, start, end, parent span, braid id)
in memory; ``write_spans`` writes them out when the run ends.  Self time is
a span's duration minus the time of its child spans, and is booked against
the pipeline whose evaluation the span ran under, so the self times below
one pipeline add up to its evaluation time.  ``LaurentScalar`` multiply and
add run hundreds of thousands of times per pass: they are counted, not
timed, and their cost shows in the self time of the span that called them.
Cache hits and misses come from ``cache_info()`` deltas; build time is the
time of the calls that missed.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from types import ModuleType

#: Spans whose subtree is one pipeline's evaluation of one braid.
PIPELINE_ROOTS = {
    "rt_engine.evaluate": "rt",
    "shadow_engine.evaluate": "shadow",
    "skein_oracle.jones": "skein",
    "braid.diagram": "skein",  # cli builds the diagram only for skein
}

#: Cached functions: span name -> (module, attribute) of the lru_cache object,
#: read before any wrapper replaces it.
CACHED = {
    "uqsl2.braiding": ("uqsl2", "braiding"),
    "uqsl2.cg_pair": ("uqsl2", "cg_pair"),
    "shadow_engine.coefficient": ("shadow_engine", "shadow_coefficient"),
}


class Tracer:
    def __init__(self, modules: dict[str, ModuleType]):
        self.m = modules
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One span per row: name id, start ns, end ns, parent row, braid id.
        self.spans = array("q")
        self.stack: list[list] = []  # [row, child ns, pipeline]
        self.braid = -1
        # mul calls, mul term pairs, add calls, max terms, max |coefficient|
        self.laurent = [0, 0, 0, 0, 0]
        self._patches: list[tuple[object, str, object]] = []
        self._caches = {name: getattr(modules[module], attr)
                        for name, (module, attr) in CACHED.items()}
        self.reset()

    # -- phases ----------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter for a new phase; recorded spans are kept."""
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)  # (pipeline, span)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.miss_ns: dict[str, int] = defaultdict(int)
        self.laurent[:] = [0, 0, 0, 0, 0]
        self.cache_start = {name: c.cache_info() for name, c in self._caches.items()}

    def cache_delta(self, name: str) -> tuple[int, int]:
        """(hits, misses) of a cached function since the last reset."""
        now, start = self._caches[name].cache_info(), self.cache_start[name]
        return now.hits - start.hits, now.misses - start.misses

    def self_s(self, name: str) -> float:
        """Self time of a span name in this phase, over all pipelines."""
        return sum(ns for (_, n), ns in self.self_ns.items() if n == name) / 1e9

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn, after=None, cached: bool = False):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        root = PIPELINE_ROOTS.get(name)
        info = fn.cache_info if cached else None
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans) // 5, 0, root or (parent[2] if parent else "-")]
            spans.extend((nid, 0, 0, parent[0] if parent else -1, tracer.braid))
            stack.append(frame)
            misses = info().misses if cached else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                row = 5 * frame[0]
                spans[row + 1], spans[row + 2] = start, end
                tracer.self_ns[frame[2], name] += duration - frame[1]
                tracer.total_ns[name] += duration
                tracer.calls[name] += 1
                if cached and info().misses > misses:
                    tracer.miss_ns[name] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _trace(self, name: str, owners: list[tuple[str, str]], after=None, cached=False) -> None:
        """Wrap one function once and patch every name it is looked up by."""
        module, attr = owners[0]
        wrapped = self._span(name, getattr(self.m[module], attr), after, cached)
        for module, attr in owners:
            self._patch(self.m[module], attr, wrapped)

    def _method(self, name: str, cls: type, attr: str, after=None) -> None:
        self._patch(cls, attr, self._span(name, getattr(cls, attr), after))

    def _peak(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def install(self) -> None:
        m = self.m
        self._install_laurent_counters()

        def nnz(args, op):
            self._peak("nnz", sum(map(len, op.rows.values())))

        def gcd_done(args, g):
            self.counts["gcd_useful"] += not g.is_one()

        def coefficient_done(args, c):
            self.counts["coefficient_nonzero"] += not c.is_zero()

        def crossing_done(args, state):
            self._peak("path_pairs", len(state.amplitudes))

        def bracket_done(args, value):
            self.counts["states"] += 1 << len(args[0].crossings)

        self._trace("cli.parse", [("cli", "parse_braid_spec")])
        self._trace("cli.run_invariant", [("cli", "run_invariant")])
        self._trace("braid.closure", [("braid", "closure_components"),
                                      ("cli", "closure_components"),
                                      ("rt_engine", "closure_components"),
                                      ("shadow_engine", "closure_components")])
        self._trace("braid.diagram", [("cli", "braid_to_diagram")])
        self._trace("rt_engine.evaluate", [("cli", "evaluate_rt")])
        self._trace("rt_engine.strip_operator", [("rt_engine", "strip_operator")])
        self._trace("uqsl2.braiding", [("rt_engine", "braiding"), ("shadow_engine", "braiding")],
                    cached=True)
        self._trace("uqsl2.quantum_trace", [("rt_engine", "quantum_trace")])
        self._trace("uqsl2.cg_pair", [("shadow_engine", "cg_pair")], cached=True)
        self._trace("laurent.gcd", [("uqsl2", "gcd")], after=gcd_done)
        self._trace("laurent.divide_exact", [("uqsl2", "divide_exact")])
        self._trace("shadow_engine.evaluate", [("cli", "evaluate_shadow")])
        self._trace("shadow_engine.apply_crossing", [("shadow_engine", "apply_crossing")],
                    after=crossing_done)
        self._trace("shadow_engine.coefficient", [("shadow_engine", "shadow_coefficient")],
                    after=coefficient_done, cached=True)
        self._trace("skein_oracle.jones", [("cli", "jones_unnormalized")])
        self._trace("skein_oracle.bracket", [("skein_oracle", "kauffman_bracket")],
                    after=bracket_done)
        self._method("uqsl2.compose", m["uqsl2"].TensorOperator, "compose", after=nnz)
        self._method("uqsl2.tensor", m["uqsl2"].TensorOperator, "tensor", after=nnz)
        self._method("uqsl2.fraction_init", m["uqsl2"].FractionScalar, "__init__")

    def _install_laurent_counters(self) -> None:
        cls = self.m["laurent"].LaurentScalar
        mul, add, acc = cls.__mul__, cls.__add__, self.laurent

        def note(terms: dict) -> None:
            if terms:
                if len(terms) > acc[3]:
                    acc[3] = len(terms)
                values = terms.values()
                big = max(max(values), -min(values))
                if big > acc[4]:
                    acc[4] = big

        def counted_mul(a, b):
            out = mul(a, b)
            if out is not NotImplemented:
                acc[0] += 1
                acc[1] += len(a._terms) * len(b._terms)
                note(out._terms)
            return out

        def counted_add(a, b):
            out = add(a, b)
            if out is not NotImplemented:
                acc[2] += 1
                note(out._terms)
            return out

        self._patch(cls, "__mul__", counted_mul)
        self._patch(cls, "__add__", counted_add)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write every recorded span as text; returns the span count."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as out:
            out.write("# columns: name start_ns end_ns parent_row braid; names: "
                      + " ".join(self.names) + "\n")
            for row in range(0, len(spans), 5):
                out.write(f"{self.names[spans[row]]} {spans[row + 1]} {spans[row + 2]} "
                          f"{spans[row + 3]} {spans[row + 4]}\n")
        return len(spans) // 5
