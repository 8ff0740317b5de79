"""In-memory spans around the public functions of each champagne layer.

`Tracer.install` replaces a public function at every name a caller looks
it up by: its defining module and every champagne module that imported it
with `from .x import name`.  Nothing inside the package changes.  Each call
records one span, `[name, start_ns, end_ns, parent_index, run_id, size]`,
where `size` is an optional integer read from the arguments (the vertex
count for `canonical_form`, the level produced for `extend_level`).
"""

from __future__ import annotations

import gzip
import sys
import time

# (span name, defining module, attribute, size of the call or None)
TRACED = (
    ("cli.main", "champagne.cli", "main", None),
    ("graphs.canonical_form", "champagne.graphs", "canonical_form", lambda a: a[0].n),
    ("forbidden.induced_code", "champagne.forbidden", "induced_code", None),
    ("forbidden.compile", "champagne.forbidden", "family_from_json", None),
    ("search.extend_level", "champagne.search", "extend_level", lambda a: a[0].k + 1),
    ("signature.verify_pattern_lemma", "champagne.signature", "verify_pattern_lemma", None),
    ("signature.sample", "champagne.signature", "cycle_pattern_sample", None),
    ("signature.sample", "champagne.signature", "h7_pattern_sample", None),
    ("signature.check_sample", "champagne.signature", "check_sample", None),
    ("signature.det_exact", "champagne.signature", "det_exact", None),
    ("signature.signature_exact", "champagne.signature", "signature_exact", None),
    ("signature.charpoly_int", "champagne.signature", "charpoly_int", None),
    ("signature.signature_of_array", "champagne.signature", "signature_of_array", None),
    ("geometry.lower_bound_config", "champagne.geometry", "lower_bound_config", None),
    ("geometry.chirality_graph", "champagne.geometry", "chirality_graph", None),
    ("geometry.check_realization", "champagne.geometry", "check_realization", None),
    ("geometry.t_matrix", "champagne.geometry", "t_matrix", None),
    ("geometry.line_distance", "champagne.geometry", "line_distance", None),
    ("geometry.are_parallel", "champagne.geometry", "are_parallel", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.run = "setup"

    def _wrap(self, name, fn, size):
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current
            span = [name, 0, 0, parent, tracer.run, size(args) if size else None]
            tracer.current = len(spans)
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                tracer.current = parent

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED function at each name it is looked up by."""
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("champagne")]
        for name, module, attr, size in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path: str) -> None:
        """Spans as tab-separated lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trun\tsize\n")
            for span in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")


class SpanStats:
    """Call counts, inclusive and self times of the spans of one run id."""

    def __init__(self, spans: list[list], run: str):
        dur = [s[2] - s[1] for s in spans]
        covered = [0] * len(spans)
        for s, d in zip(spans, dur):
            if s[3] >= 0:
                covered[s[3]] += d
        self.calls: dict = {}
        self.total_ns: dict = {}
        self.self_ns: dict = {}
        for i, s in enumerate(spans):
            if s[4] != run:
                continue
            for key in (s[0], (s[0], s[5])):
                self.calls[key] = self.calls.get(key, 0) + 1
                self.total_ns[key] = self.total_ns.get(key, 0) + dur[i]
                self.self_ns[key] = self.self_ns.get(key, 0) + dur[i] - covered[i]
        # charpoly_int calls made on behalf of a sample check
        self.charpoly_in_samples = 0
        for s in spans:
            if s[0] == "signature.charpoly_int" and s[4] == run:
                p = s[3]
                while p >= 0 and spans[p][0] != "signature.check_sample":
                    p = spans[p][3]
                self.charpoly_in_samples += p >= 0

    def count(self, key) -> int:
        return self.calls.get(key, 0)

    def seconds(self, key) -> float:
        return self.total_ns.get(key, 0) / 1e9

    def self_seconds(self, key) -> float:
        return self.self_ns.get(key, 0) / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], facts: dict) -> dict:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json.

    `facts` holds what the drive knows and the spans do not: `expanded`
    and `classes` of a level-by-level search, `pairs` of the line configs.
    A layer the workload does not reach reads 0.
    """
    st, setup, pool = SpanStats(spans, "layers"), SpanStats(spans, "setup"), SpanStats(spans, "pool")
    canon, induced, extend = "graphs.canonical_form", "forbidden.induced_code", "search.extend_level"
    kept, expanded, classes = st.count(canon), facts.get("expanded", 0), facts.get("classes", 0)
    m = {
        f"{canon}.calls": st.count(canon),
        f"{canon}.s": st.seconds(canon),
        **{
            f"{canon}.us_per_call.n{n}": 1e6 * _ratio(st.seconds((canon, n)), st.count((canon, n)))
            for n in (7, 8, 9)
        },
        f"{induced}.calls": st.count(induced),
        f"{induced}.s": st.seconds(induced),
        "forbidden.compile_s": setup.seconds("forbidden.compile") + st.seconds("forbidden.compile"),
        **{f"{extend}.s.L{k}": st.seconds((extend, k)) for k in range(2, 11)},
        "search.self_s": st.self_seconds(extend),
        "search.expanded": expanded,
        "search.kept": kept,
        "search.classes": classes,
        "search.kept_ratio": _ratio(kept, expanded),
        "search.distinct_ratio": _ratio(classes, kept),
        "search.pool_speedup.L8": _ratio(st.seconds((extend, 8)), pool.seconds((extend, 8))),
        "signature.charpoly_int.calls": st.count("signature.charpoly_int"),
        "signature.charpoly_int.s": st.seconds("signature.charpoly_int"),
        "signature.charpoly_int.calls_per_sample": _ratio(
            st.charpoly_in_samples, st.count("signature.check_sample")
        ),
        "signature.det_exact.s": st.seconds("signature.det_exact"),
        "signature.signature_exact.s": st.seconds("signature.signature_exact"),
        "signature.sample.s": st.seconds("signature.sample"),
        "signature.check_sample.self_s": st.self_seconds("signature.check_sample"),
        "signature.signature_of_array.calls": st.count("signature.signature_of_array"),
        "signature.signature_of_array.s": st.seconds("signature.signature_of_array"),
        "geometry.line_distance.calls": st.count("geometry.line_distance"),
        "geometry.line_distance.s": st.seconds("geometry.line_distance"),
        "geometry.are_parallel.calls": st.count("geometry.are_parallel"),
        "geometry.pairs": facts.get("pairs", 0),
        "geometry.line_distance.calls_per_pair": _ratio(
            st.count("geometry.line_distance"), facts.get("pairs", 0)
        ),
        "geometry.chirality_graph.s": st.seconds("geometry.chirality_graph"),
        "geometry.t_matrix.s": st.seconds("geometry.t_matrix"),
        "geometry.check_realization.s": st.seconds("geometry.check_realization"),
        "cli.self_s": st.self_seconds("cli.main"),
    }
    return m
