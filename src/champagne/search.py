"""Level-by-level search over feasible 2-colorings.

Level k holds, up to isomorphism, every 2-coloring of K_k with no forbidden
monochromatic induced subgraph.  Level k+1 is produced by attaching one new
vertex to each level-k coloring in all 2^k ways, keeping the extensions that
stay clean, then canonicalizing, deduplicating and sorting.  Any clean
coloring of K_{k+1} restricts to a clean coloring of K_k, so no survivor is
missed.

The extension filter never re-scans the whole graph.  Per pattern size m,
in whole numpy arrays, it looks the induced codes of all (m-1)-subsets of
the parent up among the family's prefix keys to find the "critical" subsets
(one vertex short of a forbidden pattern), then marks a neighbor mask bad
when its bits on a critical subset select a completing column.

An automorphism of the parent maps a clean mask to a clean mask whose child
is isomorphic, so only one mask per orbit, the least, is canonicalized; the
orbits come from the generators `canonical_form(parent)` returns.  The
`kept` count of a level still counts every clean mask.

The test suite checks both emptiness verdicts and per-level class sets
against a direct enumeration of all labeled colorings (n <= 7) in
tests/oracles.py.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import multiprocessing
import numpy as np

from .forbidden import ForbiddenFamily, is_forbidden
from .graphs import Graph, canonical_form, pair_count

DEFAULT_SURVIVOR_CAP = 50_000_000


class SearchCapExceeded(RuntimeError):
    """A level outgrew the configured survivor cap; carries partial results."""

    def __init__(self, report):
        super().__init__(
            f"survivor cap exceeded at level {report.levels[-1]['k']}"
        )
        self.report = report


@dataclass(frozen=True)
class FeasibleLevel:
    """All clean colorings of K_k, canonical and sorted by code."""

    k: int
    graphs: tuple[Graph, ...]

    @property
    def count(self) -> int:
        return len(self.graphs)

    def codes(self) -> tuple[int, ...]:
        return tuple(g.bits for g in self.graphs)

    def validate(self, fam: ForbiddenFamily) -> None:
        codes = self.codes()
        if list(codes) != sorted(set(codes)):
            raise AssertionError(f"level {self.k} codes not strictly increasing")
        for g in self.graphs:
            if g.n != self.k:
                raise AssertionError(f"level {self.k} holds a graph on {g.n} vertices")
            if canonical_form(g).code != g.bits:
                raise AssertionError(f"level {self.k} graph not canonical: {g}")
            if is_forbidden(g, fam):
                raise AssertionError(f"level {self.k} graph is forbidden: {g}")


@dataclass
class SearchOptions:
    jobs: int = 1
    cap: int = DEFAULT_SURVIVOR_CAP
    collect_witnesses: bool = False
    witness_path: str | None = None
    progress: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")


@dataclass
class SearchReport:
    """Machine-readable outcome of a run; serializes to JSON."""

    family: list
    n_max: int
    jobs: int
    cap: int
    seed: int
    levels: list = field(default_factory=list)
    verdict: dict | None = None
    witnesses: dict | None = None

    def to_json_obj(self, with_timing: bool = True) -> dict:
        """Full report; with_timing=False drops the run-environment fields
        (per-level seconds and the worker count), leaving exactly the bytes
        that are guaranteed identical across runs and worker counts."""
        levels = [dict(level) for level in self.levels]
        obj = {
            "family": self.family,
            "n_max": self.n_max,
            "jobs": self.jobs,
            "cap": self.cap,
            "seed": self.seed,
            "levels": levels,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }
        if not with_timing:
            for level in levels:
                level.pop("seconds", None)
            obj.pop("jobs")
        return obj

    def to_json(self, with_timing: bool = True) -> str:
        return json.dumps(self.to_json_obj(with_timing), indent=2, sort_keys=True)


@lru_cache(maxsize=None)
def _mask_bits(k: int) -> np.ndarray:
    """bits[i, M] = bit i of neighbor mask M, for all 2^k masks."""
    masks = np.arange(1 << k, dtype=np.uint32)
    return (masks >> np.arange(k, dtype=np.uint32)[:, None] & 1).astype(np.uint8)


@lru_cache(maxsize=None)
def _subsets(k: int, w: int):
    """The w-subsets of range(k), ascending, and for each the parent's bit
    slots of its pairs in slot order."""
    subsets = np.array(list(itertools.combinations(range(k), w)), dtype=np.intp)
    high, low = np.tril_indices(w, -1)  # pairs (j, i), j > i, in slot order
    top = subsets[:, high]
    return subsets, top * (top - 1) // 2 + subsets[:, low]


def _clean_extensions(parent: Graph, fam: ForbiddenFamily) -> np.ndarray:
    """Neighbor masks M, ascending, for which parent + new vertex (adjacent
    to M) is clean."""
    k = parent.n
    nbytes = (pair_count(k) + 7) // 8
    slots = np.unpackbits(
        np.frombuffer(parent.bits.to_bytes(nbytes, "little"), dtype=np.uint8),
        bitorder="little",
    )
    mbits = _mask_bits(k)
    bad = np.zeros(1 << k, dtype=bool)
    # critical subsets in blocks of at most 2^17 selector cells
    block = max(1, (1 << 17) >> k)
    for m in fam.sizes:
        if m - 1 > k:
            break
        keys, table = fam.completions[m]
        subsets, pair_slots = _subsets(k, m - 1)
        weights = np.int64(1) << np.arange(pair_slots.shape[1])
        codes = (slots[pair_slots] * weights).sum(axis=1)
        rows = np.minimum(np.searchsorted(keys, codes), keys.size - 1)
        hit = keys[rows] == codes
        # each critical subset's row start in the flattened table
        offsets, subsets = rows[hit] << (m - 1), subsets[hit]
        for lo in range(0, offsets.size, block):
            chunk = subsets[lo : lo + block]
            # bit i of the selector is the mask's bit at the subset's i-th vertex
            sel = mbits[chunk[:, 0]]
            for i in range(1, m - 1):
                sel |= mbits[chunk[:, i]] << i
            bad |= table.ravel()[offsets[lo : lo + block, None] + sel].any(axis=0)
    return np.flatnonzero(~bad).astype(np.uint32)


def _orbit_representatives(masks: np.ndarray, generators, k: int) -> np.ndarray:
    """The masks that are least in their orbit under the group generated by
    `generators`, automorphisms of the parent acting on masks by sending
    bit i to bit h[i].  `masks` must be a union of orbits."""
    if not generators:
        return masks
    mbits = _mask_bits(k).astype(np.uint32)
    images = []
    for h in generators:
        image = np.zeros(1 << k, dtype=np.uint32)
        for i, hi in enumerate(h):
            image |= mbits[i] << hi
        images.append(image)
    # least[M] only ever falls, and always names a member of M's orbit; it
    # stops falling once it is constant on every orbit, at the orbit minimum
    least = np.arange(1 << k, dtype=np.uint32)
    while True:
        fallen = least
        for image in images:
            fallen = np.minimum(fallen, fallen[image])
        fallen = fallen[fallen]
        if np.array_equal(fallen, least):
            return masks[least[masks] == masks]
        least = fallen


def _expand_chunk(args):
    """Child codes and the clean-mask count over a run of parents.  Stops
    early, with the partial counts, once either count passes `cap`."""
    parent_codes, k, fam, cap = args
    shift = pair_count(k)
    kept = 0
    child_codes = set()
    for bits in parent_codes:
        parent = Graph(k, bits)
        masks = _clean_extensions(parent, fam)
        if not masks.size:
            continue
        kept += masks.size
        if kept > cap:
            break
        # an automorphism of the parent maps each child to an isomorphic
        # one, so one mask per orbit yields every child class
        generators = canonical_form(parent).generators
        for mask in _orbit_representatives(masks, generators, k).tolist():
            child_codes.add(canonical_form(Graph(k + 1, bits | mask << shift)).code)
        if len(child_codes) > cap:
            break
    return child_codes, kept


def extend_level(
    level: FeasibleLevel, fam: ForbiddenFamily, jobs: int = 1
) -> FeasibleLevel:
    new_level, _, _ = _extend_level_stats(level, fam, jobs)
    return new_level


def _extend_level_stats(level, fam, jobs, cap=DEFAULT_SURVIVOR_CAP):
    k = level.k
    if k >= 16:
        raise ValueError("levels beyond 16 vertices are unsupported")
    parent_codes = level.codes()
    expanded = level.count * (1 << k)
    if jobs == 1 or level.count < 2 * jobs:
        chunks = [parent_codes] if parent_codes else []
        results = [_expand_chunk((c, k, fam, cap)) for c in chunks]
    else:
        bounds = np.linspace(0, len(parent_codes), jobs + 1).astype(int)
        chunks = [
            parent_codes[bounds[i] : bounds[i + 1]]
            for i in range(jobs)
            if bounds[i] < bounds[i + 1]
        ]
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            results = list(pool.map(_expand_chunk, [(c, k, fam, cap) for c in chunks]))
    codes: set[int] = set()
    kept = 0
    for chunk_codes, chunk_kept in results:
        codes |= chunk_codes
        kept += chunk_kept
    graphs = tuple(Graph(k + 1, code) for code in sorted(codes))
    return FeasibleLevel(k + 1, graphs), expanded, kept


def run_search(
    fam: ForbiddenFamily, n_max: int, opts: SearchOptions | None = None
) -> SearchReport:
    """Grow feasible levels from the 1-vertex coloring up to n_max vertices.

    Stops early once a level is empty.  The verdict, level counts and any
    witness output are deterministic for any worker count; only the timing
    fields vary run to run, and the partial counts of a level that passed
    the cap depend on where its chunks stopped.
    """
    if not 1 <= n_max <= 16:
        raise ValueError("n_max must be in 1..16")
    opts = opts or SearchOptions()
    report = SearchReport(
        family=fam.describe(),
        n_max=n_max,
        jobs=opts.jobs,
        cap=opts.cap,
        seed=opts.seed,
    )
    start = time.perf_counter()
    level = FeasibleLevel(1, (Graph(1, 0),))
    report.levels.append(
        {"k": 1, "count": 1, "expanded": 1, "kept": 1, "seconds": 0.0}
    )
    final = level  # the last non-empty level
    while level.k < n_max and level.count > 0:
        t0 = time.perf_counter()
        level, expanded, kept = _extend_level_stats(level, fam, opts.jobs, opts.cap)
        report.levels.append(
            {
                "k": level.k,
                "count": level.count,
                "expanded": expanded,
                "kept": kept,
                "seconds": round(time.perf_counter() - t0, 3),
            }
        )
        if opts.progress:
            print(
                f"level={level.k} expanded={expanded} kept={kept} "
                f"deduped={level.count} elapsed={time.perf_counter() - start:.2f}",
                file=sys.stderr,
            )
        if level.count > 0:
            final = level
        # a chunk stops once it passes the cap, so these counts are partial
        if max(kept, level.count) > opts.cap:
            report.verdict = {"kind": "cap-exceeded", "k": level.k}
            raise SearchCapExceeded(report)
    if level.count == 0:
        report.verdict = {"kind": "empty-at-k", "k": level.k}
    else:
        report.verdict = {
            "kind": "feasible-survivors",
            "k": level.k,
            "count": level.count,
        }
    if opts.collect_witnesses or opts.witness_path:
        lines = [g.to_graph6() for g in final.graphs]
        report.witnesses = {"k": final.k, "count": final.count}
        if opts.witness_path:
            with open(opts.witness_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            report.witnesses["path"] = opts.witness_path
        if opts.collect_witnesses:
            report.witnesses["graph6"] = lines
    return report

