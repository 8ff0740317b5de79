"""Level-by-level search over feasible 2-colorings.

Level k holds, up to isomorphism, every 2-coloring of K_k with no forbidden
monochromatic induced subgraph.  Level k+1 is produced by attaching one new
vertex to each level-k coloring in all 2^k ways, keeping the extensions that
stay clean, and accepting a child only when it is the canonical extension
of its class.  Any clean coloring of K_{k+1} restricts to a clean coloring
of K_k, so no survivor is missed.

The extension filter never re-scans the whole graph.  It takes a block of
parents at once.  Per pattern size m, in whole numpy arrays, it looks the
induced codes of all (m-1)-subsets of the block's parents up among the
family's prefix keys to find the "critical" subsets (one vertex short of a
forbidden pattern) and their completing columns c.  It then marks only the
bad masks: the 2^(k-m+1) masks whose bits on a critical subset spell c.

Each class is made exactly once, by McKay's canonical construction path
("Isomorph-free exhaustive generation", J. Algorithms 26, 1998), which is
correct with any canonical labeling.  The search labels a child with
`canonical_form` keyed by each vertex's (degree, neighbours' degree sum):
the walk starts from those key classes, so it rarely branches.  Only the
least clean mask of each orbit under the parent's automorphisms is tried;
every level carries their generators from the canonical form that accepted
each of its graphs, so no class is canonicalized twice and any level can be
extended.  The new vertex must have the largest key, and the child is
accepted only when it is in the orbit of the designated vertex d, the one
labeled last, under the child's automorphisms.  Families are hereditary, so
the child minus d is clean: each class comes from exactly one parent and
one orbit of its masks.  The `kept` count of a level still counts every
clean mask.  The keyless, lex-min code of a class is computed only for
output, by `FeasibleLevel.codes`.

`levels` is the one level driver: it yields level 1 and then each next
level.  `Workers` owns a search's fork pool, opened at the first call wide
enough to split, and its one chunked map, which serves the level step and
the output codes alike.

The test suite checks both emptiness verdicts and per-level class sets
against a direct enumeration of all labeled colorings (n <= 7) in
tests/oracles.py.
"""

from __future__ import annotations

import itertools
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import multiprocessing
import numpy as np

from .forbidden import ForbiddenFamily
from .graphs import MAX_VERTICES, Graph, _orbit, canonical_form, pair_count

DEFAULT_SURVIVOR_CAP = 50_000_000
MAX_JOBS = 64  # a fork pool starts all its workers at once, about 27 MB each
LEVEL_FIELDS = ("k", "count", "expanded", "kept", "seconds")  # a report level
BLOCK_CELLS = 1 << 13  # a filter block's masks, parents x 2^k, at most
SCATTER_ENTRIES = 1 << 14  # bad-mask indices per scatter of the filter


@dataclass(frozen=True)
class FeasibleLevel:
    """All clean colorings of K_k, one per class.  The search stores each in
    its own labeling, a fixed point of `canonical_form` keyed by (degree,
    neighbours' degree sum), sorted by those codes; `codes()` gives the
    classes' lex-min output codes.  `generators` packs, per graph,
    generators of its automorphism group, k bytes each (the images of
    vertices 0..k-1); the default is level 1's.  `expanded`, `kept` and
    `seconds` are the step that made the level: the masks it tried, the
    clean ones among them and its wall time in s."""

    k: int
    graphs: tuple[Graph, ...]
    kept: int = field(default=1, compare=False)
    generators: tuple = field(default=(b"",), compare=False, repr=False)
    expanded: int = field(default=1, compare=False)
    seconds: float = field(default=0.0, compare=False)

    @property
    def count(self) -> int:
        return len(self.graphs)

    def codes(self, workers: Workers | None = None) -> tuple[int, ...]:
        """The lex-min canonical codes of the classes, ascending: the codes
        every output shows; through `workers` when given."""
        bits = tuple(g.bits for g in self.graphs)
        chunks = (workers or Workers()).map(_lex_codes, self.k, bits)
        return tuple(sorted(code for chunk in chunks for code in chunk))


def _lex_codes(chunk, shared=None) -> list[int]:
    """The lex-min canonical codes of a run of k-vertex graphs, given as
    (k, edge bitsets); a `Workers.map` function that needs no shared state."""
    k, bits = chunk
    return [canonical_form(Graph(k, b)).code for b in bits]


def timing_free(report: dict) -> dict:
    """A new dict of `report` without its run-environment fields, the worker
    count and each level's seconds: the part of a search report that is
    identical across runs and worker counts.  `report` is left unchanged;
    the other values are shared with it."""
    obj = {key: value for key, value in report.items() if key != "jobs"}
    obj["levels"] = [
        {key: value for key, value in level.items() if key != "seconds"}
        for level in report["levels"]
    ]
    return obj


@lru_cache(maxsize=None)
def _subsets(k: int, w: int):
    """The w-subsets of range(k), ascending: for each, the parent's bit
    slots of its pairs in slot order; the weights of those slots in a code;
    and, one row per position, the mask bits of the subset's vertices and
    of the other vertices."""
    subsets = itertools.combinations(range(k), w)
    rows = [s + tuple(v for v in range(k) if v not in s) for s in subsets]
    order = np.array(rows, dtype=np.intp).reshape(-1, k)  # a subset, then the rest
    high, low = np.tril_indices(w, -1)  # pairs (j, i), j > i, in slot order
    top, bits = order[:, high], np.uint16(1) << order.T.astype(np.uint16)
    slots = top * (top - 1) // 2 + order[:, low]
    return slots, np.int64(1) << np.arange(high.size), bits[:w], bits[w:]


def _clean_extensions(k: int, bits, fam: ForbiddenFamily) -> list[np.ndarray]:
    """For each k-vertex parent, given by its edge bitset in `bits`: the
    neighbor masks M, ascending, for which parent + new vertex (adjacent to
    M) is clean."""
    nbytes = (pair_count(k) + 7) // 8
    raw = np.frombuffer(b"".join(b.to_bytes(nbytes, "little") for b in bits), np.uint8)
    slots = np.unpackbits(raw.reshape(len(bits), nbytes), axis=1, bitorder="little")
    bad = np.zeros(len(bits) << k, dtype=bool)  # parent p's mask M at p << k | M
    for m in fam.sizes:
        if m - 1 > k:
            break
        keys, table = fam.completions[m]
        pair_slots, weights, inside, outside = _subsets(k, m - 1)
        codes = slots[:, pair_slots] @ weights
        rows = np.minimum(np.searchsorted(keys, codes), keys.size - 1)
        parent, subset = np.nonzero(keys[rows] == codes)
        # one entry per critical (parent, subset) and completing column c;
        # its bad masks spell c on the subset and are free on the other bits
        entry, c = np.nonzero(table[rows[parent, subset]])
        parent, subset = parent[entry], subset[entry]
        base = parent << k
        for i, bit in enumerate(inside[:, subset]):
            base |= (c >> i & 1) * bit
        step = max(1, SCATTER_ENTRIES >> (k - m + 1))
        for lo in range(0, base.size, step):
            marks = base[lo : lo + step, None]
            for other in outside[:, subset[lo : lo + step]]:
                marks = np.concatenate((marks, marks | other[:, None]), axis=1)
            bad[marks] = True
    clean = ~bad.reshape(len(bits), 1 << k)
    return [np.flatnonzero(row).astype(np.uint32) for row in clean]


def _bits(words, k: int) -> np.ndarray:
    """bits[i, j] = bit i of words[j], for i < k."""
    return np.uint32(words) >> np.arange(k, dtype=np.uint32)[:, None] & 1


def _orbit_representatives(masks: np.ndarray, generators, k: int) -> np.ndarray:
    """The masks that are least in their orbit under the group generated by
    `generators`, automorphisms of the parent acting on masks by sending
    bit i to bit h[i].  `masks` must be ascending and a union of orbits."""
    if not len(generators):
        return masks
    bits = _bits(masks, k)
    images = [  # the index in masks of each mask's image
        np.searchsorted(masks, np.bitwise_or.reduce(bits << np.uint32(h)[:, None]))
        for h in generators
    ]
    # least[j] only ever falls, and always indexes a member of the orbit of
    # masks[j]; it stops falling once it is constant on every orbit, at the
    # orbit minimum, since masks is ascending
    least = np.arange(masks.size)
    while True:
        fallen = least
        for image in images:
            fallen = np.minimum(fallen, fallen[image])
        fallen = fallen[fallen]
        if np.array_equal(fallen, least):
            return masks[least == np.arange(masks.size)]
        least = fallen


def _invariants(prow, masks: np.ndarray, k: int) -> np.ndarray:
    """degree << 8 | neighbours' degree sum of each vertex (row; the new
    vertex is row k) of the child made by each mask (column); the sum is
    below 256, so the packed order is the order of the pairs."""
    sel, adj = _bits(masks, k).astype(np.int32), _bits(prow, k).astype(np.int32)
    deg = np.vstack([adj.sum(axis=0)[:, None] + sel, sel.sum(axis=0)])
    nsum = np.vstack([adj @ deg[:k] + sel * deg[k], (sel * deg[:k]).sum(axis=0)])
    return deg << 8 | nsum


def _pack(perms, w) -> bytes:
    """The permutations h relabeled by w (w[v] -> w[h[v]]), one byte per image."""
    inverse = sorted(range(len(w)), key=w.__getitem__)
    return bytes(w[h[v]] for h in perms for v in inverse)


_FORK = multiprocessing.get_context("fork")
_shared = None  # a pool worker's (family, cap, clean-mask counter of the level)


def _share(fam, cap, counter) -> None:
    """Pool worker initializer: install the search's family, cap and counter."""
    global _shared
    _shared = fam, cap, counter


class Workers:
    """A search's process pool and its one chunked map.  The fork pool of
    `jobs` workers, 1..MAX_JOBS, opens at the first call with at least two
    items per worker, and leaving the `with` block, even by an error, joins
    it.  Each worker gets (fam, cap, the level's clean-mask counter) when it
    starts."""

    def __init__(self, fam=None, cap: int = DEFAULT_SURVIVOR_CAP, jobs: int = 1):
        if not 1 <= jobs <= MAX_JOBS:
            raise ValueError(f"jobs must be in 1..{MAX_JOBS}")
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.shared = (fam, cap, _FORK.Value("q", 0))
        self.jobs, self.pool = jobs, None

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.shutdown()

    def map(self, fn, k: int, items: tuple) -> list:
        """fn over chunks (k, run of items), one result per chunk:
        in process, as one chunk, when there is one job or the call is
        narrow, else in the pool."""
        if self.jobs == 1 or len(items) < 2 * self.jobs:
            return [fn((k, items), self.shared)]
        if self.pool is None:
            self.pool = ProcessPoolExecutor(self.jobs, _FORK, _share, self.shared)
        # round robin, so each chunk gets a share of every stretch of the
        # items, and four chunks per worker, so none waits long on another
        n = min(4 * self.jobs, len(items))
        return list(self.pool.map(fn, [(k, items[i::n]) for i in range(n)]))


def _filtered(k: int, parents, fam: ForbiddenFamily):
    """Each (bits, packed) k-vertex parent with its clean masks, filtered in
    blocks of up to BLOCK_CELLS masks, each made when it is first used."""
    size = max(1, BLOCK_CELLS >> k)
    for lo in range(0, len(parents), size):
        run = parents[lo : lo + size]
        yield from zip(run, _clean_extensions(k, [bits for bits, _ in run], fam))


def _expand_chunk(chunk, shared=None):
    """Accepted (code, packed generators) children of a run of k-vertex
    parents, given the same way, as (k, parents).  Adds each parent's clean
    masks to the level's counter (by default a pool worker's installed one)
    and stops early once that passes the cap."""
    k, parents = chunk
    fam, cap, level_kept = shared or _shared
    shift = pair_count(k)
    children = []
    for (bits, packed), masks in _filtered(k, parents, fam):
        parent = Graph(k, bits)
        if not masks.size:
            continue
        with level_kept.get_lock():
            level_kept.value += masks.size
            if level_kept.value > cap:
                break
        # the new vertex must have the top invariant; that holds on whole
        # orbits of the parent's automorphisms
        keys = _invariants(parent.rows(), masks, k)
        top = keys[k] >= keys.max(axis=0)
        masks, keys = masks[top], keys[:, top]
        if not masks.size:
            continue
        generators = np.frombuffer(packed, np.uint8).reshape(-1, k)
        reps = _orbit_representatives(masks, generators, k)
        keys = keys[:, np.searchsorted(masks, reps)].T.tolist()
        for mask, key in zip(reps.tolist(), keys):
            form = canonical_form(Graph(k + 1, bits | mask << shift), key)
            # the top key class is labeled last: accept only when k is in
            # the orbit of the designated vertex, the one at position k
            d = form.witness.index(k)
            if _orbit(1 << d, form.generators) >> k & 1:
                children.append((form.code, _pack(form.generators, form.witness)))
    return children


def _extend(level: FeasibleLevel, workers: Workers) -> FeasibleLevel:
    """Level k+1 from level k through `workers`."""
    t0 = time.perf_counter()
    k = level.k
    if k >= MAX_VERTICES:
        raise ValueError(f"levels beyond {MAX_VERTICES} vertices are unsupported")
    workers.shared[2].value = 0  # the level's clean-mask counter
    parents = tuple(zip((g.bits for g in level.graphs), level.generators, strict=True))
    results = workers.map(_expand_chunk, k, parents)
    children = sorted(child for chunk in results for child in chunk)
    if any(a[0] == b[0] for a, b in zip(children, children[1:])):
        raise RuntimeError(f"a class of level {k + 1} was generated twice")
    return FeasibleLevel(
        k + 1,
        tuple(Graph(k + 1, code) for code, _ in children),
        workers.shared[2].value,
        tuple(packed for _, packed in children),
        level.count << k,
        round(time.perf_counter() - t0, 3),
    )


def extend_level(
    level: FeasibleLevel, fam: ForbiddenFamily, jobs: int = 1
) -> FeasibleLevel:
    """Level k+1 from level k, in a pool of its own when jobs > 1 and the
    level is wide enough."""
    with Workers(fam, DEFAULT_SURVIVOR_CAP, jobs) as workers:
        return _extend(level, workers)


def levels(fam: ForbiddenFamily, n_max: int, workers: Workers | None = None):
    """Level 1, then each next level, up to n_max vertices or the first
    empty level; through `workers` when given, else in process.  The chunks
    of a level stop early, with partial counts, once its clean-mask count
    passes the workers' cap."""
    workers = workers or Workers(fam)
    level = FeasibleLevel(1, (Graph(1, 0),))
    yield level
    while level.k < n_max and level.count > 0:
        level = _extend(level, workers)
        yield level


def run_search(
    fam: ForbiddenFamily,
    n_max: int,
    *,
    jobs: int = 1,
    cap: int = DEFAULT_SURVIVOR_CAP,
    witnesses: bool = False,
    progress: bool = False,
) -> dict:
    """Grow feasible levels from the 1-vertex coloring up to n_max vertices,
    in `jobs` processes; `progress` prints a line per level to stderr.

    Stops early once a level is empty, or once a level's clean-mask count
    passes `cap`: then the report holds the levels so far, the verdict
    `cap-exceeded` and no witnesses.  The report is the JSON object the
    `search` command writes; with `witnesses`, it embeds the last non-empty
    level as graph6 lines, by ascending lex-min code.  Its `timing_free`
    view is deterministic for any worker count, except the partial counts
    of a level that passed the cap, which depend on where its chunks
    stopped.
    """
    if not 1 <= n_max <= MAX_VERTICES:
        raise ValueError(f"n_max must be in 1..{MAX_VERTICES}")
    report = {
        "family": fam.describe(),
        "n_max": n_max,
        "jobs": jobs,
        "cap": cap,
        "seed": 0,  # the search draws nothing at random; the schema keeps the field
        "levels": [],
        "verdict": None,
        "witnesses": None,
    }
    start = time.perf_counter()
    with Workers(fam, cap, jobs) as workers:
        for level in levels(fam, n_max, workers):
            report["levels"].append({key: getattr(level, key) for key in LEVEL_FIELDS})
            if progress and level.k > 1:
                print(
                    f"level={level.k} expanded={level.expanded} kept={level.kept} "
                    f"classes={level.count} elapsed={time.perf_counter() - start:.2f}",
                    file=sys.stderr,
                )
            if level.count > 0:
                final = level  # the last non-empty level
            # the chunks stop once kept, never below count, passes the cap
            if level.kept > cap:
                report["verdict"] = {"kind": "cap-exceeded", "k": level.k}
                return report
        if witnesses:
            lines = [Graph(final.k, code).to_graph6() for code in final.codes(workers)]
            report["witnesses"] = {"k": final.k, "count": final.count, "graph6": lines}
    if level.count == 0:
        report["verdict"] = {"kind": "empty-at-k", "k": level.k}
    else:
        report["verdict"] = {
            "kind": "feasible-survivors",
            "k": level.k,
            "count": level.count,
        }
    return report
