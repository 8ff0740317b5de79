"""Level-by-level search over feasible 2-colorings.

Level k holds, up to isomorphism, every 2-coloring of K_k with no forbidden
monochromatic induced subgraph.  Level k+1 is produced by attaching one new
vertex to each level-k coloring in all 2^k ways, keeping the extensions that
stay clean, and accepting a child only when it is the canonical extension
of its class.  Any clean coloring of K_{k+1} restricts to a clean coloring
of K_k, so no survivor is missed.

The extension filter never re-scans the whole graph.  Per pattern size m,
in whole numpy arrays, it looks the induced codes of all (m-1)-subsets of
the parent up among the family's prefix keys to find the "critical" subsets
(one vertex short of a forbidden pattern), then marks a neighbor mask bad
when its bits on a critical subset select a completing column.

Each class is made exactly once, by McKay's canonical construction path
("Isomorph-free exhaustive generation", J. Algorithms 26, 1998), which is
correct with any canonical labeling.  The search labels a child with
`canonical_form` keyed by each vertex's (degree, neighbours' degree sum):
the walk starts from those key classes, so it rarely branches.  Only the
least clean mask of each orbit under the parent's automorphisms is tried;
the level carries their generators from the canonical form that accepted
the parent, so no class is canonicalized twice.  The new vertex must have
the largest key, and the child is accepted only when it is in the orbit of
the designated vertex d, the one labeled last, under the child's
automorphisms.  Families are hereditary, so the child minus d is clean: each
class comes from exactly one parent and one orbit of its masks.  The `kept`
count of a level still counts every clean mask.  The keyless, lex-min code
of a class is computed only for output, by `FeasibleLevel.codes`.

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
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import multiprocessing
import numpy as np

from .forbidden import ForbiddenFamily
from .graphs import Graph, _orbit, canonical_form, pair_count
from .jsonout import dumps

DEFAULT_SURVIVOR_CAP = 50_000_000
MAX_JOBS = 64  # a fork pool starts all its workers at once, about 27 MB each
LEVEL_FIELDS = ("k", "count", "expanded", "kept", "seconds")  # a report level


class SearchCapExceeded(RuntimeError):
    """A level outgrew the configured survivor cap; carries partial results."""

    def __init__(self, report):
        super().__init__(
            f"survivor cap exceeded at level {report.levels[-1]['k']}"
        )
        self.report = report


@dataclass(frozen=True)
class FeasibleLevel:
    """All clean colorings of K_k, one per class.  The search stores each in
    its own labeling, a fixed point of `canonical_form` keyed by (degree,
    neighbours' degree sum), sorted by those codes; `codes()` gives the
    classes' lex-min output codes.  `generators` packs, per graph,
    generators of its automorphism group, k bytes each (the images of
    vertices 0..k-1); the default is level 1's, and the top level of
    `levels`, which is never extended, carries none (an empty tuple).
    `expanded`, `kept` and `seconds` are the step that made the level: the
    masks it tried, the clean ones among them and its wall time in s."""

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


@dataclass
class SearchReport:
    """Machine-readable outcome of a run; serializes to JSON."""

    family: list
    n_max: int
    jobs: int
    cap: int
    seed: int = 0  # the search draws nothing at random; the schema keeps the field
    levels: list = field(default_factory=list)
    verdict: dict | None = None
    witnesses: dict | None = None

    def to_json_obj(self, with_timing: bool = True) -> dict:
        """Full report; with_timing=False drops the run-environment fields
        (per-level seconds and the worker count), leaving exactly the bytes
        that are guaranteed identical across runs and worker counts."""
        obj = asdict(self)  # a deep copy, keys in field order
        if not with_timing:
            for level in obj["levels"]:
                level.pop("seconds", None)
            obj.pop("jobs")
        return obj

    def to_json(self, with_timing: bool = True) -> str:
        return dumps(self.to_json_obj(with_timing))


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


def _invariants(prow, masks: np.ndarray, k: int) -> np.ndarray:
    """degree << 8 | neighbours' degree sum of each vertex (row; the new
    vertex is row k) of the child made by each mask (column); the sum is
    below 256, so the packed order is the order of the pairs."""
    bits = _mask_bits(k)
    sel, adj = bits[:, masks].astype(np.int32), bits[:, list(prow)].astype(np.int32)
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

    def map(self, fn, k: int, items: tuple, *extra) -> list:
        """fn over chunks (k, run of items, *extra), one result per chunk:
        in process, as one chunk, when there is one job or the call is
        narrow, else in the pool."""
        if self.jobs == 1 or len(items) < 2 * self.jobs:
            return [fn((k, items, *extra), self.shared)]
        if self.pool is None:
            self.pool = ProcessPoolExecutor(self.jobs, _FORK, _share, self.shared)
        # round robin, so each chunk gets a share of every stretch of the
        # items, and four chunks per worker, so none waits long on another
        n = min(4 * self.jobs, len(items))
        return list(self.pool.map(fn, [(k, items[i::n], *extra) for i in range(n)]))


def _expand_chunk(chunk, shared=None):
    """Accepted (code, packed generators) children of a run of k-vertex
    parents, given the same way, as (k, parents, pack); with pack false the
    children carry no generators.  Adds each parent's clean masks to the
    level's counter (by default a pool worker's installed one) and stops
    early once that passes the cap."""
    k, parents, pack = chunk
    fam, cap, level_kept = shared or _shared
    shift = pair_count(k)
    children = []
    for bits, packed in parents:
        parent = Graph(k, bits)
        masks = _clean_extensions(parent, fam)
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
        generators = [packed[i : i + k] for i in range(0, len(packed), k)]
        reps = _orbit_representatives(masks, generators, k)
        keys = keys[:, np.searchsorted(masks, reps)].T.tolist()
        for mask, key in zip(reps.tolist(), keys):
            form = canonical_form(Graph(k + 1, bits | mask << shift), key)
            # the top key class is labeled last: accept only when k is in
            # the orbit of the designated vertex, the one at position k
            d = form.witness.index(k)
            if _orbit(1 << d, form.generators) >> k & 1:
                packed = _pack(form.generators, form.witness) if pack else b""
                children.append((form.code, packed))
    return children


def _extend(level: FeasibleLevel, workers: Workers, pack: bool) -> FeasibleLevel:
    """Level k+1 from level k through `workers`.  With pack false the new
    level carries no generators, so it cannot be extended."""
    t0 = time.perf_counter()
    k = level.k
    if k >= 16:
        raise ValueError("levels beyond 16 vertices are unsupported")
    workers.shared[2].value = 0  # the level's clean-mask counter
    parents = tuple(zip((g.bits for g in level.graphs), level.generators, strict=True))
    results = workers.map(_expand_chunk, k, parents, pack)
    children = sorted(child for chunk in results for child in chunk)
    if any(a[0] == b[0] for a, b in zip(children, children[1:])):
        raise RuntimeError(f"a class of level {k + 1} was generated twice")
    return FeasibleLevel(
        k + 1,
        tuple(Graph(k + 1, code) for code, _ in children),
        workers.shared[2].value,
        tuple(packed for _, packed in children) if pack else (),
        level.count << k,
        round(time.perf_counter() - t0, 3),
    )


def extend_level(
    level: FeasibleLevel, fam: ForbiddenFamily, jobs: int = 1
) -> FeasibleLevel:
    """Level k+1 from level k, with generators, in a pool of its own when
    jobs > 1 and the level is wide enough."""
    with Workers(fam, DEFAULT_SURVIVOR_CAP, jobs) as workers:
        return _extend(level, workers, True)


def levels(fam: ForbiddenFamily, n_max: int, workers: Workers | None = None):
    """Level 1, then each next level, up to n_max vertices or the first
    empty level; through `workers` when given, else in process.  The chunks
    of a level stop early, with partial counts, once its clean-mask count
    passes the workers' cap."""
    workers = workers or Workers(fam)
    level = FeasibleLevel(1, (Graph(1, 0),))
    yield level
    while level.k < n_max and level.count > 0:
        # level n_max is never extended, so it needs no generators
        level = _extend(level, workers, level.k + 1 < n_max)
        yield level


def run_search(
    fam: ForbiddenFamily,
    n_max: int,
    *,
    jobs: int = 1,
    cap: int = DEFAULT_SURVIVOR_CAP,
    witnesses: bool = False,
    progress: bool = False,
) -> SearchReport:
    """Grow feasible levels from the 1-vertex coloring up to n_max vertices,
    in `jobs` processes, failing once a level's clean-mask count passes
    `cap`; `progress` prints a line per level to stderr.

    Stops early once a level is empty.  With `witnesses`, the report embeds
    the last non-empty level as graph6 lines, by ascending lex-min code.
    The verdict, level counts and witnesses are deterministic for any
    worker count; only the timing fields vary run to run, and the partial
    counts of a level that passed the cap depend on where its chunks
    stopped.
    """
    if not 1 <= n_max <= 16:
        raise ValueError("n_max must be in 1..16")
    report = SearchReport(family=fam.describe(), n_max=n_max, jobs=jobs, cap=cap)
    start = time.perf_counter()
    with Workers(fam, cap, jobs) as workers:
        for level in levels(fam, n_max, workers):
            report.levels.append({key: getattr(level, key) for key in LEVEL_FIELDS})
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
                report.verdict = {"kind": "cap-exceeded", "k": level.k}
                raise SearchCapExceeded(report)
        if witnesses:
            lines = [Graph(final.k, code).to_graph6() for code in final.codes(workers)]
            report.witnesses = {"k": final.k, "count": final.count, "graph6": lines}
    if level.count == 0:
        report.verdict = {"kind": "empty-at-k", "k": level.k}
    else:
        report.verdict = {
            "kind": "feasible-survivors",
            "k": level.k,
            "count": level.count,
        }
    return report
