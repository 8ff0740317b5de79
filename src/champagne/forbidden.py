"""Forbidden monochromatic induced subgraphs in a 2-coloring.

A coloring is a Graph (edges red, non-edges blue).  A family entry is a
pattern graph plus a color scope: "red" forbids the pattern as an induced
subgraph of the coloring, "blue" forbids it in the complement, "both"
forbids either.  Patterns are small (2..8 vertices), so each entry is
compiled to the set of edge-bitset codes of all its labeled copies; an
induced-containment test is then subset enumeration plus set membership.
The copies come from whole-array numpy steps over the n! x n table of
vertex orders, one pass per pattern edge.  Relabeling commutes with
complementing, so an entry's blue copies are its red copies XOR the full
mask; the complement is never enumerated.

For the level-by-level search, `completions[m]` splits each bad code into
its prefix (bits among the first m-1 vertices; the slot order groups pairs
by their larger endpoint) and the last vertex's column c: sorted distinct
prefixes, and a bool table whose [prefix row, c] entries mark bad codes.
Checking all one-vertex extensions then reduces to prefix lookups.  That
check is `search._clean_extensions`; the scalar one-subset-at-a-time check
it is tested against is `is_forbidden` in tests/oracles.py.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from importlib import resources

import numpy as np

from . import catalog
from .graphs import Graph, pair_count
from .graphs import induced_code  # noqa: F401  perfbench traces it by this name
from .jsonout import load

SCOPES = ("both", "red", "blue")


class FamilyError(ValueError):
    pass


@lru_cache(maxsize=256)
def labeled_copies(pattern: Graph) -> frozenset[int]:
    """Edge bitsets of every relabeling of `pattern` on its own vertex set.

    Row r of the n! x n uint32 table is the r-th vertex order.  Each edge
    {u, v} maps to slot hi*(hi-1)/2 + lo of its images in every row at
    once, and its bit is ORed into one uint32 code per row (28 slots at
    n = 8 fit), so no per-order Python loop runs.
    """
    n = pattern.n
    if n > 8:
        raise ValueError(f"labeled copies need at most 8 vertices, got {n}")
    count = math.factorial(n)
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    orders = np.fromiter(flat, dtype=np.uint32, count=count * n).reshape(count, n)
    codes = np.zeros(count, dtype=np.uint32)
    for u, v in pattern.edges():
        hi = np.maximum(orders[:, u], orders[:, v])
        lo = np.minimum(orders[:, u], orders[:, v])
        codes |= np.uint32(1) << (hi * (hi - 1) // 2 + lo)
    return frozenset(codes.tolist())


class ForbiddenFamily:
    """Immutable compiled family of (pattern, scope) entries."""

    def __init__(self, entries, names=None):
        entries = tuple((g, scope) for g, scope in entries)
        for g, scope in entries:
            if scope not in SCOPES:
                raise FamilyError(f"scope must be one of {SCOPES}, got {scope!r}")
            if not 2 <= g.n <= 8:
                raise FamilyError(
                    f"patterns must have 2..8 vertices, got one with {g.n}"
                )
        self.entries = entries
        self._names = tuple(names) if names is not None else None
        bad: dict[int, set[int]] = {}
        for g, scope in entries:
            codes = bad.setdefault(g.n, set())
            copies = labeled_copies(g)
            if scope in ("red", "both"):
                codes |= copies
            if scope in ("blue", "both"):
                full = (1 << pair_count(g.n)) - 1
                codes |= {c ^ full for c in copies}
        self.bad_codes = {m: frozenset(c) for m, c in sorted(bad.items())}
        self.sizes = tuple(sorted(self.bad_codes))
        self.completions: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for m, codes in self.bad_codes.items():
            shift = pair_count(m - 1)
            codes = np.fromiter(codes, dtype=np.int64, count=len(codes))
            low = codes & ((1 << shift) - 1)
            keys = np.array(sorted(set(low.tolist())), dtype=np.int64)
            rows = np.searchsorted(keys, low)
            table = np.zeros((keys.size, 1 << (m - 1)), dtype=bool)
            table[rows, codes >> shift] = True
            self.completions[m] = (keys, table)

    def describe(self) -> list[dict]:
        out = []
        for idx, (g, scope) in enumerate(self.entries):
            if self._names and self._names[idx]:
                pattern = self._names[idx]
            else:
                pattern = g.to_json_obj()
            out.append({"pattern": pattern, "scope": scope})
        return out

    def __repr__(self):
        return f"ForbiddenFamily({self.describe()})"


def default_family() -> ForbiddenFamily:
    """The five-pattern family, each forbidden in both colors, as bundled
    in data/default_family.json."""
    data = resources.files("champagne").joinpath("data", "default_family.json")
    with data.open("r", encoding="utf-8") as fh:
        return family_from_json(load(fh))


def ramsey_family(r: int, b: int) -> ForbiddenFamily:
    """Family whose search emptiness at n certifies the Ramsey bound R(r,b) <= n."""
    return ForbiddenFamily(
        [(Graph.complete(r), "red"), (Graph.complete(b), "blue")],
        names=(f"K{r}", f"K{b}"),
    )


def family_from_json(obj) -> ForbiddenFamily:
    """Entries as [{"pattern": <catalog name or graph object>, "scope": ...}]."""
    if not isinstance(obj, list):
        raise FamilyError("family JSON must be a list of entries")
    graphs, scopes, names = [], [], []
    for entry in obj:
        if not isinstance(entry, dict) or "pattern" not in entry:
            raise FamilyError(f"bad family entry: {entry!r}")
        pattern = entry["pattern"]
        if isinstance(pattern, str):
            try:
                graphs.append(catalog.get(pattern))
            except KeyError as exc:
                raise FamilyError(str(exc)) from None
            names.append(pattern)
        else:
            graphs.append(Graph.from_json_obj(pattern))
            names.append(None)
        scopes.append(entry.get("scope", "both"))
    return ForbiddenFamily(zip(graphs, scopes), names=names)


def load_family(path: str) -> ForbiddenFamily:
    return family_from_json(load(path))

