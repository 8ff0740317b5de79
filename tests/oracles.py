"""Independent oracles the tests check the program against.

Each one computes a quantity the program also computes, by a slower and
more obvious route: all permutations instead of a pruned backtrack, all
labeled colorings instead of the one-vertex-at-a-time search, Gaussian
elimination instead of the characteristic polynomial.  They are capped to
small inputs and no command runs them.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from champagne.forbidden import ForbiddenFamily, labeled_copies
from champagne.geometry import DirectedLine, GeometryError, LineConfig
from champagne.graphs import (CanonicalForm, Graph, GraphError, _lex_to_bits,
                              canonical_form, induced_code, pair_count, pair_slot)
from champagne.signature import MatrixError, SymMatrix, _integer_scaled

# -- graphs ------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int, center: int = 0) -> Graph:
    return Graph.from_edges(n, [(center, v) for v in range(n) if v != center])


def degree_multiset(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(r.bit_count() for r in g.rows()))


def triangle_count(g: Graph) -> int:
    rows = g.rows()
    return sum(
        1
        for u, v, w in itertools.combinations(range(g.n), 3)
        if rows[u] >> v & 1 and rows[u] >> w & 1 and rows[v] >> w & 1
    )


def automorphism_count(g: Graph) -> int:
    """|Aut(g)|: every vertex map built one vertex at a time, keeping those
    that preserve adjacency to the vertices already mapped."""
    rows = g.rows()

    def extend(image):
        i = len(image)
        if i == g.n:
            return 1
        return sum(
            extend(image + [w])
            for w in range(g.n)
            if w not in image
            and all(rows[i] >> u & 1 == rows[w] >> image[u] & 1 for u in range(i))
        )

    return extend([])


def group_closure(generators, n: int) -> set[tuple[int, ...]]:
    """Every permutation of 0..n-1 that is a product of `generators`."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        found = []
        for p in frontier:
            for h in generators:
                q = tuple(h[p[i]] for i in range(n))
                if q not in group:
                    group.add(q)
                    found.append(q)
        frontier = found
    return group


def _lex_value(rows, order):
    """Slot sequence of the relabeling `order`, packed first-slot-highest,
    so integer comparison is lexicographic comparison of the sequence."""
    value = 0
    for j in range(1, len(order)):
        rj = rows[order[j]]
        chunk = 0
        for i in range(j):
            chunk = chunk << 1 | (rj >> order[i] & 1)
        value = value << j | chunk
    return value


def canonical_form_bruteforce(g: Graph) -> CanonicalForm:
    """All-permutations canonical form; independent oracle for small n."""
    if g.n > 8:
        raise GraphError("brute-force canonicalization capped at n <= 8")
    if g.n <= 1:
        return CanonicalForm(0, tuple(range(g.n)))
    rows = g.rows()
    best_lex = None
    best_order = None
    for order in itertools.permutations(range(g.n)):
        lex = _lex_value(rows, order)
        if best_lex is None or lex < best_lex:
            best_lex = lex
            best_order = order
    witness = [0] * g.n
    for pos, v in enumerate(best_order):
        witness[v] = pos
    return CanonicalForm(_lex_to_bits(best_lex, g.n), tuple(witness))


def contains_induced(g: Graph, pattern: Graph) -> bool:
    """Does g contain an induced subgraph isomorphic to `pattern`?"""
    m = pattern.n
    if m > g.n:
        return False
    codes = labeled_copies(pattern)
    rows = g.rows()
    return any(
        induced_code(rows, subset) in codes
        for subset in itertools.combinations(range(g.n), m)
    )


# -- search ------------------------------------------------------------------


def _forbidden_mask(fam: ForbiddenFamily, n: int) -> np.ndarray:
    """Boolean mask over all 2^(n(n-1)/2) labeled colorings of K_n."""
    total = 1 << pair_count(n)
    codes_all = np.arange(total, dtype=np.uint32)
    bad = np.zeros(total, dtype=bool)
    for m in fam.sizes:
        if m > n:
            break
        patterns = np.array(sorted(fam.bad_codes[m]), dtype=np.uint32)
        for subset in itertools.combinations(range(n), m):
            slots = [
                pair_slot(subset[i], subset[j])
                for j in range(1, m)
                for i in range(j)
            ]
            induced = np.zeros(total, dtype=np.uint32)
            for idx, slot in enumerate(slots):
                bit = codes_all >> np.uint32(slot) & np.uint32(1)
                induced |= bit << np.uint32(idx)
            bad |= np.isin(induced, patterns)
    return bad


def brute_force_check(fam: ForbiddenFamily, n: int) -> bool:
    """True iff every labeled coloring of K_n is forbidden (n <= 7 only)."""
    if n > 7:
        raise ValueError("direct enumeration is capped at n <= 7")
    if n < 1:
        raise ValueError("n must be >= 1")
    return bool(_forbidden_mask(fam, n).all())


@lru_cache(maxsize=16)
def _prefix_map(fam: ForbiddenFamily, m: int) -> dict[int, int]:
    """Bad code -> bits among the first m-1 vertices, mapped to the set of
    last-vertex columns that complete it (bit c for column c)."""
    shift = pair_count(m - 1)
    prefixes: dict[int, int] = {}
    for code in fam.bad_codes[m]:
        low = code & ((1 << shift) - 1)
        prefixes[low] = prefixes.get(low, 0) | 1 << (code >> shift)
    return prefixes


def _critical_subsets(rows, k: int, fam: ForbiddenFamily):
    """Subsets of the k parent vertices one vertex short of a forbidden
    pattern: [(subset, completion_mask), ...], where bit c of
    completion_mask is set when joining the new vertex to exactly the
    subset members selected by c completes a forbidden pattern."""
    crit = []
    for m in fam.sizes:
        if m - 1 > k:
            break
        prefixes = _prefix_map(fam, m)
        for subset in itertools.combinations(range(k), m - 1):
            mask = prefixes.get(induced_code(rows, subset))
            if mask:
                crit.append((subset, mask))
    return crit


def clean_extensions_scalar(parent: Graph, fam: ForbiddenFamily) -> np.ndarray:
    """search._clean_extensions, one critical subset at a time: the masks
    that select a completing column of no critical subset."""
    k = parent.n
    masks = np.arange(1 << k, dtype=np.uint32)
    for subset, completion in _critical_subsets(parent.rows(), k, fam):
        selected = np.zeros(masks.size, dtype=np.uint32)
        for i, s in enumerate(subset):
            selected |= (masks >> np.uint32(s) & np.uint32(1)) << np.uint32(i)
        masks = masks[~_completes(completion, len(subset))[selected]]
    return masks


@lru_cache(maxsize=65536)
def _completes(completion: int, width: int) -> np.ndarray:
    return np.array([completion >> c & 1 for c in range(1 << width)], dtype=bool)


def _slot_permutation(perm, n):
    table = [0] * pair_count(n)
    for v in range(n):
        for u in range(v):
            table[pair_slot(u, v)] = pair_slot(perm[u], perm[v])
    return table


def brute_force_level_codes(fam: ForbiddenFamily, n: int) -> tuple[int, ...]:
    """Canonical codes of all clean colorings of K_n, by direct enumeration.

    Enumerates every labeled coloring, filters, then walks the clean set
    marking whole relabeling orbits so each isomorphism class is
    canonicalized exactly once.
    """
    if n > 7:
        raise ValueError("direct enumeration is capped at n <= 7")
    clean = np.flatnonzero(~_forbidden_mask(fam, n))
    tables = [_slot_permutation(p, n) for p in itertools.permutations(range(n))]
    marked = np.zeros(1 << pair_count(n), dtype=bool)
    codes = []
    for bits in clean:
        bits = int(bits)
        if marked[bits]:
            continue
        codes.append(canonical_form(Graph(n, bits)).code)
        on = [i for i in range(pair_count(n)) if bits >> i & 1]
        for table in tables:
            image = 0
            for i in on:
                image |= 1 << table[i]
            marked[image] = True
    return tuple(sorted(codes))


# -- signature ---------------------------------------------------------------


def det_bareiss(m: SymMatrix) -> Fraction:
    """Fraction-free Gaussian elimination determinant."""
    n = m.n
    if n == 0:
        return Fraction(1)
    a, lcm = _integer_scaled(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], lcm**n)


def cycle_eigenvalues(n: int) -> list[float]:
    """Spectrum of the n-cycle adjacency matrix: 2cos(2 pi k / n), sorted."""
    if n < 3:
        raise MatrixError("cycles need n >= 3")
    return sorted(2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n))


# -- geometry ----------------------------------------------------------------


def rigid_transform(cfg: LineConfig, matrix, shift=None) -> LineConfig:
    """Apply an orthogonal map plus translation to every line."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.allclose(matrix.T @ matrix, np.eye(cfg.dim), atol=1e-12):
        raise GeometryError("transform matrix is not orthogonal")
    shift = np.zeros(cfg.dim) if shift is None else np.asarray(shift, dtype=float)
    lines = tuple(
        DirectedLine.through(matrix @ ln.base + shift, matrix @ ln.direction)
        for ln in cfg.lines
    )
    return LineConfig(cfg.dim, lines, cfg.tolerance)
