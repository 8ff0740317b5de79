"""Independent oracles the tests check the program against.

Each one computes a quantity the program also computes, by a slower and
more obvious route: all permutations instead of a pruned backtrack or a
numpy table of vertex orders, all labeled colorings instead of the
one-vertex-at-a-time search, every vertex subset (`is_forbidden`, the
scalar forbidden-pattern check) instead of the search's prefix tables,
Gaussian elimination instead of the characteristic polynomial, dense
Faddeev-LeVerrier instead of sparse power sums, per-entry Fractions
instead of integer numerators over one denominator, a loop over the bit
slots instead of one string reversal, the lower-bound lines built one at
a time instead of as two arrays.
`validate_level` checks the invariants of one search level, and
`assert_keyed_form` those of one keyed canonical form.  They are capped to
small inputs and no CLI command runs them.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from champagne.forbidden import ForbiddenFamily
from champagne.geometry import GeometryError, LineConfig, _unit_simplex
from champagne.graphs import (CanonicalForm, Graph, GraphError, canonical_form,
                              induced_code, pair_count, pair_slot, permute)
from champagne.search import FeasibleLevel
from champagne.signature import (H7_PATTERN, H7_SIGNATURE, MatrixError, Signature,
                                  SymMatrix)

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


def automorphism_count(g: Graph, keys=None) -> int:
    """|Aut(g)|, or the number of automorphisms that keep every key: every
    vertex map built one vertex at a time, keeping those that preserve
    adjacency to the vertices already mapped (and the key)."""
    rows = g.rows()
    keys = keys or [0] * g.n

    def extend(image):
        i = len(image)
        if i == g.n:
            return 1
        return sum(
            extend(image + [w])
            for w in range(g.n)
            if w not in image
            and keys[w] == keys[i]
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


def canonical_form_bruteforce(g: Graph, keys=None) -> CanonicalForm:
    """All-permutations canonical form, over the orders that list the
    vertices by ascending key when given `keys`; independent oracle for
    small n."""
    if g.n > 8:
        raise GraphError("brute-force canonicalization capped at n <= 8")
    if g.n <= 1:
        return CanonicalForm(0, tuple(range(g.n)))
    rows = g.rows()
    keys = keys or [0] * g.n
    best_lex = None
    best_order = None
    for order in itertools.permutations(range(g.n)):
        if any(keys[u] > keys[v] for u, v in zip(order, order[1:])):
            continue
        lex = _lex_value(rows, order)
        if best_lex is None or lex < best_lex:
            best_lex = lex
            best_order = order
    witness = [0] * g.n
    for pos, v in enumerate(best_order):
        witness[v] = pos
    return CanonicalForm(lex_to_bits_by_slots(best_lex, g.n), tuple(witness))


# -- slot-order codecs, one slot at a time ---------------------------------


def lex_to_bits_by_slots(lex: int, n: int) -> int:
    """The edge bitset of a slot sequence packed first-slot-highest."""
    bits = 0
    pos = pair_count(n)
    for j in range(1, n):
        base = j * (j - 1) // 2
        for i in range(j):
            pos -= 1
            if lex >> pos & 1:
                bits |= 1 << (base + i)
    return bits


def graph6_encode_by_slots(g: Graph) -> str:
    """graph6: the slots in order, six to a character, the last zero-padded."""
    out = [chr(g.n + 63)]
    group = filled = 0
    for slot in range(pair_count(g.n)):
        group = group << 1 | (g.bits >> slot & 1)
        filled += 1
        if filled == 6:
            out.append(chr(group + 63))
            group = filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


def graph6_decode_by_slots(text: str) -> Graph:
    """Inverse of graph6_encode_by_slots, with the same checks in the same
    order and the same messages as Graph.from_graph6."""
    text = text.strip()
    if not text:
        raise GraphError("empty graph6 string")
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise GraphError("graph6 vertex count byte out of range")
    m = pair_count(n)
    need = (m + 5) // 6
    body = text[1:]
    if len(body) != need:
        raise GraphError(f"graph6 body length {len(body)}, expected {need}")
    bits = slot = 0
    for ch in body:
        group = ord(ch) - 63
        if not 0 <= group < 64:
            raise GraphError(f"invalid graph6 byte {ch!r}")
        for k in range(5, -1, -1):
            bit = group >> k & 1
            if slot < m:
                bits |= bit << slot
            elif bit:
                raise GraphError("nonzero padding bits in graph6 string")
            slot += 1
    return Graph(n, bits)


@lru_cache(maxsize=64)
def labeled_copies_by_permutation(pattern: Graph) -> frozenset[int]:
    """forbidden.labeled_copies, one `permute` call per vertex order."""
    return frozenset(
        permute(pattern, perm).bits
        for perm in itertools.permutations(range(pattern.n))
    )


def is_forbidden(g: Graph, fam: ForbiddenFamily, through=None) -> bool:
    """Does some entry of `fam` occur induced in its scoped color of the
    coloring g?  One induced code per vertex subset, looked up in
    `fam.bad_codes`.  With `through` set, only the subsets that contain
    that vertex are tried, which is enough when g minus it is clean; it
    comes last in each, since the codes hold every labeled copy."""
    rows = g.rows()
    if through is None:
        subsets = (s for m in fam.sizes for s in itertools.combinations(range(g.n), m))
    else:
        others = [v for v in range(g.n) if v != through]
        subsets = (
            (*rest, through)
            for m in fam.sizes
            for rest in itertools.combinations(others, m - 1)
        )
    return any(induced_code(rows, s) in fam.bad_codes[len(s)] for s in subsets)


def contains_induced(g: Graph, pattern: Graph) -> bool:
    """Does g contain an induced subgraph isomorphic to `pattern`?"""
    m = pattern.n
    if m > g.n:
        return False
    codes = labeled_copies_by_permutation(pattern)
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
    """search._clean_extensions(parent.n, [parent.bits], fam)[0], one
    critical subset at a time: the masks that select a completing column of
    no critical subset."""
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


def search_keys(g: Graph) -> list[int]:
    """Each vertex's degree << 8 | its neighbours' degree sum, one vertex at
    a time: the keys the search labels its classes by."""
    rows = g.rows()
    deg = [row.bit_count() for row in rows]
    return [
        deg[v] << 8 | sum(deg[u] for u in range(g.n) if rows[v] >> u & 1)
        for v in range(g.n)
    ]


def assert_keyed_form(g, keys, rng):
    """A keyed canonical form realizes its code, does not depend on the
    labeling (keys moved along), and its generators generate the group of
    automorphisms that keep every key."""
    cf = canonical_form(g, keys)
    assert permute(g, cf.witness).bits == cf.code
    perm = list(range(g.n))
    rng.shuffle(perm)
    moved = [0] * g.n
    for v, key in enumerate(keys):
        moved[perm[v]] = key
    assert canonical_form(permute(g, perm), moved).code == cf.code
    for h in cf.generators:
        assert permute(g, h) == g and [keys[v] for v in h] == list(keys), (g, h)
    assert len(group_closure(cf.generators, g.n)) == automorphism_count(g, keys), g


def validate_level(level: FeasibleLevel, fam: ForbiddenFamily) -> None:
    """Raise AssertionError unless the level's edge bitsets strictly
    increase, each graph has k vertices, is a fixed point of the search's
    keyed canonical form and is clean under `fam`, and the lex-min codes of
    the graphs are distinct."""
    bits = [g.bits for g in level.graphs]
    if bits != sorted(set(bits)):
        raise AssertionError(f"level {level.k} graphs not strictly increasing")
    for g in level.graphs:
        if g.n != level.k:
            raise AssertionError(f"level {level.k} holds a graph on {g.n} vertices")
        if canonical_form(g, search_keys(g)).code != g.bits:
            raise AssertionError(f"level {level.k} graph not canonical: {g}")
        if is_forbidden(g, fam):
            raise AssertionError(f"level {level.k} graph is forbidden: {g}")
    codes = level.codes()
    if len(set(codes)) != len(codes):
        raise AssertionError(f"level {level.k} holds two graphs of one class")


# -- signature ---------------------------------------------------------------


def det_bareiss(m: SymMatrix) -> Fraction:
    """Fraction-free Gaussian elimination determinant."""
    n = m.n
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in m.numerators]
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
    return Fraction(sign * a[n - 1][n - 1], m.denominator**n)


def charpoly_faddeev(b: list[list[int]]) -> list[int]:
    """Coefficients c[0..n] of det(lambda*I - B), c[n] = 1, by dense
    Faddeev-LeVerrier: M_k = B M_{k-1} + c[n-k+1] I, c[n-k] = -tr(B M_{k-1})/k.
    Any square integer matrix, symmetric or not."""
    n = len(b)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        bm = [
            [sum(b[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(bm[i][i] for i in range(n))
        if trace % k:
            raise MatrixError("non-integral characteristic coefficient")
        ck = -(trace // k)
        coeffs[n - k] = ck
        m = [
            [bm[i][j] + (ck if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def _signature_by_faddeev(a) -> Signature:
    """Inertia of a Fraction matrix: Descartes' counts on the dense
    characteristic polynomial of the lcm-scaled integer matrix."""
    lcm = math.lcm(*(x.denominator for row in a for x in row))
    coeffs = charpoly_faddeev([[int(x * lcm) for x in row] for row in a])
    n_zero = next(k for k, c in enumerate(coeffs) if c)

    def changes(cs):
        cs = [c for c in cs if c]
        return sum((x > 0) != (y > 0) for x, y in zip(cs, cs[1:]))

    reduced = coeffs[n_zero:]
    n_minus = changes([c * (-1) ** k for k, c in enumerate(reduced)])
    return Signature(changes(reduced), n_zero, n_minus)


def _pattern_violation(a, pairs):
    """The first slot, row by row, off the pattern: positive on `pairs`,
    zero elsewhere."""
    for i in range(len(a)):
        for j in range(i + 1):
            v = a[i][j]
            if (j, i) in pairs or (i, j) in pairs:
                if not v > 0:
                    return f"slot ({j},{i}) must be positive, got {v}"
            elif v != 0:
                return f"slot ({j},{i}) must be zero, got {v}"
    return None


def check_sample_by_fractions(m: SymMatrix, kind: str):
    """signature.check_sample on per-entry Fractions: the pattern, det by
    `det_bareiss` against the closed form evaluated in Fractions, and the
    inertia by Faddeev-LeVerrier.  Returns (problems, det, signature), the
    problems worded as check_sample words them."""
    a = m.entries
    n = len(a)
    det, sig = det_bareiss(m), _signature_by_faddeev(a)
    if kind == "h7":
        size, pairs, want = 7, H7_PATTERN, H7_SIGNATURE
        label, sign = "closed formula", -1
    else:
        size = int(kind[len("cycle("):-1])
        pairs = {(i, (i + 1) % size) for i in range(size)}
        label, sign, half = "band formula", 1, (size - 1) // 2
        want = (half + 1, 0, half) if size % 4 == 1 else (half, 0, half + 1)
    if n != size:
        return [f"size {n} != {size}"], det, sig
    problems = []
    violation = _pattern_violation(a, pairs)
    if violation:
        problems.append(f"pattern: {violation}")
    if kind == "h7":
        formula = -2 * a[0][3] * a[1][4] * a[2][5] * (
            a[0][1] * a[2][5] * a[3][6] * a[4][6]
            + a[0][2] * a[1][4] * a[3][6] * a[5][6]
            + a[0][3] * a[1][2] * a[4][6] * a[5][6]
        )
    else:
        formula = 2 * math.prod(a[i][(i + 1) % n] for i in range(n))
    if det != formula:
        problems.append(f"determinant {det} != {label} {formula}")
    if not det * sign > 0:
        word = "positive" if sign > 0 else "negative"
        problems.append(f"determinant {det} not {word}")
    if sig != want:
        problems.append(f"signature {tuple(sig)} != expected {want}")
    return problems, det, sig


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
    bases, directions = [], []
    for base, direction in zip(cfg.bases, cfg.directions):
        direction = matrix @ direction  # unit up to rounding; renormalized
        bases.append(matrix @ base + shift)
        directions.append(direction / np.linalg.norm(direction))
    return LineConfig(cfg.dim, bases, directions, cfg.tolerance)


def lower_bound_lines(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bases and directions of `lower_bound_config(n)`, one line at a
    time: each vector concatenated from zeros and the planar cos/sin pair,
    and the second base the padded simplex vertex plus the planar normal."""
    m = n - 1
    simplex = _unit_simplex(m)
    bases, directions = [], []
    for i in range(m):
        theta = i * math.pi / m
        direction = np.concatenate([np.zeros(n - 2), [math.cos(theta), math.sin(theta)]])
        normal = np.concatenate([np.zeros(n - 2), [-math.sin(theta), math.cos(theta)]])
        anchor = np.concatenate([simplex[i], [0.0, 0.0]])
        bases += [anchor, anchor + normal]
        directions += [direction, direction]
    return np.array(bases), np.array(directions)
