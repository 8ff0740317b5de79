"""Small simple graphs as immutable bitset values.

A graph on n <= 16 labeled vertices stores its edge set in a single integer:
the unordered pair {u, v} with u < v occupies bit slot v*(v-1)//2 + u.  Slots
are therefore grouped by the larger endpoint, so the first j*(j-1)//2 slots
are exactly the pairs inside {0, ..., j-1}.  That makes induced subgraphs,
one-vertex extensions, and prefix comparisons in the canonical-labeling
search all contiguous bit ranges.

A graph doubles as a red/blue edge coloring of the complete graph: present
edges are red, absent edges are blue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

MAX_VERTICES = 16


def pair_slot(u: int, v: int) -> int:
    """Bit slot of the unordered pair {u, v}."""
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count and packed edge bitset."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise GraphError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if self.bits < 0 or self.bits >> pair_count(self.n):
            raise GraphError("edge bits set beyond the n*(n-1)/2 pair slots")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        bits = 0
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {{{u},{v}}} outside vertex range 0..{n - 1}")
            bits |= 1 << pair_slot(u, v)
        return cls(n, bits)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, (1 << pair_count(n)) - 1)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, 0)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.bits >> pair_slot(u, v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for v in range(self.n)
            for u in range(v)
            if self.bits >> pair_slot(u, v) & 1
        ]

    def edge_count(self) -> int:
        return self.bits.bit_count()

    def rows(self) -> tuple[int, ...]:
        """Adjacency bitmask of each vertex."""
        rows = [0] * self.n
        for v in range(self.n):
            for u in range(v):
                if self.bits >> (v * (v - 1) // 2 + u) & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        return tuple(rows)

    def degree_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(r.bit_count() for r in self.rows()))

    def triangle_count(self) -> int:
        rows = self.rows()
        return sum(
            1
            for u, v, w in itertools.combinations(range(self.n), 3)
            if rows[u] >> v & 1 and rows[u] >> w & 1 and rows[v] >> w & 1
        )

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Graph":
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise GraphError("graph JSON must be an object with 'n' and 'edges'")
        n, edges = obj["n"], obj["edges"]
        if type(n) is not int or not isinstance(edges, list) or not all(
            isinstance(e, list) and [type(x) for x in e] == [int, int] for e in edges
        ):
            raise GraphError("graph JSON needs an integer 'n' and [u, v] integer edges")
        return cls.from_edges(n, [tuple(e) for e in edges])

    def to_graph6(self) -> str:
        """Encode in the standard graph6 ASCII format (n <= 62 supported)."""
        if self.n > 62:
            raise GraphError("graph6 encoding implemented only for n <= 62")
        out = [chr(self.n + 63)]
        m = pair_count(self.n)
        group = 0
        filled = 0
        for slot in range(m):
            group = group << 1 | (self.bits >> slot & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group = filled = 0
        if filled:
            out.append(chr((group << (6 - filled)) + 63))
        return "".join(out)

    @classmethod
    def from_graph6(cls, text: str) -> "Graph":
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
        bits = 0
        slot = 0
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
        return cls(n, bits)


# -- elementary operations --------------------------------------------------


def complement(g: Graph) -> Graph:
    return Graph(g.n, g.bits ^ ((1 << pair_count(g.n)) - 1))


def permute(g: Graph, perm) -> Graph:
    """Relabel: edge {u, v} becomes {perm[u], perm[v]}."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise GraphError(f"not a permutation of 0..{g.n - 1}: {perm}")
    bits = 0
    for v in range(g.n):
        base = v * (v - 1) // 2
        for u in range(v):
            if g.bits >> (base + u) & 1:
                bits |= 1 << pair_slot(perm[u], perm[v])
    return Graph(g.n, bits)


def induced_code(rows, subset) -> int:
    """Edge bitset of the subgraph induced on `subset` (given ascending),
    from the adjacency bitmasks `rows` of the whole graph."""
    code = 0
    for j in range(1, len(subset)):
        row = rows[subset[j]]
        base = j * (j - 1) // 2
        for i in range(j):
            if row >> subset[i] & 1:
                code |= 1 << (base + i)
    return code


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on `vertices`, relabeled 0.. in increasing label order."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise GraphError(f"vertex subset {vs} outside 0..{g.n - 1}")
    return Graph(len(vs), induced_code(g.rows(), vs))


def switch(g: Graph, w: int) -> Graph:
    """Complement every edge incident to vertex w, leaving the rest unchanged."""
    if not 0 <= w < g.n:
        raise GraphError(f"vertex {w} outside 0..{g.n - 1}")
    mask = 0
    for v in range(g.n):
        if v != w:
            mask |= 1 << pair_slot(v, w)
    return Graph(g.n, g.bits ^ mask)


def cone(g: Graph) -> Graph:
    """Add one vertex adjacent to every existing vertex."""
    if g.n >= MAX_VERTICES:
        raise GraphError(f"cone would exceed {MAX_VERTICES} vertices")
    n = g.n
    bits = g.bits | (((1 << n) - 1) << pair_count(n))
    return Graph(n + 1, bits)


# -- canonical labeling -----------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical relabeling of a graph.

    `code` is the edge bitset of the canonical labeling, the relabeling whose
    slot sequence (slot 0 first) is lexicographically minimal.  Two graphs
    have equal `code` (and equal n) exactly when they are isomorphic.
    `witness` maps original labels to canonical positions, so
    permute(g, witness).bits == code.
    """

    code: int
    witness: tuple[int, ...]


def _lex_to_bits(lex: int, n: int) -> int:
    bits = 0
    m = pair_count(n)
    pos = m
    for j in range(1, n):
        base = j * (j - 1) // 2
        for i in range(j):
            pos -= 1
            if lex >> pos & 1:
                bits |= 1 << (base + i)
    return bits


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form: the relabeling with lexicographically minimal slot
    sequence, taken over all n! orders.

    An order's slot sequence is packed into an integer first slot highest,
    so integer comparison agrees with lexicographic comparison.
    Backtracking over positions: once positions 0..j-1 are fixed, the next
    block of slots is the adjacency column of position j against them, so
    only vertices whose column is minimal can extend an optimal labeling.
    Branches whose decided slot prefix exceeds the best complete labeling
    are pruned; the first complete labeling is the first incumbent.  Among
    tied candidates, low-degree vertices are tried first.

    Twins (u, v with the same neighbors outside {u, v}) are placed in label
    order: swapping two twins is an automorphism, so this keeps the lex
    minimum, and twins always tie, so the earlier twin is always a
    candidate when the later one is skipped.
    """
    n = g.n
    m = pair_count(n)
    rows = g.rows()
    prev = [-1] * n  # the previous twin of each vertex, -1 for none
    for v in range(n):
        for u in range(v - 1, -1, -1):
            if not (rows[u] ^ rows[v]) & ~(1 << u | 1 << v):
                prev[v] = u
                break
    best_lex = 1 << m  # above every m-slot sequence
    best_order = None

    # search stack entry: (order, chunks) where chunks[v] is the adjacency
    # column of unused vertex v against the current order, MSB = position 0
    def walk(order, chunks, partial, done_bits):
        nonlocal best_lex, best_order
        j = len(order)
        if j == n:
            if partial < best_lex:
                best_lex = partial
                best_order = list(order)
            return
        min_chunk = min(chunks.values())
        partial = partial << j | min_chunk
        done_bits += j
        shifted_best = best_lex >> (m - done_bits)
        if partial > shifted_best:
            return
        for v, c in chunks.items():
            if c != min_chunk or prev[v] in chunks:
                continue
            row_v = rows[v]
            child = {
                u: cu << 1 | (row_v >> u & 1)
                for u, cu in chunks.items()
                if u != v
            }
            order.append(v)
            walk(order, child, partial, done_bits)
            order.pop()

    by_degree = sorted(range(n), key=lambda v: rows[v].bit_count())
    walk([], dict.fromkeys(by_degree, 0), 0, 0)

    witness = [0] * n
    for pos, v in enumerate(best_order):
        witness[v] = pos
    return CanonicalForm(_lex_to_bits(best_lex, n), tuple(witness))


def canonical_graph(g: Graph) -> Graph:
    return Graph(g.n, canonical_form(g).code)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g).code == canonical_form(h).code
