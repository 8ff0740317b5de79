"""Small simple graphs as immutable bitset values.

A graph on n <= 16 labeled vertices stores its edge set in a single integer:
the unordered pair {u, v} with u < v occupies bit slot v*(v-1)//2 + u.  Slots
are therefore grouped by the larger endpoint, so the first j*(j-1)//2 slots
are exactly the pairs inside {0, ..., j-1}.  That makes induced subgraphs,
one-vertex extensions, and prefix comparisons in the canonical-labeling
search all contiguous bit ranges.

Serialized forms keep that order: the first m slots, as a 0/1 string slot 0
first, are the bitset's binary digits reversed; the canonical lex code is
that string read in binary, and graph6 writes it six bits to a character.

A graph doubles as a red/blue edge coloring of the complete graph: present
edges are red, absent edges are blue.
"""

from __future__ import annotations

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

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for v in range(self.n)
            for u in range(v)
            if self.bits >> pair_slot(u, v) & 1
        ]

    def rows(self) -> tuple[int, ...]:
        """Adjacency bitmask of each vertex."""
        rows = [0] * self.n
        for v in range(1, self.n):
            # v's neighbours below v are its contiguous slot range
            low = rows[v] = self.bits >> (v * (v - 1) // 2) & ((1 << v) - 1)
            for u in _bits(low):
                rows[u] |= 1 << v
        return tuple(rows)

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
        """Encode in the standard graph6 ASCII format."""
        m = pair_count(self.n)
        slots = _slot_string(self.bits, m) + "00000"  # pads the last group of six
        groups = (slots[i : i + 6] for i in range(0, m, 6))
        return chr(self.n + 63) + "".join(chr(int(g, 2) + 63) for g in groups)

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
        for ch in body:
            if not "?" <= ch <= "~":
                raise GraphError(f"invalid graph6 byte {ch!r}")
        slots = "".join(f"{ord(ch) - 63:06b}" for ch in body)
        if "1" in slots[m:]:
            raise GraphError("nonzero padding bits in graph6 string")
        return cls(n, int(slots[:m][::-1] or "0", 2))


# -- elementary operations --------------------------------------------------


def complement(g: Graph) -> Graph:
    return Graph(g.n, g.bits ^ ((1 << pair_count(g.n)) - 1))


def permute(g: Graph, perm) -> Graph:
    """Relabel: edge {u, v} becomes {perm[u], perm[v]}."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise GraphError(f"not a permutation of 0..{g.n - 1}: {perm}")
    inverse = sorted(range(g.n), key=perm.__getitem__)
    return Graph(g.n, induced_code(g.rows(), inverse))


def induced_code(rows, subset) -> int:
    """Edge bitset of the subgraph induced on `subset`, from the adjacency
    bitmasks `rows` of the whole graph; vertex i of the result is
    subset[i], so any order of `subset` gives that relabeled subgraph."""
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
    permute(g, witness).bits == code.  `generators` are automorphisms h of
    g (permute(g, h) == g) that together generate its whole automorphism
    group.
    """

    code: int
    witness: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...] = ()


def _slot_string(bits: int, m: int) -> str:
    """The first m slots of `bits` as a 0/1 string, slot 0 first: its binary
    digits reversed (the leading 1 keeps the high zeros)."""
    return f"{bits | 1 << m:b}"[:0:-1]


def _lex_to_bits(lex: int, n: int) -> int:
    """Edge bitset of a slot sequence packed slot 0 highest; its own inverse."""
    return int(_slot_string(lex, pair_count(n)) or "0", 2)


def _bits(mask: int):
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _orbit(mask: int, perms) -> int:
    """Union of the orbits of the vertices in `mask` under `perms`."""
    orbit = frontier = mask
    while frontier:
        image = 0
        for v in _bits(frontier):
            for perm in perms:
                image |= 1 << perm[v]
        frontier = image & ~orbit
        orbit |= frontier
    return orbit


def _split(cells, bit: int, row: int):
    """The cells after placing the vertex `bit` with adjacency `row`: each
    cell loses it and splits into its non-neighbours, then its neighbours."""
    child = []
    for mask, column in cells:
        mask &= ~bit
        column <<= 1
        out = mask & ~row
        if out:
            child.append((out, column))
        if mask ^ out:
            child.append((mask ^ out, column | 1))
    return child


def canonical_form(g: Graph, keys=None) -> CanonicalForm:
    """Canonical form: the relabeling with lexicographically minimal slot
    sequence, taken over all n! orders, or, given `keys` (one integer per
    vertex), over the orders that list the vertices by ascending key.

    With isomorphism-invariant keys the code still separates isomorphism
    classes, and the walk starts from the vertices split into key classes,
    so a fine key leaves it little to branch on.  The search labels its
    classes this way; the keyless code is the one every output shows.

    An order's slot sequence is packed into an integer first slot highest,
    so integer comparison agrees with lexicographic comparison.
    Backtracking over positions: once positions 0..j-1 are fixed, the next
    block of slots is the adjacency column of position j against them, so
    only vertices of the least key left whose column is minimal can extend
    an optimal labeling.  The unused vertices are kept as cells, one bitmask
    per distinct (key, column), in increasing order: they start as the key
    classes with empty columns, and placing v splits every cell into its
    non-neighbours of v, then its neighbours, so the first cell is always
    the candidate set.  A lone candidate is placed without branching, and
    once every cell is one vertex the rest of the order is the cell order.
    Branches whose decided slot prefix exceeds the best complete labeling
    are pruned; the first complete labeling is the first incumbent.
    The walk runs in g's own labels, so tied candidates are tried by label.

    Twins (u, v with the same neighbors outside {u, v} and the same key)
    are placed in label order: swapping two twins is an automorphism, so
    this keeps the lex minimum, and twins always tie, so the earlier twin
    is always a candidate when the later one is skipped.

    A complete labeling that ties the incumbent differs from it by an
    automorphism (best_order[i] -> order[i]), which is recorded.  It fixes
    the prefix the two orders share and maps the incumbent's explored
    subtree below it onto the current one, so the walk returns to that
    prefix.  A candidate in the orbit of an explored sibling, under the
    recorded automorphisms that fix the current prefix pointwise, roots a
    subtree of exactly the values already seen, so it is skipped.  Only
    subtrees with no value below the incumbent are skipped and the
    incumbent changes only on a strictly smaller value, so the code and the
    witness are those of the unpruned walk (McKay, "Practical Graph
    Isomorphism", 1981).  Every minimal labeling is reached from the
    witness by the recorded automorphisms and the twin swaps, so these
    generate the automorphism group (of the ones that keep every key) and
    are returned as `generators`.
    """
    n = g.n
    m = pair_count(n)
    rows = g.rows()
    if keys is None:
        keys = (0,) * n
    elif len(keys) != n:
        raise GraphError(f"{len(keys)} keys for {n} vertices")
    classes = {}
    for v in range(n):
        classes[keys[v]] = classes.get(keys[v], 0) | 1 << v
    cells = [(classes[key], 0) for key in sorted(classes)]  # ascending
    prev = [0] * n  # bit of the previous twin of each vertex, 0 for none
    twins = []
    for v in range(n):
        for u in range(v - 1, -1, -1):
            if keys[u] == keys[v] and not (rows[u] ^ rows[v]) & ~(1 << u | 1 << v):
                prev[v] = 1 << u
                twins.append((u, v))
                break
    best_lex = 1 << m  # above every m-slot sequence
    best_order = None
    autos = []  # the automorphisms found, as vertex maps
    order = [0] * n  # order[:j] is the prefix of the current node
    back = n  # depth the walk is returning to after finding an automorphism

    # cells: [(mask, column)] of the unused vertices, by key, then column,
    # where column is the adjacency against order[:j], MSB = position 0
    def walk(j, cells, partial, done_bits):
        nonlocal best_lex, best_order, back
        while True:
            if len(cells) == n - j:
                # every cell is one vertex: the rest of the order is the
                # cell order, which no later split changes
                tail = [mask.bit_length() - 1 for mask, _ in cells]
                for t, (_, column) in enumerate(cells):
                    row = rows[tail[t]]
                    for u in tail[:t]:
                        column = column << 1 | (row >> u & 1)
                    partial = partial << (j + t) | column
                    done_bits += j + t
                    if partial > best_lex >> (m - done_bits):
                        return
                if partial < best_lex:
                    best_lex = partial
                    best_order = order[:j] + tail
                elif partial == best_lex:
                    perm = [0] * n
                    for b, v in zip(best_order, order[:j] + tail):
                        perm[b] = v
                    autos.append(perm)
                    # it fixes the prefix the two orders share and maps the
                    # incumbent's explored subtree below it onto this one
                    back = next(i for i, v in enumerate(best_order) if perm[v] != v)
                return
            candidates, min_chunk = cells[0]
            partial = partial << j | min_chunk
            done_bits += j
            if partial > best_lex >> (m - done_bits):
                return
            if candidates & (candidates - 1):
                break
            # a lone candidate (its twins would share its cell): place it
            # without branching
            v = candidates.bit_length() - 1
            cells = _split(cells, candidates, rows[v])
            order[j] = v
            j += 1
        # an automorphism found below here whose shared prefix is shorter
        # than j sends the walk back above this node, so every one found
        # while this loop runs fixes order[:j] pointwise
        found = len(autos)
        orbit = 0  # explored candidates and their images
        rest = candidates
        while rest:
            bit = rest & -rest
            rest ^= bit
            if orbit & bit:
                continue
            v = bit.bit_length() - 1
            if prev[v] & candidates:  # an unused twin shares v's cell
                continue
            order[j] = v
            walk(j + 1, _split(cells, bit, rows[v]), partial, done_bits)
            if back < j:
                return
            back = n
            orbit |= bit
            if rest and len(autos) > found:
                orbit = _orbit(orbit, autos[found:])

    walk(0, cells, 0, 0)

    witness = [0] * n
    for pos, v in enumerate(best_order):
        witness[v] = pos
    generators = [tuple(perm) for perm in autos]
    for u, v in twins:
        h = list(range(n))
        h[u], h[v] = v, u
        generators.append(tuple(h))
    return CanonicalForm(_lex_to_bits(best_lex, n), tuple(witness), tuple(generators))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g).code == canonical_form(h).code
