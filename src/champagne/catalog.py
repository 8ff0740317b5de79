"""Catalog of the small named graphs used throughout the toolkit.

Vertex labels follow the usual 1-based drawings of these graphs; internally
everything is 0-based, so vertex k in a comment below is vertex k-1 in code.

Naming: "Kn" complete, "Ka,b" complete bipartite, "Cn" cycle, and "X-Y" for
the complement of Y inside the complete graph X (e.g. "K6-C5" is K6 with the
edges of a 5-cycle removed).  H6 is a 5-cycle 1..5 plus a sixth vertex
adjacent to 2 and 5; H7 is a triangle 1,2,3 with pendant edges 1-4, 2-5,
3-6 and a seventh vertex adjacent to 4, 5, 6.
"""

from __future__ import annotations

from .graphs import Graph, complement


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _shift(edges):
    return [(u - 1, v - 1) for u, v in edges]


# 5-cycle 1-2-3-4-5 plus vertex 6 adjacent to 2 and 5.
H6 = Graph.from_edges(
    6, _shift([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 6), (5, 6)])
)

# Triangle 1-2-3, pendants 1-4, 2-5, 3-6, vertex 7 adjacent to 4, 5, 6.
H7 = Graph.from_edges(
    7,
    _shift(
        [(1, 2), (2, 3), (3, 1), (1, 4), (2, 5), (3, 6), (4, 7), (5, 7), (6, 7)]
    ),
)


def _complement_in_complete(n: int, removed: Graph) -> Graph:
    """K_n minus the edges of `removed` (placed on vertices 0..removed.n-1).

    Pair slots are grouped by the larger endpoint, so `removed.bits` is
    already the edge set of `removed` inside K_n."""
    return complement(Graph(n, removed.bits))


def _build_catalog() -> dict[str, Graph]:
    cat: dict[str, Graph] = {}
    for m in range(1, 9):
        cat[f"K{m}"] = Graph.complete(m)
    cat["K3,2"] = complete_bipartite(3, 2)
    for m in range(3, 8):
        cat[f"C{m}"] = cycle_graph(m)
    cat["H6"] = H6
    cat["H7"] = H7
    cat["K6-C5"] = _complement_in_complete(6, cycle_graph(5))
    cat["K6-H6"] = _complement_in_complete(6, H6)
    cat["K7-C5"] = _complement_in_complete(7, cycle_graph(5))
    cat["K7-H6"] = _complement_in_complete(7, H6)
    cat["K7-H7"] = _complement_in_complete(7, H7)
    cat["K8-H7"] = _complement_in_complete(8, H7)
    return cat


CATALOG: dict[str, Graph] = _build_catalog()


def get(name: str) -> Graph:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog graph {name!r}; available: {', '.join(CATALOG)}"
        ) from None

