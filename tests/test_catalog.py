"""The named-graph catalog: figure edge lists, switching and cone identities."""

import pytest

from champagne import catalog
from champagne.graphs import Graph, complement, cone, is_isomorphic, switch
from oracles import degree_multiset

EXPECTED_NAMES = (
    ["K" + str(m) for m in range(1, 9)]
    + ["K3,2"]
    + ["C" + str(m) for m in range(3, 8)]
    + ["H6", "H7", "K6-C5", "K6-H6", "K7-C5", "K7-H6", "K7-H7", "K8-H7"]
)


def _edges_1based(pairs):
    return Graph.from_edges(
        max(max(p) for p in pairs), [(u - 1, v - 1) for u, v in pairs]
    )


def test_catalog_contains_exactly_the_expected_names():
    assert sorted(catalog.CATALOG) == sorted(EXPECTED_NAMES)


def test_get_unknown_name():
    with pytest.raises(KeyError):
        catalog.get("K99")


def test_h6_structure():
    assert catalog.H6.bits.bit_count() == 7
    assert degree_multiset(catalog.H6) == (2, 2, 2, 2, 3, 3)
    assert catalog.H6 == _edges_1based(
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 6), (5, 6)]
    )


def test_h7_structure():
    assert catalog.H7.bits.bit_count() == 9
    assert degree_multiset(catalog.H7) == (2, 2, 2, 3, 3, 3, 3)
    assert catalog.H7 == _edges_1based(
        [(1, 2), (2, 3), (3, 1), (1, 4), (2, 5), (3, 6), (4, 7), (5, 7), (6, 7)]
    )


# complements inside complete graphs, checked against drawn edge lists
def test_k6_minus_c5_edge_list():
    assert catalog.get("K6-C5") == _edges_1based(
        [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5),
         (1, 6), (2, 6), (3, 6), (4, 6), (5, 6)]
    )


def test_k6_minus_h6_edge_list():
    assert catalog.get("K6-H6") == _edges_1based(
        [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5), (1, 6), (3, 6), (4, 6)]
    )


def test_k7_minus_h7_edge_list():
    assert catalog.get("K7-H7") == _edges_1based(
        [(1, 5), (1, 6), (1, 7), (2, 4), (2, 6), (2, 7),
         (3, 4), (3, 5), (3, 7), (4, 5), (5, 6), (6, 4)]
    )
    assert catalog.get("K7-H7").bits.bit_count() == 12


def test_k7_minus_h6_edge_list():
    assert catalog.get("K7-H6") == _edges_1based(
        [(1, 3), (1, 4), (1, 6), (1, 7), (2, 4), (2, 5), (2, 7),
         (3, 5), (3, 6), (3, 7), (4, 6), (4, 7), (5, 7), (6, 7)]
    )


def test_minus_entries_are_complements_on_their_small_part():
    for name, n, removed in [
        ("K6-C5", 6, catalog.cycle_graph(5)),
        ("K7-C5", 7, catalog.cycle_graph(5)),
        ("K6-H6", 6, catalog.H6),
        ("K7-H6", 7, catalog.H6),
        ("K7-H7", 7, catalog.H7),
        ("K8-H7", 8, catalog.H7),
    ]:
        g = catalog.get(name)
        assert g.bits.bit_count() == n * (n - 1) // 2 - removed.bits.bit_count()
        comp = complement(g)
        assert comp.edges() == removed.edges()


def test_k32_parts():
    g = catalog.get("K3,2")
    assert degree_multiset(g) == (2, 2, 2, 3, 3)
    assert g.bits.bit_count() == 6


def test_switching_k32_to_edgeless():
    # parts {1,2,3} and {4,5}: switching at both part-{4,5} vertices
    g = switch(switch(catalog.get("K3,2"), 3), 4)
    assert g == Graph(5)


def test_switching_k7_minus_h6_gives_k7_minus_c5():
    s = switch(switch(catalog.get("K7-H6"), 1), 4)  # vertices 2 and 5, 1-based
    assert is_isomorphic(s, catalog.get("K7-C5"))
    # and the switched graph is K7 minus the 5-cycle 2-4-3-5-7
    missing = complement(s)
    assert missing == _edges_1based([(2, 4), (4, 3), (3, 5), (5, 7), (7, 2)])


@pytest.mark.parametrize(
    "small,big",
    [
        ("K4", "K5"),
        ("K6-C5", "K7-C5"),
        ("K6-H6", "K7-H6"),
        ("K7-H7", "K8-H7"),
    ],
)
def test_cone_identities(small, big):
    assert is_isomorphic(cone(catalog.get(small)), catalog.get(big))
