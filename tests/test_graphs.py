"""Graph values, operations, canonical labeling, and serialization."""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from champagne.graphs import (
    CanonicalForm,
    Graph,
    GraphError,
    _lex_to_bits,
    canonical_form,
    complement,
    cone,
    induced_subgraph,
    is_isomorphic,
    pair_slot,
    permute,
    switch,
)
from champagne import catalog
from conftest import graph_with_permutation, graphs, random_graph
from oracles import (
    assert_keyed_form,
    automorphism_count,
    canonical_form_bruteforce,
    degree_multiset,
    graph6_decode_by_slots,
    graph6_encode_by_slots,
    group_closure,
    lex_to_bits_by_slots,
    path_graph,
    search_keys,
    star_graph,
    triangle_count,
)


def test_pair_slot_order_is_grouped_by_larger_endpoint():
    slots = [pair_slot(u, v) for v in range(5) for u in range(v)]
    assert slots == list(range(10))
    assert pair_slot(3, 1) == pair_slot(1, 3)


def test_from_edges_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
    assert g.bits >> pair_slot(0, 1) & 1 and g.bits >> pair_slot(1, 0) & 1
    assert not g.bits >> pair_slot(0, 3) & 1
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.bits.bit_count() == 3
    assert degree_multiset(g) == (1, 1, 2, 2)
    assert g.rows()[1] == 0b0101


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 5)])
    with pytest.raises(GraphError):
        Graph(3, 1 << 3)  # bit beyond the 3 pair slots
    with pytest.raises(GraphError):
        Graph(17)


def test_triangle_count():
    assert triangle_count(Graph.complete(4)) == 4
    assert triangle_count(catalog.cycle_graph(5)) == 0
    assert triangle_count(catalog.H7) == 1


# -- serialization -----------------------------------------------------------

# reference strings computed independently with a standard graph library
GRAPH6_REFERENCE = [
    (Graph(1), "@"),
    (Graph(5), "D??"),
    (Graph.complete(4), "C~"),
    (path_graph(4), "Ch"),
    (catalog.cycle_graph(5), "Dhc"),
    (catalog.complete_bipartite(3, 2), "DFw"),
    (catalog.H6, "EhdG"),
    (catalog.H7, "F{O_w"),
]


@pytest.mark.parametrize("g,expected", GRAPH6_REFERENCE)
def test_graph6_reference_strings(g, expected):
    assert g.to_graph6() == expected
    assert Graph.from_graph6(expected) == g


@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    assert Graph.from_graph6(g.to_graph6()) == g


def test_graph6_rejects_garbage():
    with pytest.raises(GraphError):
        Graph.from_graph6("")
    with pytest.raises(GraphError):
        Graph.from_graph6("C~~")  # body too long
    with pytest.raises(GraphError):
        Graph.from_graph6("C")  # body too short
    with pytest.raises(GraphError):
        Graph.from_graph6("B" + chr(20))  # byte below the graph6 range
    # C? with a nonzero padding bit: n=4 has 6 slots, no padding; use n=2
    with pytest.raises(GraphError):
        Graph.from_graph6("A" + chr(63 + 16))  # pad bits must be zero


def _outcome(decode, text):
    try:
        return decode(text)
    except GraphError as err:
        return type(err), str(err)


def test_slot_string_codecs_match_the_per_slot_oracles():
    # the slot-string encoder, decoder and lex unpacking against loops over
    # one slot at a time, on random graphs up to 16 vertices and the catalog
    rng = random.Random(6)
    sample = [random_graph(rng, rng.randint(0, 16)) for _ in range(3000)]
    for g in sample + list(catalog.CATALOG.values()):
        text = g.to_graph6()
        assert text == graph6_encode_by_slots(g)
        assert Graph.from_graph6(text) == graph6_decode_by_slots(text) == g
        assert _lex_to_bits(g.bits, g.n) == lex_to_bits_by_slots(g.bits, g.n)
    # malformed input: the same error, message included, in the same order
    # of checks (empty, count byte, body length, byte range, padding)
    malformed = [
        "", " \n", chr(62), chr(126) + "?", "Q" + "?" * 26,  # n = 18
        "C~~", "C", "D?", "B" + chr(20), "B" + chr(127), "D?\u0100",
        "D" + chr(20) + "\u0100", "A" + chr(63 + 16), "B" + chr(63 + 1),
        "D?" + chr(63 + 1), "A" + chr(20), "F" + "~" * 3 + chr(20),
    ]
    for text in malformed:
        outcome = _outcome(Graph.from_graph6, text)
        assert isinstance(outcome, tuple), text
        assert outcome == _outcome(graph6_decode_by_slots, text), text


@given(graphs(max_n=10))
def test_json_round_trip(g):
    assert Graph.from_json_obj(g.to_json_obj()) == g


def test_json_rejects_malformed():
    with pytest.raises(GraphError):
        Graph.from_json_obj({"edges": []})
    with pytest.raises(GraphError):
        Graph.from_json_obj({"n": 2, "edges": [[0, 2]]})
    for obj in (
        {"n": 2.5, "edges": [[0, 1]]},
        {"n": True, "edges": []},
        {"n": 3, "edges": 5},
        {"n": 3, "edges": [[0, "a"]]},
        {"n": 3, "edges": [[0, 1, 2]]},
    ):
        with pytest.raises(GraphError):
            Graph.from_json_obj(obj)


# -- elementary operations ---------------------------------------------------


def test_complement_of_complete_is_edgeless():
    assert complement(Graph.complete(4)) == Graph(4)


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_c5_is_self_complementary():
    c5 = catalog.cycle_graph(5)
    assert is_isomorphic(c5, complement(c5))


def test_induced_subgraph_of_complete():
    assert induced_subgraph(Graph.complete(5), [0, 2, 3, 4]) == Graph.complete(4)


def test_induced_path_from_cycle():
    got = induced_subgraph(catalog.cycle_graph(7), [0, 1, 2])
    assert got == path_graph(3)


def test_induced_star_inside_k7_minus_h7():
    # vertices 1,2,3 are mutually non-adjacent there, all adjacent to 7
    got = induced_subgraph(catalog.get("K7-H7"), [0, 1, 2, 6])
    assert is_isomorphic(got, star_graph(4, center=3))
    assert got == star_graph(4, center=3)


@given(graphs(min_n=1), st.data())
def test_switch_involution(g, data):
    w = data.draw(st.integers(0, g.n - 1))
    assert switch(switch(g, w), w) == g


@given(graphs(min_n=2), st.data())
def test_switch_commutes(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    assert switch(switch(g, u), v) == switch(switch(g, v), u)


@given(graphs(min_n=1), st.data())
def test_switch_commutes_with_complement(g, data):
    w = data.draw(st.integers(0, g.n - 1))
    assert complement(switch(g, w)) == switch(complement(g), w)


def test_switch_rejects_bad_vertex():
    with pytest.raises(GraphError):
        switch(Graph.complete(3), 3)


def test_cone_of_k4_is_k5():
    assert is_isomorphic(cone(Graph.complete(4)), Graph.complete(5))


def test_cone_adds_dominating_vertex():
    g = cone(catalog.cycle_graph(5))
    assert g.n == 6
    assert all(g.bits >> pair_slot(v, 5) & 1 for v in range(5))
    assert induced_subgraph(g, range(5)) == catalog.cycle_graph(5)


def test_cone_rejects_full_graph():
    with pytest.raises(GraphError):
        cone(Graph(16))


def test_permute_identity_and_composition():
    g = random_graph(random.Random(1), 6)
    assert permute(g, range(6)) == g
    pi = (1, 2, 3, 4, 5, 0)
    sigma = (3, 0, 1, 5, 4, 2)
    composed = tuple(sigma[pi[i]] for i in range(6))
    assert permute(permute(g, pi), sigma) == permute(g, composed)


@given(graph_with_permutation(max_n=7))
def test_permute_preserves_degree_multiset(gp):
    g, perm = gp
    assert degree_multiset(permute(g, perm)) == degree_multiset(g)


def test_permute_rejects_non_bijection():
    with pytest.raises(GraphError):
        permute(Graph.complete(3), (0, 0, 1))


# -- canonical labeling ------------------------------------------------------


@given(graph_with_permutation(max_n=7))
@settings(max_examples=150)
def test_canonical_code_matches_bruteforce_and_is_invariant(gp):
    g, perm = gp
    cf = canonical_form(g)
    assert cf.code == canonical_form_bruteforce(g).code
    assert cf.code == canonical_form(permute(g, perm)).code


@given(graphs(max_n=8))
def test_witness_realizes_the_code(g):
    cf = canonical_form(g)
    assert permute(g, cf.witness).bits == cf.code


def test_witness_preserves_isomorphism_invariants():
    rng = random.Random(9)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        h = permute(g, canonical_form(g).witness)
        assert degree_multiset(h) == degree_multiset(g)
        assert h.bits.bit_count() == g.bits.bit_count()
        assert triangle_count(h) == triangle_count(g)


def test_distinct_codes_for_path_and_star():
    assert canonical_form(path_graph(4)).code != canonical_form(star_graph(4)).code


def test_self_complementary_c5_has_equal_codes():
    c5 = catalog.cycle_graph(5)
    assert canonical_form(c5).code == canonical_form(complement(c5)).code


def test_canonical_graph_is_fixed_point():
    g = random_graph(random.Random(3), 7)
    cg = Graph(g.n, canonical_form(g).code)
    assert canonical_form(cg).code == cg.bits


def test_canonical_form_trivial_and_symmetric_cases():
    assert canonical_form(Graph(0)) == CanonicalForm(0, ())
    assert canonical_form(Graph(1)) == CanonicalForm(0, (0,))
    assert canonical_form(Graph.complete(8)).code == Graph.complete(8).bits
    assert canonical_form(Graph(8)).code == 0


def test_bruteforce_canonicalization_is_capped():
    with pytest.raises(GraphError):
        canonical_form_bruteforce(Graph(9))


def test_is_isomorphic_examples():
    assert is_isomorphic(Graph.complete(4), Graph.complete(4))
    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    assert not is_isomorphic(catalog.cycle_graph(6), two_triangles)
    assert not is_isomorphic(Graph.complete(3), Graph.complete(4))


def test_vertex_transitive_graphs_canonicalize():
    # regular graphs are the canonicalizer's worst case; cross-check n<=8
    paley9 = Graph.from_edges(
        9,
        [
            (i, j)
            for i in range(9)
            for j in range(i + 1, 9)
            if (i - j) % 9 in (1, 8, 3, 6)
        ],
    )
    cf = canonical_form(paley9)
    assert canonical_form(permute(paley9, (4, 2, 8, 0, 6, 1, 5, 3, 7))).code == cf.code
    for g in [catalog.cycle_graph(7), catalog.complete_bipartite(3, 2)]:
        assert canonical_form(g).code == canonical_form_bruteforce(g).code
    # non-regular graphs with many ties, where the vertex order matters and
    # random bits rarely reach; each relabeled so the input order is not sorted
    c7_plus_k1 = Graph.from_edges(8, catalog.cycle_graph(7).edges())
    scramble = (5, 2, 7, 0, 3, 6, 1, 4)
    for g in [
        catalog.complete_bipartite(1, 7),
        catalog.complete_bipartite(2, 6),
        catalog.complete_bipartite(3, 5),
        c7_plus_k1,
        # twin-rich: every isolated vertex is a twin of every other
        Graph.from_edges(8, [(0, 1)]),
        Graph.from_edges(8, [(0, 1), (1, 2), (0, 2)]),
    ]:
        h = permute(g, scramble)
        cf = canonical_form(h)
        assert cf.code == canonical_form_bruteforce(h).code
        assert permute(h, cf.witness).bits == cf.code


@pytest.mark.parametrize(
    "g",
    [
        catalog.complete_bipartite(7, 7),
        catalog.complete_bipartite(8, 8),
        Graph.from_edges(11, [(0, 1)]),
        Graph.from_edges(16, [(0, 1)]),
    ],
    ids=["K7,7", "K8,8", "edge+9K1", "edge+14K1"],
)
def test_twin_classes_canonicalize_fast(g):
    # a twin class of size t has t! orders of equal lex value; the walk
    # must try only one of them to stay fast here
    start = time.perf_counter()
    cf = canonical_form(g)
    assert time.perf_counter() - start < 0.1
    assert permute(g, cf.witness).bits == cf.code
    shuffled = list(range(g.n))
    random.Random(g.n).shuffle(shuffled)
    assert canonical_form(permute(g, shuffled)).code == cf.code
    if g.bits.bit_count() == 1:
        assert cf.code == 1 << pair_slot(g.n - 2, g.n - 1)  # the last slot


@pytest.mark.parametrize("k, bound", [(14, 0.3), (16, 1.5)], ids=["C14", "C16"])
def test_symmetric_graphs_without_twins_canonicalize_fast(k, bound):
    # no twins here: only the recorded automorphisms cut the tied branches
    g = catalog.cycle_graph(k)
    start = time.perf_counter()
    cf = canonical_form(g)
    assert time.perf_counter() - start < bound
    assert permute(g, cf.witness).bits == cf.code
    shuffled = list(range(k))
    random.Random(k).shuffle(shuffled)
    assert canonical_form(permute(g, shuffled)).code == cf.code


def assert_generates_the_automorphism_group(g):
    # automorphisms whose products number |Aut(g)| generate all of Aut(g)
    generators = canonical_form(g).generators
    for h in generators:
        assert permute(g, h) == g, (g, h)
    assert len(group_closure(generators, g.n)) == automorphism_count(g), g


@given(graphs(max_n=8))
def test_generators_are_automorphisms(g):
    for h in canonical_form(g).generators:
        assert permute(g, h) == g


def test_generators_generate_the_automorphism_group_up_to_6():
    # every labeled graph on n <= 5, and every class on 6 vertices in two
    # labelings; each 6-vertex graph is a 5-vertex class plus one vertex
    for n in range(6):
        for bits in range(1 << n * (n - 1) // 2):
            assert_generates_the_automorphism_group(Graph(n, bits))
    classes = {
        canonical_form(Graph(6, code | mask << 10)).code
        for code in {canonical_form(Graph(5, bits)).code for bits in range(1024)}
        for mask in range(32)
    }
    assert len(classes) == 156
    for code in sorted(classes):
        assert_generates_the_automorphism_group(Graph(6, code))
        assert_generates_the_automorphism_group(permute(Graph(6, code), (3, 5, 0, 4, 1, 2)))


def test_generators_generate_the_automorphism_group_up_to_8():
    rng = random.Random(8)
    cases = [random_graph(rng, rng.randint(6, 8)) for _ in range(20)]
    cases += [catalog.cycle_graph(k) for k in range(3, 9)]
    cases += [
        catalog.complete_bipartite(a, b)
        for a in range(1, 5)
        for b in range(a, 9 - a)
    ]
    for g in cases:
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        assert_generates_the_automorphism_group(permute(g, shuffled))


def test_canonical_forms_are_pinned():
    # sha256 of "code witness" lines, taken before automorphism pruning:
    # the pruned walk returns the same code and the same witness
    rng = random.Random(2026)
    sizes = [rng.randint(0, 12) for _ in range(1500)]
    cases = [Graph(n, rng.getrandbits(n * (n - 1) // 2)) for n in sizes]
    cases += [catalog.cycle_graph(k) for k in range(3, 15)]
    cases += [catalog.complete_bipartite(a, b) for a in range(1, 8) for b in range(a, 9)]
    digest = hashlib.sha256()
    for g in cases:
        cf = canonical_form(g)
        digest.update(f"{cf.code} {','.join(map(str, cf.witness))}\n".encode())
    assert len(cases) == 1547
    assert digest.hexdigest() == (
        "aae41ad37b2743c39b2da1d1fc1ac809f7e689bc32ef12d350916096fc2bc30e"
    )


def test_canonical_codes_partition_all_graphs_on_4_vertices():
    codes = {canonical_form(Graph(4, bits)).code for bits in range(64)}
    assert len(codes) == 11  # the classes of simple graphs on 4 vertices


# -- keyed canonical forms ----------------------------------------------------


def test_keyed_forms_on_random_graphs():
    rng = random.Random(15)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 10))
        assert canonical_form(g, None) == canonical_form(g)
        # one key class is the keyless walk
        assert canonical_form(g, [7] * g.n) == canonical_form(g)
        assert_keyed_form(g, search_keys(g), rng)
        assert_keyed_form(g, [rng.randrange(3) for _ in range(g.n)], rng)


@pytest.mark.parametrize(
    "g", [catalog.cycle_graph(16), catalog.complete_bipartite(6, 6)], ids=["C16", "K6,6"]
)
def test_keyed_forms_on_symmetric_graphs(g):
    rng = random.Random(g.n)
    assert canonical_form(g, None) == canonical_form(g)
    # both are vertex-transitive, so invariant keys are constant and change
    # nothing; uneven keys leave a smaller group with many ties
    assert canonical_form(g, search_keys(g)) == canonical_form(g)
    if g.n == 16:
        assert_keyed_form(g, search_keys(g), rng)
    for keys in ([v % 3 for v in range(g.n)], [v // 5 for v in range(g.n)]):
        assert_keyed_form(g, keys, rng)


@given(graphs(max_n=7), st.data())
@settings(max_examples=150)
def test_keyed_code_matches_bruteforce(g, data):
    # the least slot sequence over the orders that list the keys ascending
    keys = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    cf = canonical_form(g, keys)
    assert cf.code == canonical_form_bruteforce(g, keys).code
    assert sorted(keys) == [keys[v] for v in sorted(range(g.n), key=cf.witness.__getitem__)]


def test_keys_must_match_the_vertex_count():
    with pytest.raises(GraphError):
        canonical_form(Graph(3), [0, 1])
