"""Forbidden-family compilation and induced-containment checks."""

import hashlib
import itertools
import json
import random
import time

import numpy as np
import pytest
from hypothesis import given

from champagne import catalog
from champagne.forbidden import (
    FamilyError,
    ForbiddenFamily,
    default_family,
    family_from_json,
    induced_code,
    labeled_copies,
    load_family,
    ramsey_family,
)
from champagne.graphs import (
    Graph,
    complement,
    cone,
    induced_subgraph,
    pair_count,
    permute,
)
from champagne.search import _clean_extensions
from conftest import graphs, isomorphic_by_permutations, random_graph
from oracles import (
    contains_induced,
    is_forbidden,
    labeled_copies_by_permutation,
    path_graph,
)

FAM = default_family()


def test_labeled_copy_counts_reflect_automorphisms():
    # |copies| = n! / |Aut|
    assert len(labeled_copies(Graph.complete(4))) == 1
    assert len(labeled_copies(catalog.complete_bipartite(3, 2))) == 10
    assert len(labeled_copies(catalog.cycle_graph(5))) == 12
    assert len(labeled_copies(catalog.get("K6-C5"))) == 72
    assert len(labeled_copies(catalog.get("K6-H6"))) == 180
    assert len(labeled_copies(catalog.get("K7-H7"))) == 840


def test_default_family_compiled_sizes():
    assert FAM.sizes == (4, 5, 6, 7)
    assert {m: len(c) for m, c in FAM.bad_codes.items()} == {
        4: 2,
        5: 20,
        6: 504,
        7: 1680,
    }


def test_induced_code_matches_induced_subgraph():
    rng = random.Random(4)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 9))
        m = rng.randint(1, g.n)
        subset = tuple(sorted(rng.sample(range(g.n), m)))
        assert induced_code(g.rows(), subset) == induced_subgraph(g, subset).bits


def test_contains_induced_examples():
    assert contains_induced(Graph.complete(5), Graph.complete(4))
    assert not contains_induced(catalog.cycle_graph(7), catalog.cycle_graph(5))
    assert not contains_induced(
        catalog.get("K6-C5"), catalog.complete_bipartite(3, 2)
    )
    assert not contains_induced(Graph.complete(3), Graph.complete(4))


def test_contains_induced_against_permutation_oracle():
    rng = random.Random(11)
    for _ in range(120):
        g = random_graph(rng, rng.randint(3, 7))
        p = random_graph(rng, rng.randint(2, min(5, g.n)))
        expected = any(
            isomorphic_by_permutations(induced_subgraph(g, s), p)
            for s in itertools.combinations(range(g.n), p.n)
        )
        assert contains_induced(g, p) == expected


def test_is_forbidden_examples():
    assert is_forbidden(Graph(4), FAM)  # 4 lines pairwise -1
    assert not is_forbidden(catalog.cycle_graph(5), FAM)
    assert is_forbidden(catalog.get("K7-H7"), FAM)
    assert is_forbidden(Graph.complete(4), FAM)
    assert not is_forbidden(Graph(3), FAM)


def test_default_family_is_an_antichain():
    names = [entry["pattern"] for entry in FAM.describe()]
    for a, b in itertools.permutations(names, 2):
        host = catalog.get(a)
        pattern = catalog.get(b)
        assert not contains_induced(host, pattern)
        assert not contains_induced(complement(host), pattern)


@given(graphs(max_n=8))
def test_complement_symmetry_for_both_scope(g):
    assert is_forbidden(g, FAM) == is_forbidden(complement(g), FAM)


def test_monotone_under_induced_subgraphs(rng):
    hits = 0
    while hits < 200:
        g = random_graph(rng, rng.randint(4, 9))
        size = rng.randint(4, g.n)
        sub = induced_subgraph(g, rng.sample(range(g.n), size))
        if is_forbidden(sub, FAM):
            hits += 1
            assert is_forbidden(g, FAM)


def test_incremental_trivial_cases():
    k4 = cone(Graph.complete(3))
    assert is_forbidden(k4, FAM, through=3)
    # a lone extra vertex is not harmless: the complement of C5 + K1 is
    # exactly the center-plus-pentagram pattern, so this extension dies
    c5_plus_isolated = Graph.from_edges(6, catalog.cycle_graph(5).edges())
    assert contains_induced(complement(c5_plus_isolated), catalog.get("K6-C5"))
    assert is_forbidden(c5_plus_isolated, FAM, through=5)
    p4_plus_isolated = Graph.from_edges(5, path_graph(4).edges())
    assert not is_forbidden(p4_plus_isolated, FAM, through=4)


def test_incremental_agrees_with_full_check(rng):
    # the search's filter keeps exactly the one-vertex extensions of a
    # clean parent that the scalar check finds clean
    checked = 0
    while checked < 10_000:
        k = rng.randint(1, 7)
        parent = random_graph(rng, k)
        if is_forbidden(parent, FAM):
            continue
        clean = set(_clean_extensions(k, [parent.bits], FAM)[0].tolist())
        for mask in range(1 << k):
            child = Graph(k + 1, parent.bits | mask << pair_count(k))
            assert (mask in clean) == (not is_forbidden(child, FAM)), (parent, mask)
        checked += 1 << k


def test_scoped_family_is_asymmetric():
    fam = ramsey_family(3, 4)
    assert is_forbidden(Graph.complete(3), fam)  # red triangle
    assert not is_forbidden(Graph(3), fam)  # blue triangle is allowed
    assert is_forbidden(Graph(4), fam)  # blue K4
    assert is_forbidden(Graph.complete(4), fam)  # contains a red triangle


def test_family_validation():
    with pytest.raises(FamilyError):
        ForbiddenFamily([(Graph.complete(3), "green")])
    with pytest.raises(FamilyError):
        ForbiddenFamily([(Graph(1), "both")])
    with pytest.raises(FamilyError):
        ForbiddenFamily([(Graph.complete(9), "both")])


def test_family_json_round_trip(tmp_path):
    entries = [
        {"pattern": "K4", "scope": "both"},
        {"pattern": {"n": 3, "edges": [[0, 1], [1, 2]]}, "scope": "red"},
        {"pattern": "C5"},  # scope defaults to both
    ]
    fam = family_from_json(entries)
    assert fam.entries[0][0] == Graph.complete(4)
    assert fam.entries[1][1] == "red"
    assert fam.entries[2][1] == "both"
    desc = fam.describe()
    assert desc[0]["pattern"] == "K4"
    assert desc[1]["pattern"] == {"n": 3, "edges": [[0, 1], [1, 2]]}

    path = tmp_path / "fam.json"
    path.write_text(json.dumps(entries))
    fam2 = load_family(str(path))
    assert fam2.describe() == desc


def test_family_json_rejects_malformed():
    with pytest.raises(FamilyError):
        family_from_json({"pattern": "K4"})
    with pytest.raises(FamilyError):
        family_from_json([{"scope": "both"}])
    with pytest.raises(FamilyError):
        family_from_json([{"pattern": "K99"}])


def test_completion_tables_invert_bad_codes():
    for m, codes in FAM.bad_codes.items():
        shift = pair_count(m - 1)
        keys, table = FAM.completions[m]
        assert keys.tolist() == sorted(set(keys.tolist()))
        rebuilt = set()
        for low, row in zip(keys.tolist(), table):
            for high in np.flatnonzero(row).tolist():
                rebuilt.add(low | high << shift)
        assert rebuilt == set(codes)


def test_labeled_copies_closed_under_relabeling(rng):
    g = random_graph(rng, 5)
    codes = labeled_copies(g)
    for _ in range(20):
        perm = rng.sample(range(5), 5)
        assert permute(g, perm).bits in codes


def copy_oracle_graphs(n):
    """Catalog graphs on n vertices and their complements, the edgeless and
    complete graphs (no edge and every edge), and two seeded random graphs."""
    rng = random.Random(n)
    found = [g for g in catalog.CATALOG.values() if g.n == n]
    found += [complement(g) for g in found]
    found += [Graph(n), Graph.complete(n)]
    found += [random_graph(rng, n) for _ in range(2)]
    return list(dict.fromkeys(found))


@pytest.mark.parametrize("n", range(2, 9))
def test_labeled_copies_match_permutation_oracle(n):
    for g in copy_oracle_graphs(n):
        expected = labeled_copies_by_permutation(g)
        assert labeled_copies(g) == expected
        # the blue scope XORs the red copies with the full mask
        blue = ForbiddenFamily([(complement(g), "blue")]).bad_codes[n]
        assert blue == expected


def test_labeled_copies_reject_more_than_eight_vertices():
    with pytest.raises(ValueError):
        labeled_copies(Graph.complete(9))


def family_digest(fam):
    """sha256 of the sorted bad codes per pattern size."""
    text = json.dumps(
        {str(m): sorted(codes) for m, codes in fam.bad_codes.items()}, sort_keys=True
    )
    return hashlib.sha256(text.encode()).hexdigest()


def eight_vertex_family():
    return ForbiddenFamily(
        [(catalog.get("K8-H7"), "both"), (catalog.get("K7-C5"), "both")]
    )


@pytest.mark.parametrize(
    "build, digest",
    [
        (default_family,
         "d5e59f0cda00fcba8ddfae78d9f4098166bf669f4a37502e7d73e088ef8035d3"),
        (lambda: ramsey_family(3, 4),
         "30c0a7e867dc6a7a2e9e4c906b82fb5ab251730463c064ee6f83fe69cd1160c1"),
        (lambda: ramsey_family(4, 4),
         "384f7d2bfd0e801c7c672e4845d80682001647199da34dd3432fcd4cc4761c04"),
        (eight_vertex_family,
         "8bef5aa79dbd60a8ddc01eb3d49124b6ca917174efcd35ec6807744125e6d06e"),
    ],
    ids=["default", "r34", "r44", "K8-H7+K7-C5"],
)
def test_compiled_family_digests(build, digest):
    # taken from the one-permute-per-vertex-order compile
    assert family_digest(build()) == digest


def test_eight_vertex_family_compiles_fast():
    # 8! orders of K8-H7 plus 7! of K7-C5, both colors, from a cold cache
    labeled_copies.cache_clear()
    start = time.perf_counter()
    fam = eight_vertex_family()
    assert time.perf_counter() - start < 0.3
    assert {m: len(c) for m, c in fam.bad_codes.items()} == {7: 504, 8: 13440}
