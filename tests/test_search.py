"""Level-by-level search: counts, oracles, determinism, and reporting."""

import hashlib
import random
from functools import lru_cache

import numpy as np
import pytest
from conftest import feasible_levels
from oracles import (
    brute_force_check,
    brute_force_level_codes,
    clean_extensions_scalar,
    group_closure,
)

from champagne import catalog, search
from champagne.forbidden import (
    ForbiddenFamily,
    default_family,
    is_forbidden_incremental,
    ramsey_family,
)
from champagne.graphs import Graph, canonical_form, complement, pair_count
from champagne.search import (
    DEFAULT_SURVIVOR_CAP,
    FeasibleLevel,
    SearchCapExceeded,
    SearchOptions,
    _clean_extensions,
    _expand_chunk,
    _orbit_representatives,
    extend_level,
    run_search,
)

FAM = default_family()
R34 = ramsey_family(3, 4)
R44 = ramsey_family(4, 4)
R35 = ramsey_family(3, 5)
FAMILIES = {"default": FAM, "r44": R44, "r35": R35}

# level counts; derived goldens cross-checked against direct enumeration
# (k <= 7) and brute-force canonicalization of every level graph (k <= 8)
GOLDEN_DEFAULT = [1, 2, 4, 9, 22, 62, 158, 242, 82, 0]
GOLDEN_R34 = [1, 2, 3, 6, 9, 15, 9, 3, 0]


@lru_cache(maxsize=None)
def search_levels(name: str, n: int) -> tuple[FeasibleLevel, ...]:
    """Levels 1..n of a named family's search, computed once per module."""
    return tuple(feasible_levels(FAMILIES[name], n))


def level_1():
    return FeasibleLevel(1, (Graph(1, 0),))


def test_extend_level_first_steps():
    f2 = extend_level(level_1(), FAM)
    assert f2.count == 2
    f3 = extend_level(f2, FAM)
    assert f3.count == 4
    f4 = extend_level(f3, FAM)
    assert f4.count == 9
    for level in (f2, f3, f4):
        level.validate(FAM)


def test_level_4_matches_inline_enumeration():
    # independent in-test oracle: filter + dedup all 64 labeled colorings
    from champagne.forbidden import is_forbidden

    expected = sorted(
        {
            canonical_form(Graph(4, bits)).code
            for bits in range(64)
            if not is_forbidden(Graph(4, bits), FAM)
        }
    )
    f4 = extend_level(extend_level(extend_level(level_1(), FAM), FAM), FAM)
    assert list(f4.codes()) == expected


def test_run_search_small_report():
    rep = run_search(FAM, 4)
    assert [(l["k"], l["count"]) for l in rep.levels] == [
        (1, 1),
        (2, 2),
        (3, 4),
        (4, 9),
    ]
    assert rep.verdict == {"kind": "feasible-survivors", "k": 4, "count": 9}


def test_default_family_golden_counts():
    rep = run_search(FAM, 10)
    assert [l["count"] for l in rep.levels] == GOLDEN_DEFAULT
    assert rep.verdict == {"kind": "empty-at-k", "k": 10}


def test_r34_golden_counts():
    rep = run_search(R34, 9)
    assert [l["count"] for l in rep.levels] == GOLDEN_R34
    assert rep.verdict == {"kind": "empty-at-k", "k": 9}
    assert rep.levels[-2]["count"] == 3  # level 8 is non-empty


def test_monotone_emptiness():
    for n_max in (9, 10, 12):
        assert run_search(R34, n_max).verdict == {"kind": "empty-at-k", "k": 9}


def test_levels_match_direct_enumeration_small():
    for level in feasible_levels(FAM, 6):
        assert tuple(level.codes()) == brute_force_level_codes(FAM, level.k)


def test_levels_are_sound_and_complement_closed():
    for level in feasible_levels(FAM, 8):
        level.validate(FAM)
        codes = set(level.codes())
        for g in level.graphs:
            assert canonical_form(complement(g)).code in codes


def test_deterministic_across_worker_counts():
    reports = [
        run_search(FAM, 7, SearchOptions(jobs=j, collect_witnesses=True))
        for j in (1, 2, 3)
    ]
    baseline = reports[0].to_json(with_timing=False)
    assert all(r.to_json(with_timing=False) == baseline for r in reports[1:])


@pytest.mark.parametrize(
    "fam, n, digest",
    [
        (FAM, 10, "831e1c63989e0c96d8305e053e17f4e5e68e8e7330a8c1e007905874ed57d22a"),
        (R34, 9, "744099b8d021f91e632b98a405dc4280f8597dcf6e65a415df206494b096ef5a"),
    ],
    ids=["default-10", "r34-9"],
)
@pytest.mark.parametrize("jobs", [1, 2])
def test_report_bytes_pin_canonical_codes(fam, n, digest, jobs):
    # the brute-force oracle stops at n <= 8; these digests pin every
    # canonical code and witness of the full searches beyond it
    report = run_search(fam, n, SearchOptions(jobs=jobs, collect_witnesses=True))
    text = report.to_json(with_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.fixture(scope="module", params=["default-10", "r44-8"])
def every_child(request):
    """Each parent of every level below the top, with the canonical form of
    each of its clean extensions, masks ascending: every child, not one per
    orbit."""
    name, n = {"default-10": ("default", 10), "r44-8": ("r44", 8)}[request.param]
    fam = FAMILIES[name]
    parents = []
    for level in search_levels(name, n - 1):
        shift = pair_count(level.k)
        for parent in level.graphs:
            forms = [
                canonical_form(Graph(level.k + 1, parent.bits | mask << shift))
                for mask in _clean_extensions(parent, fam).tolist()
            ]
            parents.append((parent, forms))
    return request.param, fam, parents


# sha256 of "code witness" lines over every child in search order, taken
# before automorphism pruning: codes, witnesses and levels are unchanged
CHILD_FORM_DIGESTS = {
    "default-10": (5206, "cb1dda5c9c3478f5954c8df2d3a1f5b55a5ed4dc149c356643f799ca3646ac67"),
    "r44-8": (26010, "1984f758e40bb332fec151d329854e394033d5010eeb7dc8f45607c91e6b5cfb"),
}


def test_every_child_canonical_form_is_pinned(every_child):
    name, _, parents = every_child
    digest = hashlib.sha256()
    count = 0
    for _, forms in parents:
        for cf in forms:
            digest.update(f"{cf.code} {','.join(map(str, cf.witness))}\n".encode())
            count += 1
    assert (count, digest.hexdigest()) == CHILD_FORM_DIGESTS[name]


def test_orbit_pruned_expansion_matches_every_mask(every_child):
    _, fam, parents = every_child
    for parent, forms in parents:
        codes, kept = _expand_chunk(
            ((parent.bits,), parent.n, fam, DEFAULT_SURVIVOR_CAP)
        )
        assert kept == len(forms)
        assert codes == {cf.code for cf in forms}


@pytest.mark.parametrize("name, top", [("default", 9), ("r44", 7), ("r35", 11)])
def test_clean_extensions_match_scalar_filter(name, top):
    # every parent on levels 1..top of the family's search
    fam = FAMILIES[name]
    for level in search_levels(name, top):
        for parent in level.graphs:
            masks = _clean_extensions(parent, fam)
            assert masks.dtype == np.uint32
            assert np.array_equal(masks, clean_extensions_scalar(parent, fam))


def test_clean_extensions_on_large_random_parents():
    # an 8-vertex pattern gives 128-column completion rows; the k = 14 and
    # 15 parents have more critical 7-subsets than fit in one filter block
    rng = random.Random(11)
    pattern = Graph(8, rng.getrandbits(pair_count(8)))
    fam = ForbiddenFamily([(pattern, "both"), (Graph.complete(6), "red")])
    for k in range(12, 16):
        parent = Graph(k, rng.getrandbits(pair_count(k)))
        masks = _clean_extensions(parent, fam)
        assert np.array_equal(masks, clean_extensions_scalar(parent, fam))
        clean = set(masks.tolist())
        bad = sorted(set(range(1 << k)) - clean)
        assert clean and bad
        sample = rng.sample(sorted(clean), 3) + rng.sample(bad, 3)
        for mask in sample:
            child = Graph(k + 1, parent.bits | mask << pair_count(k))
            assert is_forbidden_incremental(child, fam, k) == (mask not in clean)


def test_orbit_representatives_are_the_orbit_minima():
    rng = random.Random(5)
    cases = [catalog.cycle_graph(6), catalog.complete_bipartite(2, 4), Graph.empty(5)]
    cases += [Graph(7, rng.getrandbits(21)) for _ in range(5)]
    for g in cases:
        generators = canonical_form(g).generators
        group = group_closure(generators, g.n)
        least = [
            mask
            for mask in range(1 << g.n)
            if all(
                sum(1 << h[i] for i in range(g.n) if mask >> i & 1) >= mask
                for h in group
            )
        ]
        every = np.arange(1 << g.n, dtype=np.uint32)
        assert _orbit_representatives(every, generators, g.n).tolist() == least


def test_witness_file_and_embedding(tmp_path):
    path = tmp_path / "out.g6"
    rep = run_search(
        FAM, 4, SearchOptions(witness_path=str(path), collect_witnesses=True)
    )
    lines = path.read_text().splitlines()
    assert len(lines) == 9
    assert lines == rep.witnesses["graph6"]
    assert lines == sorted(lines, key=lambda s: Graph.from_graph6(s).bits)
    parsed = [Graph.from_graph6(s) for s in lines]
    assert all(g.n == 4 for g in parsed)


def test_witnesses_fall_back_to_last_nonempty_level():
    rep = run_search(R34, 9, SearchOptions(collect_witnesses=True))
    assert rep.witnesses["k"] == 8
    assert rep.witnesses["count"] == 3


def test_survivor_cap():
    with pytest.raises(SearchCapExceeded) as err:
        run_search(FAM, 6, SearchOptions(cap=10))
    partial = err.value.report
    assert partial.verdict["kind"] == "cap-exceeded"
    last = partial.levels[-1]
    assert max(last["kept"], last["count"]) > 10  # pre-dedup kept also counts


def test_survivor_cap_stops_the_level_early(monkeypatch):
    # the capped level must not canonicalize the children of every parent
    calls = []

    def counting(g):
        calls.append(g.n)
        return canonical_form(g)

    monkeypatch.setattr(search, "canonical_form", counting)
    with pytest.raises(SearchCapExceeded) as err:
        run_search(FAM, 10, SearchOptions(cap=100))
    last = err.value.report.levels[-1]
    assert max(last["kept"], last["count"]) > 100
    capped = calls.count(last["k"])
    calls.clear()
    run_search(FAM, last["k"])
    assert capped < calls.count(last["k"])


def test_run_search_validates_arguments():
    with pytest.raises(ValueError):
        run_search(FAM, 0)
    with pytest.raises(ValueError):
        run_search(FAM, 17)
    with pytest.raises(ValueError):
        SearchOptions(jobs=0)
    with pytest.raises(ValueError):
        SearchOptions(cap=0)


def test_extend_level_refuses_to_grow_past_16():
    level = FeasibleLevel(16, (Graph(16, 0),))
    with pytest.raises(ValueError):
        extend_level(level, ramsey_family(2, 2))


def test_brute_force_check_examples():
    assert not brute_force_check(FAM, 4)
    assert brute_force_check(ramsey_family(2, 2), 2)
    assert not brute_force_check(R34, 5)
    with pytest.raises(ValueError):
        brute_force_check(FAM, 8)
    with pytest.raises(ValueError):
        brute_force_check(FAM, 0)


def test_brute_force_agrees_with_search_emptiness():
    for fam in (FAM, R34):
        for n in range(1, 7):
            rep = run_search(fam, n)
            empty = rep.verdict["kind"] == "empty-at-k"
            assert brute_force_check(fam, n) == empty


def test_feasible_level_validate_catches_corruption():
    f2 = extend_level(level_1(), FAM)
    bad_order = FeasibleLevel(2, tuple(reversed(f2.graphs)))
    with pytest.raises(AssertionError):
        bad_order.validate(FAM)
    forbidden_member = FeasibleLevel(4, (Graph.complete(4),))
    with pytest.raises(AssertionError):
        forbidden_member.validate(FAM)


def test_report_json_shapes():
    rep = run_search(FAM, 3)
    obj = rep.to_json_obj()
    assert {"family", "n_max", "jobs", "cap", "seed", "levels", "verdict",
            "witnesses"} <= set(obj)
    assert all("seconds" in level for level in obj["levels"])
    flat = rep.to_json_obj(with_timing=False)
    assert "jobs" not in flat
    assert all("seconds" not in level for level in flat["levels"])


def test_search_with_single_both_scope_pattern():
    # only K3 forbidden in both colors: level 6 must die (R(3,3) = 6),
    # and the 5-cycle is the lone survivor at 5 vertices
    fam = ForbiddenFamily([(Graph.complete(3), "both")])
    rep = run_search(fam, 9)
    assert rep.verdict == {"kind": "empty-at-k", "k": 6}
    assert [l["count"] for l in rep.levels] == [1, 2, 2, 3, 1, 0]
    levels = feasible_levels(fam, 9)
    assert [level.count for level in levels] == [1, 2, 2, 3, 1, 0]
    for level in levels[:5]:
        assert tuple(level.codes()) == brute_force_level_codes(fam, level.k)
    lone = levels[4].graphs[0]
    assert canonical_form(catalog.cycle_graph(5)).code == lone.bits
