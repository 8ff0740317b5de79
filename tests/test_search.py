"""Level-by-level search: counts, oracles, determinism, and reporting."""

import copy
import hashlib
import itertools
import json
import multiprocessing
import random
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from conftest import feasible_levels
from oracles import (
    assert_keyed_form,
    brute_force_check,
    brute_force_level_codes,
    clean_extensions_scalar,
    group_closure,
    is_forbidden,
    search_keys,
    validate_level,
)

from champagne import catalog, search
from champagne.forbidden import (
    ForbiddenFamily,
    default_family,
    family_from_json,
    ramsey_family,
)
from champagne.graphs import Graph, canonical_form, complement, pair_count, permute
from champagne.jsonout import dumps
from champagne.search import (
    DEFAULT_SURVIVOR_CAP,
    MAX_JOBS,
    FeasibleLevel,
    _clean_extensions,
    _expand_chunk,
    _orbit_representatives,
    extend_level,
    run_search,
    timing_free,
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


def expand(parent, fam):
    """Accepted child codes and clean-mask count of one parent."""
    packed = bytes(v for h in canonical_form(parent).generators for v in h)
    shared = (fam, DEFAULT_SURVIVOR_CAP, multiprocessing.Value("q", 0))
    children = _expand_chunk((parent.n, ((parent.bits, packed),)), shared)
    return [code for code, _ in children], shared[2].value


def unpack(packed: bytes, n: int) -> list[tuple[int, ...]]:
    """The permutations of a level's packed generators, n bytes each."""
    return [tuple(packed[i : i + n]) for i in range(0, len(packed), n)]


def test_extend_level_first_steps():
    f2 = extend_level(level_1(), FAM)
    assert f2.count == 2
    f3 = extend_level(f2, FAM)
    assert f3.count == 4
    f4 = extend_level(f3, FAM)
    assert f4.count == 9
    for level in (f2, f3, f4):
        validate_level(level, FAM)
    # the carried generators and the step's counts take no part in equality
    assert f4 == FeasibleLevel(4, f4.graphs, generators=())


def test_level_4_matches_inline_enumeration():
    # independent in-test oracle: filter + dedup all 64 labeled colorings
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
    assert [(l["k"], l["count"]) for l in rep["levels"]] == [
        (1, 1),
        (2, 2),
        (3, 4),
        (4, 9),
    ]
    assert rep["verdict"] == {"kind": "feasible-survivors", "k": 4, "count": 9}


def test_default_family_golden_counts():
    rep = run_search(FAM, 10)
    assert [l["count"] for l in rep["levels"]] == GOLDEN_DEFAULT
    assert rep["verdict"] == {"kind": "empty-at-k", "k": 10}


def test_r34_golden_counts():
    rep = run_search(R34, 9)
    assert [l["count"] for l in rep["levels"]] == GOLDEN_R34
    assert rep["verdict"] == {"kind": "empty-at-k", "k": 9}
    assert rep["levels"][-2]["count"] == 3  # level 8 is non-empty


def test_monotone_emptiness():
    for n_max in (9, 10, 12):
        assert run_search(R34, n_max)["verdict"] == {"kind": "empty-at-k", "k": 9}


def test_levels_match_direct_enumeration_small():
    for level in feasible_levels(FAM, 6):
        assert tuple(level.codes()) == brute_force_level_codes(FAM, level.k)


# families that are not closed under complement, so a level holds classes
# whose complements it lacks
ONE_SIDED = {
    "r34": R34,
    "red-K3": ForbiddenFamily([(Graph.complete(3), "red")]),
    "C5-red-K4-blue": ForbiddenFamily(
        [(catalog.cycle_graph(5), "red"), (Graph.complete(4), "blue")]
    ),
    "random5-red": ForbiddenFamily(
        [(Graph(5, random.Random(8).getrandbits(pair_count(5))), "red")]
    ),
}


@pytest.mark.parametrize("name", ONE_SIDED)
def test_levels_match_direct_enumeration_one_sided(name):
    fam = ONE_SIDED[name]
    levels = feasible_levels(fam, 7)
    for level in levels:
        assert tuple(level.codes()) == brute_force_level_codes(fam, level.k)
    # a relabeled parent yields the same accepted children
    rng = random.Random(name)
    for level in levels[:-1]:
        for parent in level.graphs:
            relabeled = permute(parent, rng.sample(range(parent.n), parent.n))
            assert sorted(expand(relabeled, fam)[0]) == sorted(expand(parent, fam)[0])


def test_levels_are_sound_and_complement_closed():
    for level in feasible_levels(FAM, 8):
        validate_level(level, FAM)
        codes = set(level.codes())
        for g in level.graphs:
            assert canonical_form(complement(g)).code in codes


def test_deterministic_across_worker_counts():
    reports = [
        run_search(FAM, 7, jobs=j, witnesses=True)
        for j in (1, 2, 3)
    ]
    baseline = dumps(timing_free(reports[0]))
    assert all(dumps(timing_free(r)) == baseline for r in reports[1:])


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
    report = run_search(fam, n, jobs=jobs, witnesses=True)
    text = dumps(timing_free(report))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.fixture(scope="module", params=["default-10", "r44-8"])
def every_child(request):
    """Each parent of every level below the top, in its lex-min labeling and
    ascending, with the canonical form of each of its clean extensions, masks
    ascending: every child, not one per orbit."""
    name, n = {"default-10": ("default", 10), "r44-8": ("r44", 8)}[request.param]
    fam = FAMILIES[name]
    parents = []
    for level in search_levels(name, n - 1):
        k, codes = level.k, level.codes()
        for code, masks in zip(codes, _clean_extensions(k, codes, fam)):
            forms = [
                canonical_form(Graph(k + 1, code | mask << pair_count(k)))
                for mask in masks.tolist()
            ]
            parents.append((Graph(k, code), forms))
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
    # each class of a level comes from exactly one parent: the per-parent
    # code lists are disjoint, free of duplicates, and make up every child
    _, fam, parents = every_child
    for k in sorted({parent.n for parent, _ in parents}):
        accepted, every = [], set()
        for parent, forms in parents:
            if parent.n == k:
                codes, kept = expand(parent, fam)
                assert kept == len(forms)
                # the search labels children its own way; compare lex-min codes
                accepted += [canonical_form(Graph(k + 1, c)).code for c in codes]
                every |= {cf.code for cf in forms}
        assert len(accepted) == len(set(accepted))
        assert set(accepted) == every


def test_keyed_forms_on_every_r44_child():
    # every clean child on levels 2..8 of the R(4,4) search, keyed by the
    # column the search computes for it
    rng = random.Random(44)
    children = 0
    for level in search_levels("r44", 7):
        k, shift = level.k, pair_count(level.k)
        bits = [parent.bits for parent in level.graphs]
        for parent, masks in zip(level.graphs, _clean_extensions(k, bits, R44)):
            columns = search._invariants(parent.rows(), masks, k).T.tolist()
            for mask, keys in zip(masks.tolist(), columns):
                child = Graph(k + 1, parent.bits | mask << shift)
                assert keys == search_keys(child)
                assert_keyed_form(child, keys, rng)
                children += 1
    assert children == 26010


@pytest.mark.parametrize("name, top", [("default", 9), ("r44", 7), ("r35", 11)])
def test_clean_extensions_match_scalar_filter(name, top):
    # every parent on levels 1..top of the family's search, one at a time
    fam = FAMILIES[name]
    for level in search_levels(name, top):
        for parent in level.graphs:
            [masks] = _clean_extensions(level.k, [parent.bits], fam)
            assert masks.dtype == np.uint32
            assert np.array_equal(masks, clean_extensions_scalar(parent, fam))


@lru_cache(maxsize=None)
def scalar_level_masks(name: str, k: int) -> list[np.ndarray]:
    """The scalar filter's clean masks of each parent on level k."""
    fam, level = FAMILIES[name], search_levels(name, k)[k - 1]
    return [clean_extensions_scalar(parent, fam) for parent in level.graphs]


@pytest.mark.parametrize("size", [1, 3, None])
@pytest.mark.parametrize("name, k", [("default", 8), ("default", 9), ("r35", 11)])
def test_clean_extensions_of_whole_levels_in_blocks(name, k, size):
    # a level filtered in blocks of one, of three, or as the search blocks
    # it (size None), each parent's masks as the scalar filter's
    fam, level = FAMILIES[name], search_levels(name, k)[k - 1]
    parents = [(parent.bits, b"") for parent in level.graphs]
    if size is None:
        filtered = list(search._filtered(k, parents, fam))
    else:
        runs = [parents[i : i + size] for i in range(0, len(parents), size)]
        filtered = [
            pair
            for run in runs
            for pair in zip(run, _clean_extensions(k, [bits for bits, _ in run], fam))
        ]
    assert [bits for (bits, _), _ in filtered] == [bits for bits, _ in parents]
    for (_, masks), expected in zip(filtered, scalar_level_masks(name, k)):
        assert masks.dtype == np.uint32
        assert np.array_equal(masks, expected)


def test_clean_extensions_on_large_random_parents(monkeypatch):
    # an 8-vertex pattern gives 128-column completion rows.  Each parent is
    # filtered alone, then all four of a size together as one block, which
    # must give the same masks when its bad masks take many small scatters
    rng = random.Random(11)
    pattern = Graph(8, rng.getrandbits(pair_count(8)))
    fam = ForbiddenFamily([(pattern, "both"), (Graph.complete(6), "red")])
    for k in range(12, 16):
        parents = [Graph(k, rng.getrandbits(pair_count(k))) for _ in range(4)]
        bits = [parent.bits for parent in parents]
        together = _clean_extensions(k, bits, fam)
        for parent, block_masks in zip(parents, together, strict=True):
            [alone] = _clean_extensions(k, [parent.bits], fam)
            assert np.array_equal(alone, block_masks)
            assert np.array_equal(alone, clean_extensions_scalar(parent, fam))
        with monkeypatch.context() as patch:
            patch.setattr(search, "SCATTER_ENTRIES", 1 << 8)
            scattered = _clean_extensions(k, bits, fam)
        assert all(map(np.array_equal, scattered, together))
        parent, masks = parents[0], together[0]
        clean = set(masks.tolist())
        bad = sorted(set(range(1 << k)) - clean)
        assert clean and bad
        sample = rng.sample(sorted(clean), 3) + rng.sample(bad, 3)
        for mask in sample:
            child = Graph(k + 1, parent.bits | mask << pair_count(k))
            assert is_forbidden(child, fam, through=k) == (mask not in clean)


@lru_cache(maxsize=None)
def k4_k32_report(jobs: int) -> dict:
    """The timing-free report of the K4, K3,2 search to 16, with witnesses."""
    fam = family_from_json([{"pattern": p, "scope": "both"} for p in ("K4", "K3,2")])
    return timing_free(run_search(fam, 16, jobs=jobs, witnesses=True))


@pytest.mark.parametrize("jobs", [1, 2])
def test_k4_k32_search_to_16(jobs):
    # the last row of the bound ladder and the only search that reaches
    # k = 15: K4 and K3,2, each in both colors, leave one class at 16
    report = k4_k32_report(jobs)
    counts = [level["count"] for level in report["levels"]]
    assert counts == [1, 2, 4, 9, 22, 66, 202, 581, 1181, 1144, 466, 65, 25, 6, 2, 1]
    assert report["verdict"] == {"kind": "feasible-survivors", "k": 16, "count": 1}
    assert report["witnesses"]["graph6"] == ["O@LIjXqbkusml`sZZ_^ES"]
    assert report == k4_k32_report(1)


def test_default_family_without_k32_is_empty_at_12():
    # the first row of the bound ladder: the other four patterns, each in
    # both colors, leave 3,796 classes at 9 and no clean coloring of K_12
    names = ("K4", "K6-C5", "K6-H6", "K7-H7")
    fam = family_from_json([{"pattern": name, "scope": "both"} for name in names])
    report = run_search(fam, 12)
    counts = [level["count"] for level in report["levels"]]
    assert counts == [1, 2, 4, 9, 24, 80, 306, 1256, 3796, 1546, 38, 0]
    assert report["verdict"] == {"kind": "empty-at-k", "k": 12}


def test_orbit_representatives_are_the_orbit_minima():
    # over every mask, and over the union of a random subset of the orbits
    rng = random.Random(5)
    cases = [catalog.cycle_graph(6), catalog.complete_bipartite(2, 4), Graph(5)]
    cases += [Graph(7, rng.getrandbits(21)) for _ in range(5)]
    for g in cases:
        generators = canonical_form(g).generators
        group = group_closure(generators, g.n)
        orbits = {
            frozenset(
                sum(1 << h[i] for i in range(g.n) if mask >> i & 1) for h in group
            )
            for mask in range(1 << g.n)
        }
        every = np.arange(1 << g.n, dtype=np.uint32)
        least = sorted(min(orbit) for orbit in orbits)
        assert _orbit_representatives(every, generators, g.n).tolist() == least
        chosen = [orbit for orbit in orbits if rng.random() < 0.5]
        some = np.array(sorted(set().union(*chosen)), dtype=np.uint32)
        least = sorted(min(orbit) for orbit in chosen)
        assert _orbit_representatives(some, generators, g.n).tolist() == least


def test_orbit_representatives_take_memory_in_proportion_to_the_masks():
    # k = 15: the edgeless graph's group is every permutation, so the 17
    # masks below are three orbits; a table over all 2^15 masks would take
    # megabytes
    generators = canonical_form(Graph(15)).generators
    assert len(generators) == 14
    masks = np.array([0] + [1 << i for i in range(15)] + [(1 << 15) - 1], np.uint32)
    tracemalloc.start()
    try:
        reps = _orbit_representatives(masks, generators, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reps.tolist() == [0, 1, (1 << 15) - 1]
    assert peak < 64 << 10


def test_shared_kept_count_loses_no_update():
    # four workers on fewer cores add to one counter; a lost update would
    # leave it below the number of clean masks of the level's parents
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)
    level = search_levels("default", 9)[7]  # level 8
    parents = tuple(zip((g.bits for g in level.graphs), level.generators))
    chunks = [(8, parents[i::4]) for i in range(4)]
    shared = (FAM, DEFAULT_SURVIVOR_CAP, counter)
    with ProcessPoolExecutor(4, ctx, search._share, shared) as pool:
        list(pool.map(_expand_chunk, chunks, timeout=120))
    bits = [parent.bits for parent in level.graphs]
    clean = sum(len(masks) for masks in _clean_extensions(8, bits, FAM))
    assert counter.value == clean == 668


def test_one_pool_per_search_and_no_worker_outlives_it(monkeypatch):
    pools = []

    def recording(jobs, *args):
        pools.append(jobs)
        return ProcessPoolExecutor(jobs, *args)

    monkeypatch.setattr(search, "ProcessPoolExecutor", recording)
    rep = run_search(FAM, 10, jobs=2)
    assert rep["verdict"] == {"kind": "empty-at-k", "k": 10}
    assert pools == [2]
    assert multiprocessing.active_children() == []
    assert run_search(FAM, 10, jobs=2, cap=100)["verdict"]["kind"] == "cap-exceeded"
    assert pools == [2, 2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "name, n", [("default", 9), ("r44", 7)] + [(name, 7) for name in ONE_SIDED]
)
def test_carried_generators_generate_the_automorphism_group(name, n):
    # every level of a search to n, its top level n included, and that top
    # level extends to the next level of a search to n + 1
    fam = FAMILIES.get(name) or ONE_SIDED[name]
    if name in FAMILIES:
        levels, longer = search_levels(name, n), search_levels(name, n + 1)
    else:
        levels, longer = feasible_levels(fam, n), feasible_levels(fam, n + 1)
    for level in levels:
        assert len(level.generators) == level.count
        for g, packed in zip(level.graphs, level.generators):
            carried = unpack(packed, g.n)
            assert all(permute(g, h) == g for h in carried)
            expected = group_closure(canonical_form(g).generators, g.n)
            assert group_closure(carried, g.n) == expected
    top, next_level = extend_level(levels[-1], fam), longer[n]
    assert top == next_level
    assert (top.kept, top.expanded) == (next_level.kept, next_level.expanded)
    assert top.generators == next_level.generators


def test_pooled_extend_level_matches_one_job(monkeypatch):
    # the public step at two jobs forks a pool of its own and joins it;
    # the level, its clean-mask count and its generators match one job
    pools = []

    def recording(jobs, *args):
        pools.append(jobs)
        return ProcessPoolExecutor(jobs, *args)

    monkeypatch.setattr(search, "ProcessPoolExecutor", recording)
    level = search_levels("default", 9)[6]  # level 7, 158 classes
    one, two = extend_level(level, FAM), extend_level(level, FAM, 2)
    assert pools == [2]
    assert multiprocessing.active_children() == []
    assert two == one and two.count == 242
    assert two.kept == one.kept and two.generators == one.generators
    with search.Workers(FAM, jobs=2) as workers:
        assert two.codes(workers) == two.codes()
    assert pools == [2, 2]
    assert multiprocessing.active_children() == []


def closure_misses(fam, codes) -> list[int]:
    """The lex-min codes of the clean children of level k's classes that
    are missing from level k+1, for each pair of consecutive levels in
    `codes`, the lex-min codes of levels 1, 2, ...  It shares no
    augmentation, orbit, generator, key or pool code with the search."""
    misses = []
    for k, (parents, children) in enumerate(itertools.pairwise(codes), 1):
        children, shift = set(children), pair_count(k)
        for code, masks in zip(parents, _clean_extensions(k, parents, fam)):
            for mask in masks.tolist():
                child = canonical_form(Graph(k + 1, code | mask << shift)).code
                if child not in children:
                    misses.append(child)
    return misses


@pytest.mark.parametrize("name, n", [("default", 10), ("r34", 9)])
def test_levels_are_closed_under_clean_extensions(name, n):
    # every clean child of every class of level k is a class of level k+1,
    # and the last level is empty: the emptiness verdict, checked without
    # trusting canonical augmentation
    fam = {"default": FAM, "r34": R34}[name]
    codes = [level.codes() for level in feasible_levels(fam, n)]
    assert len(codes) == n and codes[-1] == ()
    assert closure_misses(fam, codes) == []
    # a class dropped from level 8 shows up as missed children
    dropped = codes[7][len(codes[7]) // 2]
    codes[7] = tuple(code for code in codes[7] if code != dropped)
    misses = closure_misses(fam, codes)
    assert misses and set(misses) == {dropped}


# the lex-min codes of default levels 1-9 as graph6, by level, then code
DEFAULT_LEVELS = Path(__file__).parent / "data" / "default_levels.g6"
DEFAULT_LEVELS_SHA256 = "0b67729dec4de86c2e43e4f72e9c1a8ff0c1631c58a68abd100d0165c498e9e9"


def test_bundled_default_levels_certify_emptiness_at_10():
    # the claim's evidence as a reviewable file: it is the search's classes,
    # and closure from it alone leaves no clean coloring of K_10
    data = DEFAULT_LEVELS.read_bytes()
    assert hashlib.sha256(data).hexdigest() == DEFAULT_LEVELS_SHA256
    graphs = [Graph.from_graph6(line) for line in data.decode().splitlines()]
    assert len(graphs) == 582
    assert graphs == sorted(graphs, key=lambda g: (g.n, g.bits))
    codes = [tuple(g.bits for g in graphs if g.n == k) for k in range(1, 10)]
    assert sum(map(len, codes)) == len(graphs)
    searched = search_levels("default", 10)
    assert [level.codes() for level in searched[:9]] == codes
    assert closure_misses(FAM, codes + [()]) == []


@pytest.mark.parametrize("name, n, calls", [("default", 10, 631), ("r44", 8, 2952)])
def test_each_class_is_canonicalized_once(monkeypatch, name, n, calls):
    # one call per child that reaches the orbit test; none for a parent,
    # whose generators its level carries, level 1's included
    count = [0]

    def counting(g, keys=None):
        count[0] += 1
        return canonical_form(g, keys)

    monkeypatch.setattr(search, "canonical_form", counting)
    run_search(FAMILIES[name], n)
    assert count[0] == calls


def test_witness_embedding():
    rep = run_search(FAM, 4, witnesses=True)
    lines = rep["witnesses"]["graph6"]
    assert len(lines) == 9
    assert rep["witnesses"] == {"k": 4, "count": 9, "graph6": lines}
    assert lines == sorted(lines, key=lambda s: Graph.from_graph6(s).bits)
    assert all(Graph.from_graph6(s).n == 4 for s in lines)


def test_witnesses_fall_back_to_last_nonempty_level():
    rep = run_search(R34, 9, witnesses=True)
    assert rep["witnesses"]["k"] == 8
    assert rep["witnesses"]["count"] == 3


def test_survivor_cap():
    partial = run_search(FAM, 6, cap=10)
    assert partial["verdict"]["kind"] == "cap-exceeded"
    last = partial["levels"][-1]
    assert max(last["kept"], last["count"]) > 10  # kept counts every clean mask


def test_capped_search_computes_no_witnesses():
    report = run_search(FAM, 8, cap=10, witnesses=True)
    assert report["verdict"] == {"kind": "cap-exceeded", "k": 4}
    assert report["witnesses"] is None


def test_survivor_cap_stops_the_level_early(monkeypatch):
    # R(4,4) level 7 has 362 parents in blocks of 64: the capped step stops
    # at the parent whose clean masks take the count past the cap, and
    # filters at most one block past that parent
    filtered = []

    def counting(k, bits, fam):
        filtered.extend([k] * len(bits))  # one entry per parent filtered
        return _clean_extensions(k, bits, fam)

    monkeypatch.setattr(search, "_clean_extensions", counting)
    report = run_search(R44, 8, cap=5000)
    assert report["verdict"] == {"kind": "cap-exceeded", "k": 8}
    capped = filtered.count(7)
    last = report["levels"][-1]
    assert (last["k"], last["kept"], last["count"]) == (8, 5021, 676)
    bits = [g.bits for g in search_levels("r44", 7)[6].graphs]
    kept = np.cumsum([masks.size for masks in _clean_extensions(7, bits, R44)])
    passed = int(np.argmax(kept > 5000))  # the parent that passed the cap
    assert kept[passed] == last["kept"]
    block = search.BLOCK_CELLS >> 7
    assert (len(bits), block) == (362, 64)
    assert passed < capped <= passed + 1 + block < len(bits)


def test_run_search_validates_arguments():
    with pytest.raises(ValueError):
        run_search(FAM, 0)
    with pytest.raises(ValueError):
        run_search(FAM, 17)
    with pytest.raises(ValueError):
        run_search(FAM, 4, jobs=0)
    with pytest.raises(ValueError):
        run_search(FAM, 4, cap=0)


def test_workers_bound_jobs_before_any_pool(monkeypatch):
    # a fork pool starts all its workers at its first submit
    monkeypatch.setattr(search, "ProcessPoolExecutor", None)
    with pytest.raises(ValueError, match=f"1..{MAX_JOBS}"):
        search.Workers(FAM, jobs=MAX_JOBS + 1)
    with pytest.raises(ValueError):
        extend_level(FeasibleLevel(1, (Graph(1, 0),)), FAM, MAX_JOBS + 1)
    with pytest.raises(ValueError):
        run_search(FAM, 4, jobs=MAX_JOBS + 1)
    assert multiprocessing.active_children() == []


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
            empty = rep["verdict"]["kind"] == "empty-at-k"
            assert brute_force_check(fam, n) == empty


def test_feasible_level_validate_catches_corruption():
    f2 = extend_level(level_1(), FAM)
    bad_order = FeasibleLevel(2, tuple(reversed(f2.graphs)))
    with pytest.raises(AssertionError):
        validate_level(bad_order, FAM)
    forbidden_member = FeasibleLevel(4, (Graph.complete(4),))
    with pytest.raises(AssertionError):
        validate_level(forbidden_member, FAM)


def test_report_json_shapes():
    # the timing-free view holds exactly the fields the schema requires
    path = resources.files("champagne").joinpath("schemas", "search_report.schema.json")
    schema = json.loads(path.read_text(encoding="utf-8"))
    level_keys = set(schema["properties"]["levels"]["items"]["required"])
    flat = timing_free(run_search(FAM, 3, witnesses=True))
    assert set(flat) == set(schema["required"])
    assert all(set(level) == level_keys for level in flat["levels"])


def test_timing_free_leaves_its_input_unchanged():
    rep = run_search(FAM, 5, witnesses=True)
    before = copy.deepcopy(rep)
    flat = timing_free(rep)
    assert rep == before
    assert flat is not rep and flat["levels"] is not rep["levels"]


def test_timing_free_drops_exactly_jobs_and_seconds():
    for rep in (run_search(FAM, 5, jobs=2), run_search(R34, 9, witnesses=True)):
        flat = timing_free(rep)
        assert set(rep) - set(flat) == {"jobs"}
        assert all(flat[key] == rep[key] for key in flat if key != "levels")
        for level, full in zip(flat["levels"], rep["levels"], strict=True):
            assert set(full) - set(level) == {"seconds"}
            assert all(level[key] == full[key] for key in level)


def test_search_with_single_both_scope_pattern():
    # only K3 forbidden in both colors: level 6 must die (R(3,3) = 6),
    # and the 5-cycle is the lone survivor at 5 vertices
    fam = ForbiddenFamily([(Graph.complete(3), "both")])
    rep = run_search(fam, 9)
    assert rep["verdict"] == {"kind": "empty-at-k", "k": 6}
    assert [l["count"] for l in rep["levels"]] == [1, 2, 2, 3, 1, 0]
    levels = feasible_levels(fam, 9)
    assert [level.count for level in levels] == [1, 2, 2, 3, 1, 0]
    for level in levels[:5]:
        assert tuple(level.codes()) == brute_force_level_codes(fam, level.k)
    lone = levels[4].graphs[0]
    assert canonical_form(catalog.cycle_graph(5)).code == lone.bits
