"""Exact and floating inertia, and the sign-pattern family checks."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from champagne import catalog, cli, signature
from champagne.jsonout import dumps
from champagne.signature import (
    H7_SIGNATURE,
    LEMMAS,
    SAMPLE_DENOMINATOR,
    MatrixError,
    SymMatrix,
    charpoly_int,
    check_sample,
    cycle_pattern_sample,
    det_exact,
    expected_cycle_signature,
    h7_pattern_sample,
    signature_exact,
    signature_of_array,
    verify_pattern_lemma,
)
from oracles import (_signature_by_faddeev, charpoly_faddeev, check_sample_by_fractions,
                     cycle_eigenvalues, det_bareiss)

KINDS = list(LEMMAS)


def kind_size(kind):
    return LEMMAS[kind].n


def draw(kind, rng):
    """One sample of the kind's sign pattern, as `verify_pattern_lemma` draws it."""
    return LEMMAS[kind].sample(rng)


def symmetric_int_matrix(rng, n, lo=-5, hi=5):
    rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[j][i] = rows[i][j]
    return rows


def test_charpoly_known_values():
    assert charpoly_int([[2]]) == [-2, 1]
    # det(lambda I - [[0,1],[1,0]]) = lambda^2 - 1
    assert charpoly_int([[0, 1], [1, 0]]) == [-1, 0, 1]
    assert charpoly_int([[1, 0], [0, 1]]) == [1, -2, 1]


def test_charpoly_rejects_non_symmetric_input():
    # [[0, 2], [0, 0]] has integral power-sum coefficients, so only the
    # symmetry check can refuse it
    for rows in ([[0, 1], [0, 0]], [[0, 2], [0, 0]]):
        with pytest.raises(MatrixError, match="symmetric"):
            charpoly_int(rows)
    for rows in ([[1, 2], [3]], [[1, 2]]):
        with pytest.raises(MatrixError, match="square"):
            charpoly_int(rows)


def test_charpoly_matches_faddeev_on_random_matrices(rng):
    for _ in range(1000):
        n = rng.randint(0, 10)
        bound = rng.choice((1, 5, 1 << 20))
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                if rng.random() < density:
                    rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
        assert charpoly_int(rows) == charpoly_faddeev(rows), rows


def test_charpoly_matches_faddeev_on_catalog():
    for name, g in catalog.CATALOG.items():
        m = SymMatrix.adjacency(g)
        assert m.denominator == 1
        assert charpoly_int(m.numerators) == charpoly_faddeev(m.numerators), name


def recorded_samples(kind, monkeypatch, **kwargs):
    """The (sample, problems) pairs `verify_pattern_lemma` checks."""
    seen = []
    checked = signature.check_sample

    def recorded(m, kind):
        problems = checked(m, kind)
        seen.append((m, problems))
        return problems

    monkeypatch.setattr(signature, "check_sample", recorded)
    verify_pattern_lemma(kind, **kwargs)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("kind", KINDS)
def test_exact_route_matches_oracles_on_lemma_samples(kind, monkeypatch):
    seen = recorded_samples(kind, monkeypatch, trials=250, seed=0)
    assert len(seen) == 250
    for m, problems in seen:
        assert problems == []
        assert charpoly_int(m.numerators) == charpoly_faddeev(m.numerators)
        assert det_exact(m) == det_bareiss(m)


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupt"])
@pytest.mark.parametrize("kind", KINDS)
def test_check_sample_matches_fraction_oracle_on_lemma_samples(
    kind, corrupt, monkeypatch
):
    seen = recorded_samples(kind, monkeypatch, trials=40, seed=0, corrupt=corrupt)
    assert len(seen) == 40
    for m, problems in seen:
        expected, det, sig = check_sample_by_fractions(m, kind)
        assert problems == expected
        assert (det_exact(m), signature_exact(m)) == (det, sig)
        assert bool(problems) == corrupt


def rational_symmetric(rng, kind):
    """Rows of Fractions with mixed denominators for a matrix of `kind`'s
    size: half the time random entries (about half of them zero), half the
    time a true sample with one or two slots overwritten, so that the
    closed-form and sign problems show too."""
    n = kind_size(kind)
    if rng.random() < 0.5:
        rows = [[Fraction(0)] * n for _ in range(n)]
        slots, top, denominators = n * (n + 1) // 4, 40, (1, 2, 3, 7, 12, 1 << 16)
    else:
        rows = [list(r) for r in draw(kind, rng).entries]
        slots, top, denominators = rng.randint(1, 2), 3, (1, 7)
    for _ in range(slots):
        u, v = rng.randrange(n), rng.randrange(n)
        x = Fraction(rng.randint(-top, top), rng.choice(denominators))
        rows[u][v] = rows[v][u] = x
    return rows


def test_check_sample_matches_fraction_oracle_on_rational_matrices(rng):
    for _ in range(700):
        kind = rng.choice(KINDS)
        rows = rational_symmetric(rng, kind)
        m = SymMatrix(rows)
        assert m.entries == tuple(map(tuple, rows))
        expected, det, sig = check_sample_by_fractions(m, kind)
        assert check_sample(m, kind) == expected
        assert (det_exact(m), signature_exact(m)) == (det, sig)


@pytest.mark.parametrize("kind", KINDS)
def test_check_sample_reports_a_size_mismatch_alone(kind, rng):
    for n in (5, 7, 9):
        if n == kind_size(kind):
            continue
        m = cycle_pattern_sample(n, rng)
        assert check_sample(m, kind) == [f"size {n} != {kind_size(kind)}"]
        assert check_sample_by_fractions(m, kind)[0] == check_sample(m, kind)


# The first seed-0 sample of each kind, numerators in sorted pair order.  A
# passing report holds no matrix, so a drift in the draws shows here first.
FIRST_SAMPLES = {
    "cycle(5)": [419876, 412275, 101319, 188532, 361579],
    "cycle(7)": [651322, 493468, 137060, 108941, 587748, 330124, 619629],
    "cycle(9)": [
        382693, 590777, 75612, 92543, 544694, 68008, 445049, 303483, 59440,
    ],
    "h7": [32018, 148645, 255621, 495715, 560031, 399192, 176666, 463279, 554594],
}


@pytest.mark.parametrize("kind", KINDS)
def test_first_seed_zero_sample_is_pinned(kind):
    m = draw(kind, random.Random(f"0:{kind}:0"))
    assert m.denominator == SAMPLE_DENOMINATOR
    graph = catalog.H7 if kind == "h7" else catalog.cycle_graph(kind_size(kind))
    pairs = sorted(tuple(sorted(p)) for p in graph.edges())
    assert [m.numerators[u][v] for u, v in pairs] == FIRST_SAMPLES[kind]
    assert check_sample(m, kind) == []


def test_passing_check_sample_builds_no_fraction(monkeypatch):
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(signature, "Fraction", CountingFraction)
    for kind in KINDS:
        for trial in range(5):
            m = draw(kind, random.Random(f"0:{kind}:{trial}"))
            assert check_sample(m, kind) == []
    assert built == []
    # the counter does count: a failing sample builds its message Fractions
    assert check_sample(SymMatrix([[0] * 5 for _ in range(5)]), "cycle(5)")
    assert built


def as_array(m: SymMatrix) -> np.ndarray:
    return np.array(m.entries, dtype=float)


def test_signature_exact_examples():
    assert signature_exact(SymMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (3, 0, 0)
    assert signature_exact(SymMatrix.adjacency(catalog.get("C5"))) == (3, 0, 2)
    assert signature_exact(SymMatrix.adjacency(catalog.get("H7"))) == (4, 0, 3)
    assert signature_exact(SymMatrix([[0] * 4 for _ in range(4)])) == (0, 4, 0)


def test_signature_float_examples():
    c7 = as_array(SymMatrix.adjacency(catalog.get("C7")))
    assert signature_of_array(c7) == (3, 0, 4)
    assert signature_of_array(np.zeros((5, 5))) == (0, 5, 0)
    assert signature_of_array(np.diag([1.0, -1.0])) == (1, 0, 1)


def test_exact_and_float_signatures_agree(rng):
    for _ in range(1000):
        n = rng.randint(1, 10)
        rows = symmetric_int_matrix(rng, n)
        exact = signature_exact(SymMatrix(rows))
        woolly = signature_of_array(np.array(rows, dtype=float))
        assert exact == woolly


def test_signature_invariant_under_congruence(rng):
    for _ in range(300):
        n = rng.randint(1, 7)
        m = SymMatrix(symmetric_int_matrix(rng, n, -4, 4))
        p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                factor = Fraction(rng.randint(-2, 2))
                for col in range(n):
                    p[i][col] += factor * p[j][col]
        mp = [[sum(m.entries[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        ptmp = [[sum(p[k][i] * mp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert signature_exact(SymMatrix(ptmp)) == signature_exact(m)


def test_det_exact_equals_bareiss_on_rational_matrices(rng):
    for _ in range(1000):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n)]
            for _ in range(n)
        ]
        for i in range(n):
            for j in range(i):
                rows[j][i] = rows[i][j]
        m = SymMatrix(rows)
        assert det_exact(m) == det_bareiss(m)


def test_det_of_singular_matrix():
    m = SymMatrix([[1, 1], [1, 1]])
    assert det_exact(m) == 0
    assert det_bareiss(m) == 0
    assert signature_exact(m) == (1, 1, 0)


def assert_elimination_matches_oracles(rows):
    m = SymMatrix(rows)
    got = det_exact(m), signature_exact(m)
    assert got == (det_bareiss(m), _signature_by_faddeev(m.entries)), rows


@pytest.mark.parametrize("zero_diagonal", [False, True], ids=["diagonal", "zero-diagonal"])
def test_elimination_matches_oracles_on_random_matrices(rng, zero_diagonal):
    # a zero diagonal makes the first step a 2x2 pivot
    for _ in range(1000):
        n = rng.randint(0, 10)
        bound = rng.choice((1, 5, 1 << 20))
        density = rng.choice((0.2, 0.5, 1.0))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i if zero_diagonal else i + 1):
                if rng.random() < density:
                    rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
        assert_elimination_matches_oracles(rows)


def test_elimination_matches_oracles_on_shuffled_direct_sums(rng):
    """Nonzero 1x1 blocks other than +-1, [[0, s], [s, 0]] blocks and zero
    blocks, summed and shuffled by one symmetric permutation: 2x2 steps come
    after 1x1 steps have left a pivot minor other than +-1, and the zero
    blocks leave an all-zero remainder."""
    for _ in range(1000):
        entries = []  # (row, column, value) of the upper triangle
        n = 0
        for _ in range(rng.randint(1, 5)):
            x = rng.choice((-1, 1)) * rng.randint(2, 1 << 20)
            shape = rng.choice(("1x1", "2x2", "zero"))
            if shape == "1x1":
                entries.append((n, n, x))
                n += 1
            elif shape == "2x2":
                entries.append((n, n + 1, x))
                n += 2
            else:
                n += rng.randint(1, 2)
        order = list(range(n))
        rng.shuffle(order)
        rows = [[0] * n for _ in range(n)]
        for u, v, x in entries:
            rows[order[u]][order[v]] = rows[order[v]][order[u]] = x
        assert_elimination_matches_oracles(rows)


# -- floating route ------------------------------------------------------------


def test_cycle_eigenvalues_closed_form():
    assert sorted(cycle_eigenvalues(3)) == pytest.approx([-1.0, -1.0, 2.0])
    for n in (3, 5, 7, 9):
        adj = as_array(SymMatrix.adjacency(catalog.cycle_graph(n)))
        assert np.allclose(
            cycle_eigenvalues(n), np.linalg.eigvalsh(adj), atol=1e-12
        )
        assert abs(sum(cycle_eigenvalues(n))) < 1e-9
    with pytest.raises(MatrixError):
        cycle_eigenvalues(2)


# -- sign-pattern families ------------------------------------------------------


def test_all_ones_cycle_sample_is_adjacency():
    m = SymMatrix(
        [[1 if (i - j) % 5 in (1, 4) else 0 for j in range(5)] for i in range(5)]
    )
    assert m.entries == SymMatrix.adjacency(catalog.get("C5")).entries
    assert check_sample(m, "cycle(5)") == []
    assert det_exact(m) == 2


def test_all_ones_h7_sample_is_adjacency():
    adj = SymMatrix.adjacency(catalog.get("H7"))
    assert check_sample(adj, "h7") == []
    assert det_exact(adj) < 0


def test_cycle_pattern_sample_structure(rng):
    m = cycle_pattern_sample(9, rng)
    for i in range(9):
        for j in range(9):
            v = m.entries[i][j]
            if (i - j) % 9 in (1, 8):
                assert v > 0
                assert Fraction(1, 10) < v < 10
                assert v.denominator <= 1 << 16
            else:
                assert v == 0
    assert signature_exact(m) == (5, 0, 4)
    assert check_sample(m, "cycle(9)") == []
    assert det_exact(m) > 0


def test_cycle_pattern_sample_rejects_bad_n(rng):
    for n in (1, 2, 4, 6):
        with pytest.raises(MatrixError):
            cycle_pattern_sample(n, rng)


def test_h7_pattern_sample_structure(rng):
    m = h7_pattern_sample(rng)
    edges = {tuple(sorted(e)) for e in catalog.H7.edges()}
    for i in range(7):
        for j in range(i):
            assert (m.entries[i][j] > 0) == ((j, i) in edges)
    assert check_sample(m, "h7") == []
    assert det_exact(m) < 0
    assert signature_exact(m) == (4, 0, 3)


def test_expected_cycle_signature_formula():
    assert expected_cycle_signature(5) == (3, 0, 2)
    assert expected_cycle_signature(7) == (3, 0, 4)
    assert expected_cycle_signature(9) == (5, 0, 4)
    with pytest.raises(MatrixError):
        expected_cycle_signature(6)


@pytest.mark.parametrize(
    "kind,expected",
    [
        ("cycle(5)", (3, 0, 2)),
        ("cycle(7)", (3, 0, 4)),
        ("cycle(9)", (5, 0, 4)),
        ("h7", H7_SIGNATURE),
    ],
)
def test_verify_pattern_lemma_small_runs(kind, expected):
    report = verify_pattern_lemma(kind, trials=40, seed=7)
    assert report["passed"]
    assert report["expected_signature"] == list(expected)
    assert "evidence" in report["method"]


def test_verify_pattern_lemma_is_reproducible():
    a = verify_pattern_lemma("cycle(5)", trials=10, seed=3)
    b = verify_pattern_lemma("cycle(5)", trials=10, seed=3)
    assert a == b


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupt"])
def test_verify_pattern_lemma_is_the_cli_lemma_field(corrupt, tmp_path):
    out = tmp_path / "sig.json"
    argv = ["verify-signatures", "--trials", "3", "--seed", "1", "--out", str(out)]
    assert cli.main(argv + ["--selftest-corrupt"] * corrupt) == int(corrupt)
    lemmas = json.loads(out.read_text())["lemmas"]
    assert len(lemmas) == len(LEMMAS)
    for kind, lemma in zip(LEMMAS, lemmas):
        report = verify_pattern_lemma(kind, 3, 1, corrupt=corrupt)
        assert json.loads(dumps(report)) == lemma


def test_verify_pattern_lemma_flags_corruption():
    report = verify_pattern_lemma("cycle(5)", trials=2, seed=0, corrupt=True)
    assert not report["passed"]
    assert len(report["failures"]) == 2
    assert any("pattern" in p for p in report["failures"][0]["problems"])


def test_verify_pattern_lemma_rejects_bad_input(rng):
    with pytest.raises(MatrixError):
        verify_pattern_lemma("cycle(5)", trials=0)
    # only the four table kinds, spelled exactly, are accepted
    m = cycle_pattern_sample(5, rng)
    named = r"use one of cycle\(5\), cycle\(7\), cycle\(9\), h7"
    for kind in ("pentagon", "cycle(x)", "cycle( 5)", "cycle(11)", "cycle(0)", ""):
        with pytest.raises(MatrixError, match=named):
            check_sample(m, kind)
        with pytest.raises(MatrixError, match=named):
            verify_pattern_lemma(kind, trials=1)


def test_check_sample_accepts_valid_h7(rng):
    assert check_sample(h7_pattern_sample(rng), "h7") == []


def test_check_sample_takes_one_elimination(rng, monkeypatch):
    calls = []
    eliminate = signature._exact_invariants

    def counted(m):
        calls.append(m.n)
        return eliminate(m)

    monkeypatch.setattr(signature, "_exact_invariants", counted)
    for kind, sample in (
        ("h7", h7_pattern_sample(rng)),
        ("cycle(7)", cycle_pattern_sample(7, rng)),
    ):
        calls.clear()
        assert check_sample(sample, kind) == []
        assert calls == [sample.n]


# -- SymMatrix plumbing ---------------------------------------------------------


def test_symmetry_is_validated():
    with pytest.raises(MatrixError):
        SymMatrix([[0, 1], [2, 0]])
    with pytest.raises(MatrixError):
        SymMatrix([[0, 1]])


def test_check_pattern():
    pattern = {(0, 1)}
    assert SymMatrix([[0, 2], [2, 0]]).check_pattern(pattern) is None
    assert SymMatrix([[0, 0], [0, 0]]).check_pattern(pattern) == (
        "slot (0,1) must be positive, got 0"
    )
    assert SymMatrix([[1, 2], [2, 0]]).check_pattern(pattern) == (
        "slot (0,0) must be zero, got 1"
    )
    assert SymMatrix([[0, 1], [1, 0]], 4).check_pattern({(1, 0)}) is None


def test_matrix_json_round_trip(rng):
    m = cycle_pattern_sample(5, rng)
    obj = m.to_json_obj()
    assert obj["mode"] == "exact"
    assert all("/" in cell for row in obj["entries"] for cell in row)
    rows = json.loads(json.dumps(obj))["entries"]
    again = SymMatrix([[Fraction(cell) for cell in row] for row in rows])
    assert again.entries == m.entries


def test_fraction_rows_are_cleared_to_one_denominator():
    m = SymMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 0]])
    assert (m.numerators, m.denominator) == (((3, 2), (2, 0)), 6)
    m = SymMatrix([[Fraction(1, 2), 1], [1, 0]], 3)
    assert (m.numerators, m.denominator) == (((1, 2), (2, 0)), 6)
    assert m.entries == ((Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 3), 0))
    assert SymMatrix([[2, 4], [4, 6]], 8).to_json_obj()["entries"] == [
        ["1/4", "1/2"], ["1/2", "3/4"],
    ]
    for denominator in (0, -1):
        with pytest.raises(MatrixError):
            SymMatrix([[1]], denominator)
