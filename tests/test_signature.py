"""Exact and floating inertia, and the sign-pattern family checks."""

import json
from fractions import Fraction

import numpy as np
import pytest

from champagne import catalog, signature
from champagne.signature import (
    H7_SIGNATURE,
    MatrixError,
    PatternViolation,
    SymMatrix,
    charpoly_int,
    check_sample,
    cycle_det_formula,
    cycle_pattern_sample,
    det_exact,
    expected_cycle_signature,
    h7_det_formula,
    h7_pattern_sample,
    signature_exact,
    signature_of_array,
    verify_pattern_lemma,
    _integer_scaled,
)
from oracles import charpoly_faddeev, cycle_eigenvalues, det_bareiss


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
        rows, _ = _integer_scaled(SymMatrix.adjacency(g))
        assert charpoly_int(rows) == charpoly_faddeev(rows), name


@pytest.mark.parametrize("kind", ["cycle(5)", "cycle(7)", "cycle(9)", "h7"])
def test_exact_route_matches_oracles_on_lemma_samples(kind, monkeypatch):
    samples = []
    checked = signature.check_sample

    def recorded(m, kind):
        samples.append(m)
        return checked(m, kind)

    monkeypatch.setattr(signature, "check_sample", recorded)
    assert verify_pattern_lemma(kind, trials=250, seed=0).passed
    assert len(samples) == 250
    for m in samples:
        rows, _ = _integer_scaled(m)
        assert charpoly_int(rows) == charpoly_faddeev(rows)
        assert det_exact(m) == det_bareiss(m)


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


def test_det_charpoly_equals_bareiss(rng):
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
    assert cycle_det_formula(m) == 2
    assert det_exact(m) == 2


def test_all_ones_h7_sample_is_adjacency():
    adj = SymMatrix.adjacency(catalog.get("H7"))
    assert h7_det_formula(adj) == det_exact(adj)
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
    assert det_exact(m) == cycle_det_formula(m) > 0


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
    assert det_exact(m) == h7_det_formula(m) < 0
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
    assert report.passed
    assert report.expected_signature == expected
    assert "evidence" in report.method


def test_verify_pattern_lemma_is_reproducible():
    a = verify_pattern_lemma("cycle(5)", trials=10, seed=3).to_json_obj()
    b = verify_pattern_lemma("cycle(5)", trials=10, seed=3).to_json_obj()
    assert a == b


def test_verify_pattern_lemma_flags_corruption():
    report = verify_pattern_lemma("cycle(5)", trials=2, seed=0, corrupt_slot=(0, 1))
    assert not report.passed
    assert len(report.failures) == 2
    assert any("pattern" in p for p in report.failures[0]["problems"])


def test_verify_pattern_lemma_rejects_bad_input():
    with pytest.raises(MatrixError):
        verify_pattern_lemma("cycle(5)", trials=0)
    with pytest.raises(MatrixError):
        verify_pattern_lemma("pentagon", trials=1)


def test_check_sample_accepts_valid_h7(rng):
    assert check_sample(h7_pattern_sample(rng), "h7") == []


def test_check_sample_takes_one_characteristic_polynomial(rng, monkeypatch):
    calls = []

    def counted(b):
        calls.append(len(b))
        return charpoly_int(b)

    monkeypatch.setattr(signature, "charpoly_int", counted)
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
    SymMatrix([[0, 2], [2, 0]]).check_pattern(pattern)
    with pytest.raises(PatternViolation):
        SymMatrix([[0, 0], [0, 0]]).check_pattern(pattern)
    with pytest.raises(PatternViolation):
        SymMatrix([[1, 2], [2, 0]]).check_pattern(pattern)


def test_matrix_json_round_trip(rng):
    m = cycle_pattern_sample(5, rng)
    obj = m.to_json_obj()
    assert obj["mode"] == "exact"
    assert all("/" in cell for row in obj["entries"] for cell in row)
    rows = json.loads(json.dumps(obj))["entries"]
    again = SymMatrix([[Fraction(cell) for cell in row] for row in rows])
    assert again.entries == m.entries
