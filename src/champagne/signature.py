"""Inertia of real symmetric matrices, exact and floating-point.

The exact route takes a `SymMatrix`, integer numerators over one common
denominator, and computes the characteristic polynomial of the numerator
matrix in integers: power sums tr(B^k) from the sparse powers
B^0..B^ceil(n/2), then Newton's identities with exact integer divisions.
A symmetric matrix has only real eigenvalues, so Descartes' sign-variation
count on the coefficients is not a bound but the exact number of positive
roots; with the multiplicity of the zero root read off the trailing zero
coefficients, that yields the full signature.  This avoids pivoting
entirely, which matters because the sign-pattern matrices verified here
have zero diagonals.

The floating route (`signature_of_array`, for the line geometry) takes
numpy's symmetric eigensolver (`eigvalsh`) on an ndarray normalized to unit
max-norm and counts eigenvalues within `FLOAT_TOL` of zero as zero.

On top of the exact route sit samplers and checkers for two sign-pattern
families: odd cyclic band matrices (positive on the +-1 mod n band, zero
elsewhere) whose determinant is 2 * prod of the band entries and whose
signature depends only on n mod 4, and 7x7 matrices positive exactly on
the edges of the catalog graph H7, which have negative determinant and
signature (4,3).  Samples, checks and both closed forms stay in integers;
`Fraction`s are built only for return values and problem messages.
Randomized sampling is evidence that the signature is constant on each
family, not a proof; reports carry a `method` field saying so.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import catalog
from .graphs import Graph

SAMPLE_DENOMINATOR = 1 << 16
FLOAT_TOL = 1e-9

H7_PATTERN = frozenset(catalog.H7.edges())
H7_SIGNATURE = (4, 0, 3)


class MatrixError(ValueError):
    pass


class PatternViolation(MatrixError):
    pass


class Signature(NamedTuple):
    n_plus: int
    n_zero: int
    n_minus: int


class SymMatrix:
    """Symmetric matrix of exact rationals: integer `numerators` over one
    positive common `denominator`, validated square and symmetric.

    `rows` hold ints or `Fraction`s, each entry read as divided by
    `denominator`; the lcm of any `Fraction` denominators is cleared once.
    """

    def __init__(self, rows, denominator: int = 1):
        rows = [list(row) for row in rows]
        self.n = n = len(rows)
        if any(len(r) != n for r in rows) or denominator < 1:
            raise MatrixError(f"entries are not {n}x{n} over a positive denominator")
        if not all(type(x) is int for row in rows for x in row):
            rows = [[Fraction(x) for x in row] for row in rows]
            scale = math.lcm(*(x.denominator for row in rows for x in row))
            rows = [[x.numerator * (scale // x.denominator) for x in r] for r in rows]
            denominator *= scale
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise MatrixError(f"not symmetric at ({i},{j})")
        self.numerators = tuple(map(tuple, rows))
        self.denominator = denominator

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(map(self.fraction, row)) for row in self.numerators)

    def fraction(self, x: int, degree: int = 1) -> Fraction:
        """x / denominator^degree, for a degree-homogeneous form of the numerators."""
        return Fraction(x, self.denominator**degree)

    @classmethod
    def adjacency(cls, g: Graph) -> "SymMatrix":
        rows = [[0] * g.n for _ in range(g.n)]
        for u, v in g.edges():
            rows[u][v] = rows[v][u] = 1
        return cls(rows)

    def check_pattern(self, pattern: frozenset) -> None:
        """Require strict positivity on the pattern's pairs (either order)
        and exact zero everywhere else, diagonal included."""
        for i in range(self.n):
            for j in range(i + 1):
                v = self.numerators[i][j]
                on = (j, i) in pattern or (i, j) in pattern
                if not (v > 0 if on else v == 0):
                    raise PatternViolation(
                        f"slot ({j},{i}) must be {'positive' if on else 'zero'}, "
                        f"got {self.fraction(v)}"
                    )

    def to_json_obj(self) -> dict:
        # "mode" is a required field of the signature report schema
        rows = [[f"{x.numerator}/{x.denominator}" for x in row] for row in self.entries]
        return {"mode": "exact", "entries": rows}


# -- exact route --------------------------------------------------------------


def charpoly_int(b: list[list[int]]) -> list[int]:
    """Coefficients c[0..n] of det(lambda*I - B), c[n] = 1, exact integers.

    B must be square and symmetric (else `MatrixError`): then the power sums
    tr(B^k) = <B^(k//2), B^(k-k//2)> need only B^0..B^ceil(n/2), each built
    row by row from B's nonzero entries, and Newton's identities turn them
    into the coefficients.
    """
    n = len(b)
    if any(len(row) != n for row in b):
        raise MatrixError(f"charpoly_int needs a square matrix, got {n} rows")
    nonzero = [[(t, x) for t, x in enumerate(row) if x] for row in b]
    if any(b[t][i] != x for i, row in enumerate(nonzero) for t, x in row):
        raise MatrixError("charpoly_int needs a symmetric matrix")
    flat = [[int(i == j) for i in range(n) for j in range(n)]]  # row-major
    for _ in range((n + 1) // 2):
        prev, power = flat[-1], []
        for row in nonzero:
            acc = [0] * n
            for t, x in row:
                acc = [a + x * y for a, y in zip(acc, prev[t * n : t * n + n])]
            power += acc
        flat.append(power)
    p, c = [0], [1]  # p[i] = tr(B^i); c[k] is the coefficient of lambda^(n-k)
    for k in range(1, n + 1):
        p.append(sum(map(operator.mul, flat[k // 2], flat[k - k // 2])))
        total = sum(c[k - i] * p[i] for i in range(1, k + 1))
        if total % k:
            raise MatrixError("non-integral characteristic coefficient")
        c.append(-(total // k))
    return c[::-1]


def _sign_variations(coeffs) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _exact_invariants(m: SymMatrix) -> tuple[int, Signature]:
    """det * denominator^n and the inertia, from one characteristic
    polynomial of the numerators.

    det(numerators) is (-1)^n times the constant coefficient.  All roots are
    real, so Descartes' count is exact; the positive common denominator
    leaves every eigenvalue sign unchanged.
    """
    if m.n == 0:
        return 1, Signature(0, 0, 0)
    coeffs = charpoly_int(m.numerators)
    det = (-1) ** m.n * coeffs[0]
    n_zero = 0
    while coeffs[n_zero] == 0:
        n_zero += 1
    reduced = coeffs[n_zero:]
    n_plus = _sign_variations(reduced)
    n_minus = _sign_variations(
        [c if i % 2 == 0 else -c for i, c in enumerate(reduced)]
    )
    if n_plus + n_minus != m.n - n_zero:
        raise MatrixError("sign variations inconsistent with real spectrum")
    return det, Signature(n_plus, n_zero, n_minus)


def signature_exact(m: SymMatrix) -> Signature:
    """Exact inertia from characteristic-coefficient sign variations."""
    return _exact_invariants(m)[1]


def det_exact(m: SymMatrix) -> Fraction:
    """Determinant via the characteristic polynomial's constant term."""
    return m.fraction(_exact_invariants(m)[0], m.n)


# -- floating route ------------------------------------------------------------


def signature_of_array(arr) -> Signature:
    """Inertia of a float symmetric array; |eigenvalue| <= FLOAT_TOL counts
    as zero.  The matrix is normalized to unit max-norm first, so the
    tolerance is relative to the largest entry."""
    arr = np.array(arr, dtype=float)
    n = arr.shape[0]
    if n == 0:
        return Signature(0, 0, 0)
    top = np.abs(arr).max()
    if top == 0.0:
        return Signature(0, n, 0)
    eig = np.linalg.eigvalsh(arr / top)
    n_plus = int((eig > FLOAT_TOL).sum())
    n_minus = int((eig < -FLOAT_TOL).sum())
    return Signature(n_plus, n - n_plus - n_minus, n_minus)


# -- sign-pattern families -----------------------------------------------------


def cycle_pattern(n: int) -> frozenset:
    return frozenset((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


def _pattern_sample(n: int, pairs, rng: random.Random) -> SymMatrix:
    # uniform on (0.1, 10) at granularity 1/SAMPLE_DENOMINATOR
    lo, hi = SAMPLE_DENOMINATOR // 10 + 1, SAMPLE_DENOMINATOR * 10 - 1
    rows = [[0] * n for _ in range(n)]
    for u, v in sorted(pairs):
        rows[u][v] = rows[v][u] = rng.randint(lo, hi)
    return SymMatrix(rows, SAMPLE_DENOMINATOR)


def cycle_pattern_sample(n: int, rng: random.Random) -> SymMatrix:
    """Random matrix positive exactly on the +-1 (mod n) band, n odd >= 3."""
    if n < 3 or n % 2 == 0:
        raise MatrixError("cycle pattern requires odd n >= 3")
    return _pattern_sample(n, cycle_pattern(n), rng)


def h7_pattern_sample(rng: random.Random) -> SymMatrix:
    """Random 7x7 matrix positive exactly on the edges of H7."""
    return _pattern_sample(7, H7_PATTERN, rng)


def expected_cycle_signature(n: int) -> tuple[int, int, int]:
    if n % 4 == 1:
        return ((n + 1) // 2, 0, (n - 1) // 2)
    if n % 4 == 3:
        return ((n - 1) // 2, 0, (n + 1) // 2)
    raise MatrixError("cycle signature formula applies to odd n only")


def _cycle_det(a) -> int:
    return 2 * math.prod(a[i][(i + 1) % len(a)] for i in range(len(a)))


def _h7_det(a) -> int:
    return -2 * a[0][3] * a[1][4] * a[2][5] * (
        a[0][1] * a[2][5] * a[3][6] * a[4][6]
        + a[0][2] * a[1][4] * a[3][6] * a[5][6]
        + a[0][3] * a[1][2] * a[4][6] * a[5][6]
    )


def cycle_det_formula(m: SymMatrix) -> Fraction:
    """2 * product of the band entries a_{i,i+1} (indices mod n)."""
    return m.fraction(_cycle_det(m.numerators), m.n)


def h7_det_formula(m: SymMatrix) -> Fraction:
    """Closed form of det for the H7 sign pattern (always negative)."""
    return m.fraction(_h7_det(m.numerators), m.n)


class PatternKind(NamedTuple):
    """One sign-pattern family, resolved from its kind name by `_parse_kind`:
    the size, the positive pairs, the closed-form determinant with its
    label and sign, and the signature every matrix of the family has.  The
    closed form is homogeneous of degree n in the entries, so on the
    numerators it gives det * denominator^n."""

    n: int
    pairs: frozenset
    det_formula: Callable[[tuple], int]
    det_label: str
    det_sign: int
    signature: tuple[int, int, int]


@lru_cache(maxsize=64)
def _parse_kind(kind: str) -> PatternKind:
    if kind == "h7":
        return PatternKind(7, H7_PATTERN, _h7_det, "closed formula", -1, H7_SIGNATURE)
    if kind.startswith("cycle(") and kind.endswith(")"):
        n = int(kind[6:-1])
        return PatternKind(
            n, cycle_pattern(n), _cycle_det, "band formula", 1,
            expected_cycle_signature(n),
        )
    raise MatrixError(f"unknown pattern kind {kind!r}; use 'cycle(N)' or 'h7'")


def check_sample(m: SymMatrix, kind: str) -> list[str]:
    """All violations of the kind's pattern, determinant identity, and
    expected signature for one sample matrix; empty when clean.  A sample
    of the wrong size fails with that one problem and nothing else."""
    spec = _parse_kind(kind)
    if m.n != spec.n:
        return [f"size {m.n} != {spec.n}"]
    problems = []
    try:
        m.check_pattern(spec.pairs)
    except PatternViolation as exc:
        problems.append(f"pattern: {exc}")
    det, sig = _exact_invariants(m)
    expected_det = spec.det_formula(m.numerators)
    if det != expected_det:
        problems.append(
            f"determinant {m.fraction(det, m.n)} != {spec.det_label} "
            f"{m.fraction(expected_det, m.n)}"
        )
    if not det * spec.det_sign > 0:
        sign = "positive" if spec.det_sign > 0 else "negative"
        problems.append(f"determinant {m.fraction(det, m.n)} not {sign}")
    if sig != spec.signature:
        problems.append(f"signature {tuple(sig)} != expected {spec.signature}")
    return problems


@dataclass
class PatternLemmaReport:
    kind: str
    trials: int
    seed: int
    expected_signature: tuple[int, int, int]
    method: str = "randomized-sampling (evidence, not a proof)"
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        obj["expected_signature"] = list(self.expected_signature)
        return {**obj, "passed": self.passed}


def verify_pattern_lemma(
    kind: str, trials: int, seed: int = 0, corrupt_slot=None
) -> PatternLemmaReport:
    """Sample `trials` matrices of the given sign pattern and check each for
    the determinant identity and the expected signature.

    Per-trial RNG streams derive from (seed, kind, trial index), so results
    are reproducible for any parallel execution order.  `corrupt_slot` is a
    self-test hook: it zeroes that slot in every sample, which the pattern
    check must flag.
    """
    if trials < 1:
        raise MatrixError("trials must be >= 1")
    spec = _parse_kind(kind)
    report = PatternLemmaReport(kind, trials, seed, spec.signature)
    for trial in range(trials):
        rng = random.Random(f"{seed}:{kind}:{trial}")
        m = (h7_pattern_sample(rng) if kind == "h7"
             else cycle_pattern_sample(spec.n, rng))
        if corrupt_slot is not None:
            rows = [list(r) for r in m.numerators]
            u, v = corrupt_slot
            rows[u][v] = rows[v][u] = 0
            m = SymMatrix(rows, m.denominator)
        problems = check_sample(m, kind)
        if problems:
            report.failures.append(
                {"trial": trial, "problems": problems, "matrix": m.to_json_obj()}
            )
    return report
