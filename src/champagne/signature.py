"""Inertia of real symmetric matrices, exact and floating-point.

The exact route takes a `SymMatrix`, integer numerators over one common
denominator, and eliminates the numerator matrix symmetrically in exact
integers, fraction-free as in Bareiss's method.  A nonzero diagonal entry
is a 1x1 pivot.  When the whole remaining diagonal is zero, as it is at the
start for the sign-pattern matrices verified here, a nonzero off-diagonal
entry s forms a 2x2 pivot [[0, s], [s, 0]] with one eigenvalue of each
sign.  By Sylvester's law of inertia the pivot signs give the signature, an
all-zero remainder gives the zero eigenvalues, and the last pivot minor is
the determinant.  `charpoly_int` (power sums, then Newton's identities) is
on no path of the program.

The floating route (`signature_of_array`, for the line geometry) takes
numpy's symmetric eigensolver (`eigvalsh`) on an ndarray normalized to unit
max-norm and counts eigenvalues within `FLOAT_TOL` of zero as zero.

On top of the exact route sit samplers and checkers for two sign-pattern
families: odd cyclic band matrices (positive on the +-1 mod n band, zero
elsewhere) whose determinant is 2 * prod of the band entries and whose
signature depends only on n mod 4, and 7x7 matrices positive exactly on
the edges of the catalog graph H7, which have negative determinant and
signature (4,3).  The four lemmas checked, cycle(5), cycle(7), cycle(9)
and h7, are the rows of `LEMMAS`.  Samples, checks and both closed forms
stay in integers; `Fraction`s are built only for return values and problem
messages.  Randomized sampling is evidence that the signature is constant
on each family, not a proof; each lemma report carries a `method` field
saying so.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
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

    def check_pattern(self, pattern: frozenset) -> str | None:
        """The first slot that breaks strict positivity on the pattern's
        pairs (either order) or exact zero everywhere else, diagonal
        included, as a message; None when every slot keeps the pattern."""
        for i in range(self.n):
            for j in range(i + 1):
                v = self.numerators[i][j]
                on = (j, i) in pattern or (i, j) in pattern
                if not (v > 0 if on else v == 0):
                    return (
                        f"slot ({j},{i}) must be {'positive' if on else 'zero'}, "
                        f"got {self.fraction(v)}"
                    )
        return None

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


def _quotients(rows) -> list[tuple[int, ...]]:
    """Rows of quotients from rows of `divmod` pairs; `MatrixError` on a remainder."""
    rows = [tuple(zip(*row)) for row in rows]
    if any(any(remainders) for _, remainders in rows):
        raise MatrixError("inexact division in symmetric elimination")
    return [quotients for quotients, _ in rows]


def _exact_invariants(m: SymMatrix) -> tuple[int, Signature]:
    """det * denominator^n and the inertia, by fraction-free symmetric
    elimination on the numerators B (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968).  With the index set S pivoted, `a` is the remaining block, with
    entries det B[S+u, S+v], and `prev` is det B[S, S] (1 while S is empty),
    so by Sylvester's identity every division is exact; each is checked.

    - 1x1 step on the first nonzero diagonal entry p = a_jj, whose pivot
      p/prev gives one eigenvalue sign: a'_uv = (p*a_uv - a_uj*a_jv) / prev
      and prev = p.
    - 2x2 step (Bunch & Parlett, 1971) when the diagonal is all zero, on the
      first nonzero s = a_ij, one eigenvalue of each sign:
      a'_uv = s*(a_uj*a_iv + a_ui*a_jv - s*a_uv) / prev^2 and prev = -s^2/prev.

    An all-zero block left over is the kernel (n_zero its size, det 0);
    otherwise det is the last prev.  By Sylvester's law of inertia the pivot
    signs are the signature; the positive denominator keeps them.
    """
    a, prev, n_plus, n_minus = m.numerators, 1, 0, 0
    while a:
        size = range(len(a))
        j = next((k for k in size if a[k][k]), None)
        if j is not None:
            p, pj, keep = a[j][j], a[j], [k for k in size if k != j]
            a = _quotients(
                [divmod(p * row[v] - row[j] * pj[v], prev) for v in keep]
                for row in map(a.__getitem__, keep)
            )
            if (p > 0) == (prev > 0):
                n_plus += 1
            else:
                n_minus += 1
            prev = p
        else:
            i, j = next(((u, v) for u in size for v in size if a[u][v]), (0, 0))
            s, pi, pj, keep = a[i][j], a[i], a[j], [k for k in size if k not in (i, j)]
            if not s:
                return 0, Signature(n_plus, len(a), n_minus)
            square = prev * prev
            a = _quotients(
                [divmod(s * (row[j] * pi[v] + row[i] * pj[v] - s * row[v]), square)
                 for v in keep]
                for row in map(a.__getitem__, keep)
            )
            prev = _quotients([[divmod(-s * s, prev)]])[0][0]
            n_plus, n_minus = n_plus + 1, n_minus + 1
    return prev, Signature(n_plus, 0, n_minus)


def signature_exact(m: SymMatrix) -> Signature:
    """Exact inertia by fraction-free symmetric elimination."""
    return _exact_invariants(m)[1]


def det_exact(m: SymMatrix) -> Fraction:
    """Exact determinant by fraction-free symmetric elimination."""
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


class PatternKind(NamedTuple):
    """One sign-pattern family, a row of `LEMMAS`: the size, the positive
    pairs, the sampler, the closed-form determinant with its label and
    sign, and the signature every matrix of the family has.  The closed
    form is homogeneous of degree n in the entries, so on the numerators it
    gives det * denominator^n."""

    n: int
    pairs: frozenset
    sample: Callable[[random.Random], SymMatrix]
    det_formula: Callable[[tuple], int]
    det_label: str
    det_sign: int
    signature: tuple[int, int, int]


# each sampler calls the public one through its module name, which
# perfbench's tracer wraps
LEMMAS = {
    **{
        f"cycle({n})": PatternKind(
            n, cycle_pattern(n), lambda rng, n=n: cycle_pattern_sample(n, rng),
            _cycle_det, "band formula", 1, expected_cycle_signature(n),
        )
        for n in (5, 7, 9)
    },
    "h7": PatternKind(
        7, H7_PATTERN, lambda rng: h7_pattern_sample(rng), _h7_det,
        "closed formula", -1, H7_SIGNATURE,
    ),
}


def _lemma(kind: str) -> PatternKind:
    if kind not in LEMMAS:
        raise MatrixError(f"unknown pattern kind {kind!r}; use one of {', '.join(LEMMAS)}")
    return LEMMAS[kind]


def check_sample(m: SymMatrix, kind: str) -> list[str]:
    """All violations of the kind's pattern, determinant identity, and
    expected signature for one sample matrix; empty when clean.  A sample
    of the wrong size fails with that one problem and nothing else."""
    spec = _lemma(kind)
    if m.n != spec.n:
        return [f"size {m.n} != {spec.n}"]
    violation = m.check_pattern(spec.pairs)
    problems = [f"pattern: {violation}"] if violation else []
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


def verify_pattern_lemma(
    kind: str, trials: int, seed: int = 0, corrupt: bool = False
) -> dict:
    """Sample `trials` matrices of the given sign pattern and check each for
    the determinant identity and the expected signature; the report is the
    JSON object `verify-signatures` writes for the kind.

    Per-trial RNG streams derive from (seed, kind, trial index), so results
    are reproducible for any parallel execution order.  `corrupt` is a
    self-test hook: it zeroes slot (0, 1) in every sample, which the pattern
    check must flag.
    """
    if trials < 1:
        raise MatrixError("trials must be >= 1")
    spec = _lemma(kind)
    failures = []
    for trial in range(trials):
        m = spec.sample(random.Random(f"{seed}:{kind}:{trial}"))
        if corrupt:
            rows = [list(r) for r in m.numerators]
            rows[0][1] = rows[1][0] = 0
            m = SymMatrix(rows, m.denominator)
        problems = check_sample(m, kind)
        if problems:
            failures.append(
                {"trial": trial, "problems": problems, "matrix": m.to_json_obj()}
            )
    return {
        "kind": kind,
        "trials": trials,
        "seed": seed,
        "expected_signature": list(spec.signature),
        "method": "randomized-sampling (evidence, not a proof)",
        "failures": failures,
        "passed": not failures,
    }
