"""Lines in R^d: distances, chirality, and realization checks.

A configuration of n directed lines y_i + R x_i is two n x d arrays, the
bases y_i and the unit directions x_i, validated together.  The distance
between two non-parallel lines is the norm of the base offset projected
onto the orthogonal complement of the two directions (the common
perpendicular); for parallel lines it is the point-to-line distance.

In R^3 two non-coplanar directed lines have a chirality in {+1, -1}: the
sign of <x_a cross x_b, y_a - y_b>.  A configuration of pairwise
unit-distance, pairwise non-parallel lines induces a graph with an edge
where the chirality is +1, and a symmetric matrix a_vw =
<x_v cross x_w, y_v - y_w> whose realizability constraints
(zero diagonal and only there, sign pattern = the graph, at most 3
negative eigenvalues, |a| of signature (1, n-1)) are checked numerically
here.  The matrix is a Gram matrix of the 6-vectors (y_v cross x_v, x_v)
under the split form of signature (3,3), which is where the eigenvalue
bound comes from.  Each pair is measured and judged once, in `config_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .jsonout import load
from .signature import signature_of_array

UNIT_TOL = 1e-12  # direction vectors must be unit to this tolerance
PARALLEL_TOL = 1e-12  # sine of angle below which lines count as parallel
DEGENERATE_TOL = 1e-12  # |<x cross x', dy>| below which chirality is refused
DISTANCE_TOL = 1e-9  # default tolerance for unit-distance validation


class GeometryError(ValueError):
    pass


class DegeneratePairError(GeometryError):
    pass


class InvalidConfigError(GeometryError):
    pass


_NUMBER_TYPES = frozenset((int, float))  # JSON numbers; bool is not one


@dataclass(frozen=True, eq=False)
class LineConfig:
    """Line i is bases[i] + R * directions[i]; both arrays are n x dim."""

    dim: int
    bases: np.ndarray
    directions: np.ndarray
    tolerance: float = DISTANCE_TOL

    def __post_init__(self):
        if self.dim < 2:
            raise GeometryError(f"lines live in dimension >= 2, got {self.dim}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise GeometryError(
                f"tolerance must be finite and positive, got {self.tolerance}"
            )
        bases = np.asarray(self.bases, dtype=float)
        directions = np.asarray(self.directions, dtype=float)
        if bases.shape[1:] != (self.dim,) or directions.shape != bases.shape:
            raise GeometryError(f"bases and directions must be n x {self.dim} arrays")
        if not (np.isfinite(bases).all() and np.isfinite(directions).all()):
            raise GeometryError("base and direction must be finite")
        with np.errstate(over="ignore"):  # a huge direction's norm is inf
            norms = np.linalg.norm(directions, axis=1)
        off = np.abs(norms - 1.0) > UNIT_TOL
        if off.any():
            norm = norms[off][0]
            raise GeometryError(f"direction norm {norm} not unit within {UNIT_TOL}")
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "directions", directions)

    def __len__(self) -> int:
        return len(self.bases)

    def reverse_line(self, index: int) -> "LineConfig":
        directions = self.directions.copy()
        directions[index] = -directions[index]
        return LineConfig(self.dim, self.bases, directions, self.tolerance)

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "tolerance": self.tolerance,
            "lines": [
                {"base": y, "dir": x}
                for y, x in zip(self.bases.tolist(), self.directions.tolist())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LineConfig":
        if not isinstance(obj, dict) or "dim" not in obj or "lines" not in obj:
            raise GeometryError("config JSON needs 'dim' and 'lines'")
        dim, lines = obj["dim"], obj["lines"]
        tolerance = obj.get("tolerance", DISTANCE_TOL)
        if not (
            type(dim) is int and dim >= 2
            and isinstance(lines, list)
            and type(tolerance) in _NUMBER_TYPES
        ):
            raise GeometryError(
                "config 'dim' must be an integer >= 2, 'lines' a list, "
                "'tolerance' a number"
            )
        for line in lines:
            if not isinstance(line, dict) or not all(
                isinstance(line.get(key), list)
                and _NUMBER_TYPES.issuperset(map(type, line[key]))
                for key in ("base", "dir")
            ):
                raise GeometryError("line JSON needs 'base' and 'dir' lists of numbers")
            if len(line["base"]) != len(line["dir"]):
                raise GeometryError("base and direction must be equal-length vectors")
            if len(line["base"]) != dim:
                raise GeometryError(
                    f"line of dimension {len(line['base'])} in a dimension-{dim} config"
                )
        try:
            tolerance = float(tolerance)
        except OverflowError:  # an int beyond float64
            raise GeometryError("tolerance must be finite and positive") from None
        try:
            bases, directions = (
                np.array([line[key] for line in lines], dtype=float).reshape(-1, dim)
                for key in ("base", "dir")
            )
        except OverflowError:  # an int beyond float64
            raise GeometryError("base and direction must be finite") from None
        return cls(dim, bases, directions, tolerance)


def load_config(path_or_stream) -> LineConfig:
    return LineConfig.from_json_obj(load(path_or_stream))


def _pair_row(y, x, ys, xs):
    """Line (y, x) against every line (ys[i], xs[i]) at once.

    Returns the distances, the parallel flags and, in R^3 only, the signed
    volumes <x cross xs[i], y - ys[i]> (None elsewhere).  The distance is
    the norm of the base offset after removing its components along x and
    along the unit part w of xs[i] orthogonal to x; for a parallel pair w
    is dropped, which leaves the point-to-line distance.  Raises
    GeometryError when a distance or volume overflows float64.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dy = y - ys
        w = xs - np.outer(xs @ x, x)
        sine = np.linalg.norm(w, axis=1)
        parallel = sine <= PARALLEL_TOL
        w[parallel] = 0.0
        w /= np.where(parallel, 1.0, sine)[:, None]
        residue = dy - np.outer(dy @ x, x) - (dy * w).sum(axis=1)[:, None] * w
        volume = (np.cross(x, xs) * dy).sum(axis=1) if x.size == 3 else None
        distance = np.linalg.norm(residue, axis=1)
    if not np.isfinite(distance).all() or (
        volume is not None and not np.isfinite(volume).all()
    ):
        raise GeometryError("a pair distance or volume is not finite in float64")
    return distance, parallel, volume


def are_parallel(pair: LineConfig) -> bool:
    return config_report(pair).has_parallel


def line_distance(pair: LineConfig) -> float:
    """Minimal distance between the two lines of `pair`, any dimension."""
    return config_report(pair).pairs[0]["distance"]


@dataclass(eq=False)
class ConfigReport:
    """Per-pair diagnostics for a line configuration; `to_json_obj` leaves
    out the per-pair flags `stray` and `parallel` and the R^3 `matrix`."""

    dim: int
    count: int
    tolerance: float
    pairs: list
    stray: np.ndarray
    parallel: np.ndarray
    has_coplanar: bool
    matrix: np.ndarray | None

    @property
    def distances_ok(self) -> bool:
        return not self.stray.any()

    @property
    def has_parallel(self) -> bool:
        return bool(self.parallel.any())

    @property
    def valid(self) -> bool:
        return self.distances_ok and not self.has_parallel

    def flagged(self, flags: np.ndarray) -> list:
        return [self.pairs[i] for i in np.flatnonzero(flags)]

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "count": self.count,
            "tolerance": self.tolerance,
            "valid": self.valid,
            "distances_ok": self.distances_ok,
            "has_parallel": self.has_parallel,
            "has_coplanar": self.has_coplanar,
            "pairs": self.pairs,
        }


def config_report(cfg: LineConfig) -> ConfigReport:
    """Distance, parallel and coplanar flags of every pair, any dimension,
    with the chirality of each non-coplanar pair in R^3 (None otherwise).

    Validity requires every pairwise distance within tolerance of 1 and no
    parallel pair.
    """
    n, ys, xs = len(cfg), cfg.bases, cfg.directions
    vs, ws = np.triu_indices(n, 1)
    distance, parallel = np.zeros(vs.size), np.zeros(vs.size, dtype=bool)
    volume = np.zeros(vs.size) if cfg.dim == 3 else None
    # row v is the pairs (v, v+1..n-1), the next stretch of the upper
    # triangle's order; one row at a time keeps the temporaries at O(n * dim)
    stop = 0
    for v in range(n - 1):
        start, stop = stop, stop + n - 1 - v
        row = _pair_row(ys[v], xs[v], ys[v + 1:], xs[v + 1:])
        distance[start:stop], parallel[start:stop] = row[:2]
        if volume is not None:
            volume[start:stop] = row[2]
    matrix = None
    if volume is not None:  # the symmetric orientation matrix
        matrix = np.zeros((n, n))
        matrix[vs, ws] = matrix[ws, vs] = volume
    # outside R^3 a non-parallel pair is coplanar only when the lines meet
    flat = distance if volume is None else np.abs(volume)
    coplanar = parallel | (flat <= DEGENERATE_TOL)
    signs = [None] * len(vs) if volume is None else np.sign(volume).astype(int).tolist()
    entries = [
        {
            "v": v,
            "w": w,
            "distance": d,
            "parallel": p,
            "coplanar": c,
            "chirality": None if c else s,
        }
        for v, w, d, p, c, s in zip(
            vs.tolist(), ws.tolist(), distance.tolist(), parallel.tolist(),
            coplanar.tolist(), signs,
        )
    ]
    return ConfigReport(
        cfg.dim,
        len(cfg),
        cfg.tolerance,
        entries,
        stray=np.abs(distance - 1.0) > cfg.tolerance,
        parallel=parallel,
        has_coplanar=bool(coplanar.any()),
        matrix=matrix,
    )


def chirality_graph(cfg: LineConfig) -> tuple[Graph, ConfigReport]:
    """Graph with an edge per +1-chirality pair, plus the config report.

    Parallel or coplanar pairs get no edge and are flagged in the report.
    """
    if cfg.dim != 3:
        raise GeometryError("chirality graphs are defined only in R^3")
    report = config_report(cfg)
    edges = [(p["v"], p["w"]) for p in report.pairs if p["chirality"] == 1]
    return Graph.from_edges(len(cfg), edges), report


def _refuse_parallel(report: ConfigReport) -> None:
    """The orientation matrix is undefined when a pair is parallel."""
    found = report.flagged(report.parallel)
    if found:
        v, w = found[0]["v"], found[0]["w"]
        raise DegeneratePairError(
            f"lines {v} and {w} are parallel; orientation matrix undefined"
        )


def t_matrix(cfg: LineConfig) -> np.ndarray:
    """The pairwise orientation matrix a_vw = <x_v cross x_w, y_v - y_w>."""
    if cfg.dim != 3:
        raise GeometryError("the orientation matrix is defined only in R^3")
    report = config_report(cfg)
    _refuse_parallel(report)
    return report.matrix


def check_realization(report: ConfigReport) -> dict:
    """Check the four numeric constraints a unit-distance realization must
    satisfy: off-diagonal entries nonzero, sign pattern equal to the
    chirality graph, at most 3 negative eigenvalues, and |a| of signature
    (1, n-1), into the `realization` dict that `check-lines` writes.
    Raises from the report's verdict: InvalidConfigError for a stray
    distance, then DegeneratePairError for a parallel pair."""
    if report.matrix is None:
        raise GeometryError("realization checks are defined only in R^3")
    n = report.count
    if n < 2:
        raise GeometryError("realization checks need at least 2 lines")
    if not report.distances_ok:
        pair = report.flagged(report.stray)[0]
        raise InvalidConfigError(
            f"lines {pair['v']} and {pair['w']} at distance {pair['distance']}, "
            f"not 1 within {report.tolerance}"
        )
    _refuse_parallel(report)
    matrix = report.matrix
    margin = float(np.abs(matrix[~np.eye(n, dtype=bool)]).min())
    mismatches = [  # positive entries off the chirality graph: coplanar pairs
        (p["v"], p["w"]) for p in report.pairs
        if (matrix[p["v"], p["w"]] > 0) != (p["chirality"] == 1)
    ]
    sig_t = signature_of_array(matrix)
    sig_abs = signature_of_array(np.abs(matrix))
    deviation = max(abs(pair["distance"] - 1.0) for pair in report.pairs)
    properties = {
        "offdiagonal_nonzero": {
            "passed": not report.has_coplanar,
            "min_abs_entry": margin,
        },
        "sign_pattern_matches_chirality": {
            "passed": not len(mismatches),
            "mismatched_pairs": mismatches,
        },
        "at_most_3_negative_eigenvalues": {
            "passed": sig_t.n_minus <= 3,
            "signature": list(sig_t),
        },
        "abs_matrix_signature": {
            "passed": sig_abs == (1, 0, n - 1),
            "signature": list(sig_abs),
            "expected": [1, 0, n - 1],
        },
    }
    return {
        "count": n,
        "max_distance_deviation": deviation,
        "passed": all(p["passed"] for p in properties.values()),
        "properties": properties,
    }


# -- equidistant family in higher dimensions ---------------------------------


def _unit_simplex(m: int) -> np.ndarray:
    """m points in R^(m-1) with all pairwise distances exactly 1."""
    points = np.eye(m) / math.sqrt(2.0)
    basis, _ = np.linalg.qr((points[1:] - points[0]).T)
    return (points - points[0]) @ basis


MAX_LOWER_BOUND_DIM = 512


def lower_bound_config(n: int) -> LineConfig:
    """2n-2 pairwise unit-distance lines in R^n, for 3 <= n <= 512.

    Take the n-1 vertices of a unit simplex in R^(n-2); over vertex i put
    two parallel planar lines at distance 1 with direction angle
    i*pi/(n-1).  Lines over the same vertex are parallel at distance 1;
    lines over different vertices have directions spanning the whole plane
    factor, so their distance collapses to the simplex edge length 1.
    """
    if not 3 <= n <= MAX_LOWER_BOUND_DIM:
        raise GeometryError(
            f"the construction needs dimension 3 <= n <= {MAX_LOWER_BOUND_DIM}, got {n}"
        )
    m = n - 1
    frames = np.zeros((m, 2, n))  # (direction, normal) over vertex i
    for i, frame in enumerate(frames):
        c, s = math.cos(i * math.pi / m), math.sin(i * math.pi / m)
        frame[:, -2:] = [[c, s], [-s, c]]
    bases = np.zeros((m, 2, n))
    bases[:, :, :-2] = _unit_simplex(m)[:, None]
    bases[:, 1] += frames[:, 1]  # anchor + normal, every coordinate
    return LineConfig(n, bases.reshape(2 * m, n), frames[:, [0, 0]].reshape(2 * m, n))
