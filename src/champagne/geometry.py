"""Directed lines in R^d: distances, chirality, and realization checks.

A directed line is a base point plus a unit direction.  The distance
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


@dataclass(frozen=True)
class DirectedLine:
    """Line base + R * direction, with a unit direction vector."""

    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        direction = np.asarray(self.direction, dtype=float)
        if base.ndim != 1 or direction.shape != base.shape:
            raise GeometryError("base and direction must be equal-length vectors")
        if base.size < 2:
            raise GeometryError("lines live in dimension >= 2")
        if not (np.isfinite(base).all() and np.isfinite(direction).all()):
            raise GeometryError("base and direction must be finite")
        if abs(np.linalg.norm(direction) - 1.0) > UNIT_TOL:
            raise GeometryError(
                f"direction norm {np.linalg.norm(direction)} not unit within {UNIT_TOL}"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", direction)

    @classmethod
    def through(cls, base, direction) -> "DirectedLine":
        """Build from an un-normalized direction."""
        direction = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(direction)
        if norm == 0:
            raise GeometryError("direction must be nonzero")
        return cls(np.asarray(base, dtype=float), direction / norm)

    @property
    def dim(self) -> int:
        return self.base.size

    def reversed(self) -> "DirectedLine":
        return DirectedLine(self.base, -self.direction)

    def to_json_obj(self) -> dict:
        return {"base": self.base.tolist(), "dir": self.direction.tolist()}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DirectedLine":
        if not isinstance(obj, dict) or not all(
            isinstance(obj.get(key), list)
            and _NUMBER_TYPES.issuperset(map(type, obj[key]))
            for key in ("base", "dir")
        ):
            raise GeometryError("line JSON needs 'base' and 'dir' lists of numbers")
        try:
            base = np.array(obj["base"], dtype=float)
            direction = np.array(obj["dir"], dtype=float)
        except OverflowError:  # an int beyond float64
            raise GeometryError("base and direction must be finite") from None
        return cls(base, direction)


@dataclass(frozen=True)
class LineConfig:
    dim: int
    lines: tuple[DirectedLine, ...]
    tolerance: float = DISTANCE_TOL

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))
        if self.dim < 2:
            raise GeometryError(f"lines live in dimension >= 2, got {self.dim}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise GeometryError(
                f"tolerance must be finite and positive, got {self.tolerance}"
            )
        for line in self.lines:
            if line.dim != self.dim:
                raise GeometryError(
                    f"line of dimension {line.dim} in a dimension-{self.dim} config"
                )

    def __len__(self) -> int:
        return len(self.lines)

    def reverse_line(self, index: int) -> "LineConfig":
        lines = list(self.lines)
        lines[index] = lines[index].reversed()
        return LineConfig(self.dim, tuple(lines), self.tolerance)

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "tolerance": self.tolerance,
            "lines": [line.to_json_obj() for line in self.lines],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LineConfig":
        if not isinstance(obj, dict) or "dim" not in obj or "lines" not in obj:
            raise GeometryError("config JSON needs 'dim' and 'lines'")
        dim, lines = obj["dim"], obj["lines"]
        tolerance = obj.get("tolerance", DISTANCE_TOL)
        if not (
            type(dim) is int
            and isinstance(lines, list)
            and type(tolerance) in _NUMBER_TYPES
        ):
            raise GeometryError(
                "config 'dim' must be an integer, 'lines' a list, 'tolerance' a number"
            )
        try:
            tolerance = float(tolerance)
        except OverflowError:  # an int beyond float64
            raise GeometryError("tolerance must be finite and positive") from None
        return cls(
            dim,
            tuple(DirectedLine.from_json_obj(entry) for entry in lines),
            tolerance,
        )


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


def are_parallel(a: DirectedLine, b: DirectedLine) -> bool:
    return config_report(LineConfig(a.dim, (a, b))).has_parallel


def line_distance(a: DirectedLine, b: DirectedLine) -> float:
    """Minimal distance between the two lines, any dimension."""
    return config_report(LineConfig(a.dim, (a, b))).pairs[0]["distance"]


def _pairs(cfg: LineConfig):
    """The row kernel's distances and parallel flags in the upper triangle of
    n x n arrays, and in R^3 the signed volumes as the symmetric orientation
    matrix; one row at a time keeps the temporaries at O(n * dim)."""
    n = len(cfg)
    ys = np.array([ln.base for ln in cfg.lines])
    xs = np.array([ln.direction for ln in cfg.lines])
    distance, parallel = np.zeros((n, n)), np.zeros((n, n), dtype=bool)
    volume = np.zeros((n, n)) if cfg.dim == 3 else None
    for v in range(n - 1):
        d, p, vol = _pair_row(ys[v], xs[v], ys[v + 1:], xs[v + 1:])
        distance[v, v + 1:], parallel[v, v + 1:] = d, p
        if vol is not None:
            volume[v, v + 1:] = vol
    return distance, parallel, None if volume is None else volume + volume.T


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
    distance, parallel, matrix = _pairs(cfg)
    vs, ws = np.triu_indices(len(cfg), 1)
    distance, parallel = distance[vs, ws], parallel[vs, ws]
    volume = None if matrix is None else matrix[vs, ws]
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


@dataclass
class RealizationReport:
    count: int
    max_distance_deviation: float
    properties: dict

    @property
    def passed(self) -> bool:
        return all(p["passed"] for p in self.properties.values())

    def to_json_obj(self) -> dict:
        return {
            "count": self.count,
            "max_distance_deviation": self.max_distance_deviation,
            "passed": self.passed,
            "properties": self.properties,
        }


def check_realization(report: ConfigReport) -> RealizationReport:
    """Check the four numeric constraints a unit-distance realization must
    satisfy: off-diagonal entries nonzero, sign pattern equal to the
    chirality graph, at most 3 negative eigenvalues, and |a| of signature
    (1, n-1).  Raises from the report's verdict: InvalidConfigError for a
    stray distance, then DegeneratePairError for a parallel pair."""
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
    return RealizationReport(n, deviation, {
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
    })


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
    simplex = _unit_simplex(m)
    lines = []
    for i in range(m):
        theta = i * math.pi / m
        direction = np.concatenate([np.zeros(n - 2), [math.cos(theta), math.sin(theta)]])
        normal = np.concatenate([np.zeros(n - 2), [-math.sin(theta), math.cos(theta)]])
        anchor = np.concatenate([simplex[i], [0.0, 0.0]])
        lines.append(DirectedLine(anchor, direction))
        lines.append(DirectedLine(anchor + normal, direction))
    return LineConfig(n, tuple(lines))
