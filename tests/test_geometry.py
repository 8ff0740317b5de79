"""Directed-line distances, chirality, realization checks, lower bound."""

import json

import numpy as np
import pytest

from champagne import cli
from champagne.geometry import (
    DISTANCE_TOL,
    GeometryError,
    LineConfig,
    MAX_LOWER_BOUND_DIM,
    are_parallel,
    check_realization,
    chirality_graph,
    config_report,
    line_distance,
    load_config,
    lower_bound_config,
    t_matrix,
)
from champagne.graphs import Graph, complement, pair_slot, switch
from champagne.jsonout import dumps
from oracles import lower_bound_lines, rigid_transform

# a line is a (base, direction) pair of arrays; `config` stacks them
X_AXIS = (np.zeros(3), np.array([1.0, 0.0, 0.0]))
L2 = (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
L3 = (np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))


def config(*lines, tolerance=DISTANCE_TOL):
    bases, directions = zip(*lines)
    return LineConfig(len(bases[0]), bases, directions, tolerance)


THREE = config(X_AXIS, L2, L3)


def random_line(rng, dim=3):
    base, direction = rng.normal(size=dim), rng.normal(size=dim)
    return base, direction / np.linalg.norm(direction)


def closest_approach(a, b):
    """Independent distance oracle: solve the two-parameter least squares."""
    (ya, xa), (yb, xb) = a, b
    g = np.array([[xa @ xa, -(xa @ xb)], [-(xa @ xb), xb @ xb]])
    rhs = np.array([-(ya - yb) @ xa, (ya - yb) @ xb])
    t, s = np.linalg.lstsq(g, rhs, rcond=None)[0]
    return float(np.linalg.norm(ya + t * xa - yb - s * xb))


def test_directed_line_validation():
    for dim, bases, directions in (
        (3, [[0.0, 0.0, 0.0]], [[1.0, 1.0, 0.0]]),  # not unit
        (3, [[0.0, 0.0]], [[1.0, 0.0, 0.0]]),  # base and direction lengths differ
        (3, [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),  # counts differ
        (4, [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]),  # a 3-d line in R^4
        (3, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),  # one line, not an n x 3 array
        (1, [[0.0]], [[1.0]]),  # dim < 2
    ):
        with pytest.raises(GeometryError):
            LineConfig(dim, bases, directions)
    flipped = THREE.reverse_line(0)
    assert np.array_equal(flipped.directions[0], [-1.0, 0.0, 0.0])
    assert np.array_equal(flipped.directions[1:], THREE.directions[1:])
    assert np.array_equal(flipped.bases, THREE.bases)
    assert np.array_equal(THREE.directions[0], [1.0, 0.0, 0.0])  # left as it was


def test_config_holds_two_arrays():
    assert THREE.bases.shape == THREE.directions.shape == (3, 3)
    assert THREE.bases.dtype == THREE.directions.dtype == np.float64
    empty = LineConfig(5, np.zeros((0, 5)), np.zeros((0, 5)))
    assert len(empty) == 0 and empty.to_json_obj()["lines"] == []
    assert LineConfig.from_json_obj({"dim": 5, "lines": []}).bases.shape == (0, 5)


def test_config_reports_the_first_non_unit_direction():
    directions = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]
    with pytest.raises(GeometryError, match=r"direction norm 2\.0 not unit within 1e-12"):
        LineConfig(3, np.zeros((3, 3)), directions)


@pytest.mark.parametrize(
    "base, direction",
    [
        ([0.0, 0.0, 0.0], [float("nan"), 0.0, 0.0]),
        ([float("nan"), 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([float("inf"), 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([0.0, 0.0, 0.0], [float("inf"), 0.0, 0.0]),
    ],
)
def test_directed_line_rejects_non_finite(base, direction):
    with pytest.raises(GeometryError, match="finite"):
        LineConfig(3, [base], [direction])
    with pytest.raises(GeometryError, match="finite"):
        LineConfig.from_json_obj({"dim": 3, "lines": [{"base": base, "dir": direction}]})


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_config_rejects_bad_tolerance(tol):
    with pytest.raises(GeometryError):
        config(X_AXIS, L2, tolerance=tol)
    with pytest.raises(GeometryError):
        LineConfig.from_json_obj({**THREE.to_json_obj(), "tolerance": tol})


def scalar_pair(a, b):
    """Reference loop body: distance, parallel flag and R^3 volume of one
    pair by the residue-vector formula, one pair at a time."""
    (ya, u), (yb, xb) = a, b
    dy = ya - yb
    w = xb - np.dot(u, xb) * u
    parallel = bool(np.linalg.norm(w) <= 1e-12)
    residue = dy - np.dot(dy, u) * u
    if not parallel:
        w /= np.linalg.norm(w)
        residue = residue - np.dot(dy, w) * w
    volume = float(np.dot(np.cross(u, xb), dy)) if u.size == 3 else None
    return float(np.linalg.norm(residue)), parallel, volume


@pytest.mark.parametrize("dim", [2, 3, 4, 7])
def test_all_pairs_match_scalar_loop(dim):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        lines = [random_line(rng, dim) for _ in range(int(rng.integers(2, 9)))]
        lines.append((lines[0][0] + rng.normal(size=dim), lines[0][1]))
        cfg = config(*lines)
        report = config_report(cfg)
        for pair in report.pairs:
            # plain Python scalars, never numpy ones (json cannot write np.int64)
            scalars = [pair[k] for k in ("v", "w", "distance", "parallel", "coplanar")]
            assert list(map(type, scalars)) == [int, int, float, bool, bool]
            assert pair["chirality"] is None or type(pair["chirality"]) is int
            distance, parallel, volume = scalar_pair(lines[pair["v"]], lines[pair["w"]])
            assert pair["distance"] == pytest.approx(distance, abs=1e-12)
            assert pair["parallel"] == parallel
            flat = abs(volume if dim == 3 else distance) <= 1e-12
            assert pair["coplanar"] == (parallel or flat)
            if dim == 3 and not pair["coplanar"]:
                assert pair["chirality"] == (1 if volume > 0 else -1)
            else:
                assert pair["chirality"] is None
        assert report.has_parallel
        if dim == 3:
            matrix = t_matrix(config_report(config(*lines[:-1])))
            for v in range(len(lines) - 1):
                for w in range(len(lines) - 1):
                    expected = 0.0 if v == w else scalar_pair(lines[v], lines[w])[2]
                    assert matrix[v, w] == pytest.approx(expected, abs=1e-12)


def test_line_distance_examples():
    assert line_distance(config(X_AXIS, L2)) == pytest.approx(1.0, abs=1e-15)
    assert line_distance(config(X_AXIS, L3)) == pytest.approx(1.0, abs=1e-15)
    assert line_distance(config(L2, L3)) == pytest.approx(1.0, abs=1e-15)
    offset_parallel = (np.array([5.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    assert line_distance(config(X_AXIS, offset_parallel)) == pytest.approx(1.0, abs=1e-15)
    assert line_distance(config(X_AXIS, X_AXIS)) == 0.0


def test_line_distance_matches_least_squares_oracle():
    rng = np.random.default_rng(12)
    for _ in range(300):
        dim = int(rng.integers(2, 7))
        a, b = random_line(rng, dim), random_line(rng, dim)
        if are_parallel(config(a, b)):
            continue
        assert line_distance(config(a, b)) == pytest.approx(
            closest_approach(a, b), abs=1e-9
        )


def test_intersecting_lines_have_distance_zero():
    crossing = (np.zeros(3), np.array([0.0, 1.0, 0.0]))
    assert line_distance(config(X_AXIS, crossing)) == pytest.approx(0.0, abs=1e-15)


def test_chirality_example_and_symmetries():
    pairs = config_report(THREE).pairs
    assert [(p["v"], p["w"], p["chirality"]) for p in pairs[:2]] == [(0, 1, -1), (0, 2, 1)]
    rng = np.random.default_rng(3)
    seen = 0
    while seen < 200:
        a, b = random_line(rng), random_line(rng)
        pair = config(a, b)
        sign = config_report(pair).pairs[0]["chirality"]
        if sign is None:
            continue
        seen += 1
        assert sign in (1, -1)
        for other, expected in (
            (config(b, a), sign),
            (pair.reverse_line(0), -sign),
            (pair.reverse_line(1), -sign),
        ):
            assert config_report(other).pairs[0]["chirality"] == expected


def test_chirality_degeneracies():
    parallel = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    crossing = (np.zeros(3), np.array([0.0, 1.0, 0.0]))
    for other, is_parallel in ((parallel, True), (crossing, False)):
        pair = config_report(config(X_AXIS, other)).pairs[0]
        assert pair["coplanar"] and pair["parallel"] == is_parallel
        assert pair["chirality"] is None
    skew_4d = LineConfig(4, [[0.0, 0, 0, 0], [0.0, 0, 1, 0]], [[1.0, 0, 0, 0], [0.0, 1, 0, 0]])
    assert config_report(skew_4d).pairs[0]["chirality"] is None


def test_chirality_graph_of_bundled_config():
    report = config_report(THREE)
    graph = chirality_graph(report)
    assert graph == Graph.from_edges(3, [(0, 2)])
    assert report.valid and report.distances_ok and not report.has_parallel
    assert len(report.pairs) == 3
    assert {p["chirality"] for p in report.pairs} == {1, -1}


def test_reversing_a_line_switches_the_graph():
    base_report = config_report(THREE)
    base_graph = chirality_graph(base_report)
    for w in range(3):
        report = config_report(THREE.reverse_line(w))
        flipped = chirality_graph(report)
        assert flipped == switch(base_graph, w)
        assert report.valid == base_report.valid


def test_parallel_pair_is_flagged():
    cfg = config(X_AXIS, (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])), L2)
    report = config_report(cfg)
    graph = chirality_graph(report)
    assert report.has_parallel and not report.valid
    flagged = [p for p in report.pairs if p["parallel"]]
    assert [(p["v"], p["w"]) for p in flagged] == [(0, 1)]
    assert not graph.bits >> pair_slot(0, 1) & 1


def test_rigid_motion_invariance():
    rng = np.random.default_rng(8)
    base_report = config_report(THREE)
    base_graph = chirality_graph(base_report)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved = rigid_transform(THREE, q, rng.normal(size=3))
        report = config_report(moved)
        graph = chirality_graph(report)
        assert graph == base_graph
        for before, after in zip(base_report.pairs, report.pairs):
            assert after["distance"] == pytest.approx(before["distance"], abs=1e-9)


def test_reflection_complements_the_graph():
    mirror = np.diag([1.0, 1.0, -1.0])
    graph = chirality_graph(config_report(rigid_transform(THREE, mirror)))
    base_graph = chirality_graph(config_report(THREE))
    assert graph == complement(base_graph)


def test_rigid_transform_requires_orthogonal():
    with pytest.raises(GeometryError):
        rigid_transform(THREE, np.diag([2.0, 1.0, 1.0]))


def gram_residual(cfg, matrix):
    """Max deviation of the orientation matrix from the split-form Gram
    product of the 6-vectors (y_v cross x_v, x_v)."""
    q, x = np.cross(cfg.bases, cfg.directions), cfg.directions
    return float(np.abs(matrix - (q @ x.T + x @ q.T)).max())


def test_t_matrix_gram_identity():
    matrix = t_matrix(config_report(THREE))
    assert matrix.shape == (3, 3)
    assert np.all(np.diag(matrix) == 0)
    assert gram_residual(THREE, matrix) <= 1e-12
    for v in range(3):
        for w in range(v + 1, 3):
            cross = np.cross(THREE.directions[v], THREE.directions[w])
            assert abs(matrix[v, w]) == pytest.approx(
                float(np.linalg.norm(cross)), abs=1e-12
            )


def test_t_matrix_gram_identity_random_configs():
    rng = np.random.default_rng(21)
    for _ in range(50):
        cfg = config(*(random_line(rng) for _ in range(4)))
        report = config_report(cfg)
        if report.has_parallel:
            continue
        matrix = t_matrix(report)
        assert gram_residual(cfg, matrix) <= 1e-10


def test_t_matrix_rejects_parallel():
    cfg = config(X_AXIS, (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])))
    with pytest.raises(GeometryError, match="lines 0 and 1 are parallel"):
        t_matrix(config_report(cfg))


def test_check_realization_bundled_config():
    report = check_realization(config_report(THREE))
    assert report["passed"]
    props = report["properties"]
    assert props["abs_matrix_signature"]["signature"] == [1, 0, 2]
    assert props["at_most_3_negative_eigenvalues"]["passed"]
    assert props["offdiagonal_nonzero"]["min_abs_entry"] == pytest.approx(1.0)
    assert props["sign_pattern_matches_chirality"]["mismatched_pairs"] == []


def test_check_realization_two_skew_lines():
    report = check_realization(config_report(config(X_AXIS, L2)))
    assert report["passed"]
    assert report["properties"]["abs_matrix_signature"]["signature"] == [1, 0, 1]


def test_check_realization_rejects_wrong_distance():
    stretched = config(X_AXIS, (np.array([0.0, 0.0, 2.0]), np.array([0.0, 1.0, 0.0])))
    with pytest.raises(GeometryError, match="not 1 within"):
        check_realization(config_report(stretched))


def test_check_realization_preconditions():
    with pytest.raises(GeometryError):
        check_realization(config_report(config(X_AXIS)))
    four_d = LineConfig(4, [[0.0, 0, 0, 0], [0.0, 0, 0, 1]], [[1.0, 0, 0, 0], [0.0, 1, 0, 0]])
    with pytest.raises(GeometryError) as refused:
        check_realization(config_report(four_d))
    assert refused.type is GeometryError


def test_graph_and_matrix_refuse_reports_outside_r3():
    four_d = config_report(
        LineConfig(4, [[0.0, 0, 0, 0], [0.0, 0, 0, 1]], [[1.0, 0, 0, 0], [0.0, 1, 0, 0]])
    )
    with pytest.raises(GeometryError, match="only in R\\^3"):
        chirality_graph(four_d)
    with pytest.raises(GeometryError, match="only in R\\^3"):
        t_matrix(four_d)


def test_check_realization_refuses_parallel_pair_at_unit_distance():
    parallel = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    report = config_report(config(X_AXIS, parallel, L3))
    assert report.distances_ok
    with pytest.raises(GeometryError, match="lines 0 and 1 are parallel"):
        check_realization(report)


def test_check_realization_refuses_stray_distance_before_parallel_pair():
    # pair (0, 1) is parallel at distance 1 and comes first; (0, 2) is at 5
    parallel = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    far = (np.array([0.0, 0.0, 5.0]), np.array([0.0, 1.0, 0.0]))
    report = config_report(config(X_AXIS, parallel, far))
    with pytest.raises(GeometryError, match="lines 0 and 2 at distance 5.0, not 1 within"):
        check_realization(report)


def test_check_realization_near_coplanar_pairs():
    # lines 1 and 2 sit at 0.6 from line 0 and turn 1.5e-12 rad from it:
    # not parallel, but their volumes against line 0 are -9e-13, inside
    # the coplanarity tolerance, so those pairs have no chirality
    turn = 1.5e-12
    near = config(
        X_AXIS,
        (np.array([0.0, 0.6, 0.0]), np.array([1.0, 0.0, -turn])),
        (np.array([0.0, 0.0, 0.6]), np.array([1.0, turn, 0.0])),
        tolerance=0.5,
    )
    report = check_realization(config_report(near))
    nonzero = report["properties"]["offdiagonal_nonzero"]
    assert not nonzero["passed"]
    assert nonzero["min_abs_entry"] == pytest.approx(9e-13, rel=1e-6)
    assert report["properties"]["sign_pattern_matches_chirality"]["mismatched_pairs"] == []
    # reversed, line 1's volume against line 0 is +9e-13: a positive entry
    # with no chirality edge
    flipped = check_realization(config_report(near.reverse_line(1)))
    pattern = flipped["properties"]["sign_pattern_matches_chirality"]
    assert not pattern["passed"] and pattern["mismatched_pairs"] == [(0, 1)]
    assert not flipped["passed"]


def test_check_realization_is_the_cli_realization_field(tmp_path):
    config, out = tmp_path / "three.json", tmp_path / "lines.json"
    config.write_text(json.dumps(THREE.to_json_obj()))
    assert cli.main(["check-lines", str(config), "--out", str(out)]) == 0
    report = check_realization(config_report(THREE))
    assert json.loads(dumps(report)) == json.loads(out.read_text())["realization"]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_lower_bound_config(n):
    cfg = lower_bound_config(n)
    assert cfg.dim == n
    assert len(cfg) == 2 * n - 2
    report = config_report(cfg)
    assert max(abs(p["distance"] - 1.0) for p in report.pairs) <= 1e-12
    # exactly the two lines over one simplex vertex are parallel
    parallel = [(p["v"], p["w"]) for p in report.flagged(report.parallel)]
    assert parallel == [(2 * i, 2 * i + 1) for i in range(n - 1)]


@pytest.mark.parametrize("n", [3, 4, 10, 60, 200, 512])
def test_lower_bound_config_keeps_every_bit(n):
    # against the line-at-a-time construction, signed zeros included
    cfg = lower_bound_config(n)
    bases, directions = lower_bound_lines(n)
    assert cfg.bases.tobytes() == bases.tobytes()
    assert cfg.directions.tobytes() == directions.tobytes()


def test_lower_bound_config_rejects_small_dim():
    with pytest.raises(GeometryError):
        lower_bound_config(2)


def test_lower_bound_config_rejects_dim_above_the_cap():
    # refused before the (n-1) x (n-1) simplex is built
    with pytest.raises(GeometryError):
        lower_bound_config(MAX_LOWER_BOUND_DIM + 1)


def test_config_json_round_trip(tmp_path):
    obj = THREE.to_json_obj()
    again = LineConfig.from_json_obj(json.loads(json.dumps(obj)))
    assert again.dim == 3 and len(again) == 3
    assert np.array_equal(again.bases, THREE.bases)
    assert np.array_equal(again.directions, THREE.directions)

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    assert len(load_config(str(path))) == 3
    with open(path, encoding="utf-8") as fh:
        assert len(load_config(fh)) == 3


def test_config_validation():
    with pytest.raises(GeometryError):
        LineConfig.from_json_obj({"dim": 3})
    for line, message in (
        ({"base": [0, 0, 0]}, "lists of numbers"),
        ({"base": {"x": 0}, "dir": [1, 0, 0]}, "lists of numbers"),
        ({"base": [0, 0, 0], "dir": [True, False, False]}, "lists of numbers"),
        ("not a line", "lists of numbers"),
        ({"base": [0, 0], "dir": [1, 0, 0]}, "equal-length"),
        ({"base": [0, 0, 0, 0], "dir": [1, 0, 0, 0]}, "line of dimension 4 in a dimension-3"),
        ({"base": [0, 0, 0], "dir": [1, 1, 0]}, "direction norm 1.41"),
        ({"base": [0, 0, 0], "dir": [1e200, 0, 0]}, "direction norm inf not unit"),
    ):
        obj = {"dim": 3, "lines": [{"base": [0, 0, 1], "dir": [0, 1, 0]}, line]}
        with pytest.raises(GeometryError, match=message):
            LineConfig.from_json_obj(obj)
