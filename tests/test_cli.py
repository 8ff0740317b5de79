"""Command-line behavior: outputs, exit codes, schemas, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from champagne.cli import bundled_path, main
from champagne.forbidden import default_family
from champagne.geometry import lower_bound_config
from champagne.graphs import Graph
from champagne.jsonout import dumps
from champagne.search import run_search, timing_free

requires_jsonschema = pytest.mark.skipif(
    jsonschema is None, reason="jsonschema not installed"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema(name):
    from importlib import resources

    return json.loads(
        resources.files("champagne").joinpath("schemas", name).read_text("utf-8")
    )


# -- search -------------------------------------------------------------------


@requires_jsonschema
def test_search_r34(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys,
        "search", "--family", "r34", "--n", "9", "--jobs", "1",
        "--out", str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    jsonschema.validate(report, schema("search_report.schema.json"))
    assert report["verdict"] == {"kind": "empty-at-k", "k": 9}
    assert report["levels"][7] == {
        "k": 8, "count": 3,
        "expanded": report["levels"][7]["expanded"],
        "kept": report["levels"][7]["kept"],
        "seconds": report["levels"][7]["seconds"],
    }
    assert "level=9" in err  # progress lines on stderr


def test_search_writes_witnesses(capsys, tmp_path):
    g6_path = tmp_path / "out.g6"
    code, out, _ = run_cli(
        capsys,
        "search", "--family", "default", "--n", "4", "--jobs", "1",
        "--quiet", "--witnesses", str(g6_path),
    )
    assert code == 0
    lines = g6_path.read_text().splitlines()
    assert len(lines) == 9
    assert all(Graph.from_graph6(line).n == 4 for line in lines)
    report = json.loads(out)
    assert report["witnesses"]["count"] == 9
    assert report["witnesses"]["path"] == str(g6_path)
    assert "graph6" not in report["witnesses"]


def test_search_witness_file_and_embedding(capsys, tmp_path):
    g6_path = tmp_path / "out.g6"
    code, out, _ = run_cli(
        capsys,
        "search", "--family", "default", "--n", "4", "--jobs", "1",
        "--quiet", "--witnesses", str(g6_path), "--embed-witnesses",
    )
    assert code == 0
    text = g6_path.read_text()
    lines = text.splitlines()
    assert text == "\n".join(lines) + "\n"
    witnesses = json.loads(out)["witnesses"]
    assert witnesses == {"k": 4, "count": 9, "path": str(g6_path), "graph6": lines}
    assert lines == sorted(lines, key=lambda s: Graph.from_graph6(s).bits)


def test_search_empty_witness_path_writes_nothing(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "search", "--family", "default", "--n", "4", "--jobs", "1",
        "--quiet", "--witnesses", "",
    )
    assert code == 0
    assert json.loads(out)["witnesses"] is None
    assert list(tmp_path.iterdir()) == []


def test_search_family_file(capsys, tmp_path):
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps([
        {"pattern": "K3", "scope": "red"},
        {"pattern": "K3", "scope": "blue"},
    ]))
    code, out, _ = run_cli(
        capsys, "search", "--family", str(fam_path), "--n", "8",
        "--jobs", "1", "--quiet",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == {"kind": "empty-at-k", "k": 6}


def test_search_bad_family_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "search", "--family", str(bad), "--n", "4")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "search", "--family", "/nonexistent.json", "--n", "4")
    assert code == 2
    # nested deeper than the JSON decoder can follow
    bad.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "search", "--family", str(bad), "--n", "4")
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "pattern",
    [{"n": 3, "edges": 5}, {"n": 2.5, "edges": [[0, 1]]}],
    ids=["edges-not-a-list", "n-not-integer"],
)
def test_search_malformed_pattern_exits_2(capsys, tmp_path, pattern):
    path = tmp_path / "family.json"
    path.write_text(json.dumps([{"pattern": pattern}]))
    code, out, err = run_cli(
        capsys, "search", "--family", str(path), "--n", "4", "--jobs", "1", "--quiet"
    )
    assert code == 2 and out == "" and "error" in err


def test_search_cap_exits_3(capsys, tmp_path):
    out_path = tmp_path / "partial.json"
    code, _, err = run_cli(
        capsys,
        "search", "--family", "default", "--n", "8", "--jobs", "1",
        "--quiet", "--cap", "10", "--out", str(out_path),
    )
    assert code == 3
    partial = json.loads(out_path.read_text())
    assert partial["verdict"]["kind"] == "cap-exceeded"


def test_capped_search_writes_no_witnesses(capsys, tmp_path):
    g6_path = tmp_path / "w.g6"
    code, out, err = run_cli(
        capsys,
        "search", "--family", "default", "--n", "8", "--jobs", "1", "--quiet",
        "--cap", "10", "--witnesses", str(g6_path), "--embed-witnesses",
    )
    assert code == 3
    assert err == "error: survivor cap exceeded at level 4\n"
    report = json.loads(out)
    assert report["verdict"] == {"kind": "cap-exceeded", "k": 4}
    assert report["witnesses"] is None
    assert not g6_path.exists()


def test_search_cap_holds_across_workers(capsys, tmp_path):
    # the chunks of a level share one clean-mask count, so with two jobs
    # level 7 (1,544 clean masks in all) stops soon after passing the cap
    kept = {}
    for jobs in ("1", "2"):
        out_path = tmp_path / f"partial-{jobs}.json"
        code, _, _ = run_cli(
            capsys,
            "search", "--family", "default", "--n", "10", "--jobs", jobs,
            "--quiet", "--cap", "1417", "--out", str(out_path),
        )
        assert code == 3
        last = json.loads(out_path.read_text())["levels"][-1]
        assert last["k"] == 7
        kept[jobs] = last["kept"]
    assert kept["1"] == 1421
    assert kept["2"] < 1544


@pytest.mark.parametrize(
    "argv", [["--cap", "0"], ["--jobs", "0"]], ids=["argv0-None", "argv1-None"]
)
def test_search_bad_arguments_exit_2(capsys, argv):
    code, out, err = run_cli(
        capsys, "search", "--family", "default", "--n", "4", "--quiet", *argv
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_search_jobs_above_the_bound_exit_2(capsys, monkeypatch):
    # refused before any pool exists: a fork pool starts all its workers at once
    from champagne import search

    monkeypatch.setattr(search, "ProcessPoolExecutor", None)
    code, out, err = run_cli(
        capsys, "search", "--family", "default", "--n", "10", "--quiet",
        "--jobs", str(search.MAX_JOBS + 1),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: jobs must be in 1..{search.MAX_JOBS}\n"


def test_search_jobs_default_is_bounded(monkeypatch):
    from champagne import cli, search

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 10 * search.MAX_JOBS)
    cli.build_parser.cache_clear()
    try:
        args = cli.build_parser().parse_args(["search"])
    finally:
        cli.build_parser.cache_clear()
    assert args.jobs == search.MAX_JOBS


def test_search_has_no_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "3", "--quiet", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "search", "--n", "3", "--jobs", "1", "--quiet")
    assert code == 0
    assert json.loads(out)["seed"] == 0


def test_search_jobs_ignores_environment(capsys, monkeypatch):
    # --jobs is the only worker-count knob
    monkeypatch.setenv("RAMSEY_JOBS", "2")
    code, out, _ = run_cli(
        capsys, "search", "--family", "default", "--n", "5",
        "--jobs", "1", "--quiet",
    )
    assert code == 0
    assert json.loads(out)["jobs"] == 1


@pytest.mark.parametrize(
    "family, n, digest",
    [
        ("default", "10", "831e1c63989e0c96d8305e053e17f4e5e68e8e7330a8c1e007905874ed57d22a"),
        ("r34", "9", "744099b8d021f91e632b98a405dc4280f8597dcf6e65a415df206494b096ef5a"),
    ],
    ids=["default-10", "r34-9"],
)
def test_search_alias_report_bytes(capsys, family, n, digest):
    # the same digests as run_search's timing-free reports in test_search:
    # each alias builds the family the library constructors build
    code, out, _ = run_cli(
        capsys, "search", "--family", family, "--n", n, "--jobs", "1",
        "--embed-witnesses",
    )
    assert code == 0
    text = json.dumps(timing_free(json.loads(out)), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_search_deterministic_output_across_jobs(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(
            capsys, "search", "--family", "default", "--n", "6",
            "--jobs", jobs, "--quiet", "--embed-witnesses",
        )
        assert code == 0
        outs.append(json.dumps(timing_free(json.loads(out)), sort_keys=True))
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv, kwargs, expected",
    [
        (["--n", "6", "--embed-witnesses"], {"n_max": 6, "witnesses": True}, 0),
        (["--cap", "10"], {"n_max": 10, "cap": 10}, 3),
    ],
    ids=["default-6", "cap-10"],
)
def test_search_out_is_the_library_report(capsys, tmp_path, argv, kwargs, expected):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "search", "--jobs", "1", "--quiet", "--out", str(out_path), *argv
    )
    assert code == expected
    report = run_search(default_family(), jobs=1, **kwargs)
    written = timing_free(json.loads(out_path.read_text(encoding="utf-8")))
    assert written == json.loads(dumps(timing_free(report)))


# -- verify-signatures ----------------------------------------------------------


@requires_jsonschema
def test_verify_signatures(capsys, tmp_path):
    out_path = tmp_path / "sig.json"
    code, _, err = run_cli(
        capsys, "verify-signatures", "--trials", "5", "--seed", "1",
        "--out", str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    jsonschema.validate(report, schema("signature_report.schema.json"))
    assert report["passed"]
    assert [l["kind"] for l in report["lemmas"]] == [
        "cycle(5)", "cycle(7)", "cycle(9)", "h7",
    ]
    assert {c["name"] for c in report["catalog_checks"]} == {"C3", "C5", "C7", "H7"}
    assert "cycle(7): ok" in err


def test_verify_signatures_selftest_corruption(capsys):
    code, out, err = run_cli(
        capsys, "verify-signatures", "--trials", "2", "--selftest-corrupt",
    )
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    assert "counterexample" in err


@pytest.mark.parametrize(
    "argv, exit_code, digest",
    [
        (
            ["--trials", "40", "--seed", "3"],
            0,
            "311eeea9475b62fdecbbd4699f0833266675e8f5230646082a5243fd4658d60e",
        ),
        (
            ["--trials", "3", "--seed", "1", "--selftest-corrupt"],
            1,
            "04fbab5511ba0eb074aad69187f58d8ac8304703952c4d71ca994f04247c19de",
        ),
    ],
    ids=["clean", "selftest-corrupt"],
)
def test_verify_signatures_report_bytes(capsys, tmp_path, argv, exit_code, digest):
    # sha256 of the --out file; any change to the report bytes shows here
    out_path = tmp_path / "sig.json"
    code, _, _ = run_cli(capsys, "verify-signatures", *argv, "--out", str(out_path))
    assert code == exit_code
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_verify_signatures_checks_out_before_sampling(capsys, tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("verify_pattern_lemma called despite an unwritable --out")

    monkeypatch.setattr("champagne.signature.verify_pattern_lemma", no_sampling)
    path = tmp_path / "missing" / "sig.json"
    code, out, err = run_cli(capsys, "verify-signatures", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error:")


@pytest.mark.parametrize(
    "work, argv",
    [
        ("champagne.geometry.config_report",
         ["check-lines", bundled_path("three_lines.json"), "--distances-only"]),
        ("champagne.geometry.lower_bound_config", ["gen-lower-bound", "--dim", "3"]),
    ],
    ids=["check-lines", "gen-lower-bound"],
)
def test_commands_check_out_before_working(capsys, tmp_path, monkeypatch, work, argv):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} called despite an unwritable --out")

    monkeypatch.setattr(work, no_work)
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error:")


def test_verify_signatures_rejects_bad_trials(capsys):
    code, _, _ = run_cli(capsys, "verify-signatures", "--trials", "0")
    assert code == 2


# -- check-lines / gen-lower-bound ------------------------------------------------


@requires_jsonschema
def test_check_lines_bundled_config(capsys, tmp_path):
    out_path = tmp_path / "lines.json"
    code, _, _ = run_cli(
        capsys, "check-lines", bundled_path("three_lines.json"),
        "--out", str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    jsonschema.validate(report, schema("line_report.schema.json"))
    assert report["valid"]
    assert report["realization"]["passed"]
    assert report["chirality_graph6"] == Graph.from_edges(3, [(0, 2)]).to_graph6()


@requires_jsonschema
def test_check_lines_flags_parallel_pair(capsys, tmp_path):
    cfg = {
        "dim": 3,
        "lines": [
            {"base": [0, 0, 0], "dir": [1, 0, 0]},
            {"base": [0, 0, 1], "dir": [1, 0, 0]},
        ],
    }
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "check-lines", str(path))
    assert code == 1
    report = json.loads(out)
    jsonschema.validate(report, schema("line_report.schema.json"))
    assert not report["valid"]
    assert report["config"]["has_parallel"]
    assert "(0,1)" in err


def test_check_lines_parallel_pair_same_entry_in_both_modes(capsys, tmp_path):
    cfg = {
        "dim": 3,
        "lines": [
            {"base": [0, 0, 0], "dir": [1, 0, 0]},
            {"base": [0, 0, 1], "dir": [1, 0, 0]},
            {"base": [0, 1, 0.5], "dir": [0, 0, 1]},
        ],
    }
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "check-lines", str(path))
    assert code == 1
    full = json.loads(out)
    code, out, _ = run_cli(capsys, "check-lines", str(path), "--distances-only")
    assert code == 0  # every distance is 1; only full mode refuses parallels
    distances_only = json.loads(out)
    assert distances_only["valid"] and not full["valid"]
    assert distances_only["config"] == full["config"]
    assert not full["config"]["valid"] and full["config"]["distances_ok"]
    assert full["config"]["pairs"][0] == {
        "v": 0, "w": 1, "distance": 1.0,
        "parallel": True, "coplanar": True, "chirality": None,
    }


@pytest.mark.parametrize(
    "line",
    [
        {"base": [0, 0, 1], "dir": [float("nan"), 0, 0]},
        {"base": [float("nan"), 0, 1], "dir": [0, 1, 0]},
        {"base": [float("inf"), 0, 1], "dir": [0, 1, 0]},
        # finite, but the pair distance (and volume) overflows float64
        {"base": [0, 1e308, 1e308], "dir": [1, 0, 0]},
        {"base": [0, 1e308, 1e308], "dir": [0, 1, 0]},
    ],
)
def test_check_lines_rejects_non_finite_coordinates(capsys, monkeypatch, recwarn, line):
    import io

    text = json.dumps({"dim": 3, "lines": [{"base": [0, 0, 0], "dir": [1, 0, 0]}, line]})
    for extra in ([], ["--distances-only"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "check-lines", "-", *extra)
        assert code == 2
        assert out == "" and "finite" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@requires_jsonschema
def test_check_lines_rejects_bad_tolerance(capsys, tmp_path):
    bundled = bundled_path("three_lines.json")
    for tol in ("-1", "0", "nan"):
        code, out, err = run_cli(capsys, "check-lines", bundled, "--tol", tol)
        assert code == 2 and out == "" and "tolerance" in err
    with open(bundled, encoding="utf-8") as fh:
        cfg = json.load(fh)
    path = tmp_path / "zero_tol.json"
    path.write_text(json.dumps({**cfg, "tolerance": 0}))
    assert run_cli(capsys, "check-lines", str(path), "--distances-only")[0] == 2
    # an accepted override is echoed in a report that meets the schema
    code, out, _ = run_cli(capsys, "check-lines", bundled, "--tol", "1e-6")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema("line_report.schema.json"))
    assert report["config"]["tolerance"] == 1e-6


@pytest.mark.parametrize(
    "config",
    [
        {"dim": 3, "lines": 5},
        {"dim": 3, "lines": [], "tolerance": None},
        {"dim": 1, "lines": []},
        {"dim": 3.7, "lines": []},
        # integers past float64's range are not finite numbers
        {"dim": 3, "lines": [{"base": [10**400, 0, 0], "dir": [1, 0, 0]}]},
        {"dim": 3, "lines": [{"base": [0, 0, 0], "dir": [10**400, 0, 0]}]},
        {"dim": 3, "lines": [], "tolerance": 10**400},
        # finite, but its norm overflows float64
        {"dim": 3, "lines": [{"base": [0, 0, 0], "dir": [1e200, 0, 0]}]},
    ],
    ids=[
        "lines-not-a-list", "tolerance-null", "dim-1", "dim-not-integer",
        "base-huge-int", "dir-huge-int", "tolerance-huge-int", "dir-norm-overflows",
    ],
)
def test_check_lines_rejects_malformed_config(capsys, monkeypatch, recwarn, config):
    import io

    for extra in ([], ["--distances-only"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(config)))
        code, out, err = run_cli(capsys, "check-lines", "-", *extra)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert "Traceback" not in err and err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_check_lines_parse_error(capsys, monkeypatch, tmp_path):
    import io

    path = tmp_path / "broken.json"
    path.write_text("[this is not json")
    assert run_cli(capsys, "check-lines", str(path))[0] == 2
    assert run_cli(capsys, "check-lines", "/missing/file.json")[0] == 2
    # nested deeper than the JSON decoder can follow, as a file and on stdin
    deep = "[" * 100_000
    path.write_text(deep)
    monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
    for source in (str(path), "-"):
        code, out, err = run_cli(capsys, "check-lines", source)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert "Traceback" not in err


def test_check_lines_distance_failure(capsys, tmp_path):
    cfg = {
        "dim": 3,
        "lines": [
            {"base": [0, 0, 0], "dir": [1, 0, 0]},
            {"base": [0, 0, 2], "dir": [0, 1, 0]},
        ],
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "check-lines", str(path))
    assert code == 1
    assert not json.loads(out)["valid"]


@requires_jsonschema
@pytest.mark.parametrize("count", [0, 1])
def test_check_lines_full_mode_needs_two_lines(capsys, tmp_path, count):
    cfg = {"dim": 3, "lines": [{"base": [0, 0, 0], "dir": [1, 0, 0]}][:count]}
    path = tmp_path / "few.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "check-lines", str(path))
    assert code == 1
    assert err == "error: realization checks need at least 2 lines\n"
    report = json.loads(out)
    jsonschema.validate(report, schema("line_report.schema.json"))
    assert report["error"] == "realization checks need at least 2 lines"
    assert report["realization"] is None and not report["valid"]
    assert report["config"]["valid"] and report["config"]["count"] == count


def test_check_lines_full_mode_makes_one_pair_pass(capsys, monkeypatch):
    from champagne import geometry

    calls = []
    row = geometry._pair_row

    def counted(*args):
        calls.append(1)
        return row(*args)

    monkeypatch.setattr(geometry, "_pair_row", counted)
    code, _, _ = run_cli(capsys, "check-lines", bundled_path("three_lines.json"))
    assert code == 0
    assert len(calls) == 2  # one row per line but the last: n - 1 for n = 3


@requires_jsonschema
@pytest.mark.parametrize("count", [16, 17])
def test_check_lines_full_mode_at_the_graph_limit(capsys, tmp_path, count):
    # a Graph holds at most 16 vertices; past that the report has no graph6
    rng = np.random.default_rng(count)
    directions = rng.normal(size=(count, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    lines = [
        {"base": base, "dir": direction}
        for base, direction in zip(rng.uniform(-1.5, 1.5, (count, 3)).tolist(),
                                   directions.tolist())
    ]
    path = tmp_path / "random.json"
    path.write_text(json.dumps({"dim": 3, "lines": lines}))
    code, out, err = run_cli(capsys, "check-lines", str(path))
    assert code == 1
    report = json.loads(out)
    jsonschema.validate(report, schema("line_report.schema.json"))
    assert report["config"]["count"] == count and not report["valid"]
    assert report["realization"] is None
    graph6 = report["chirality_graph6"]
    assert isinstance(graph6, str) if count == 16 else graph6 is None
    assert "bad pair (0,1)" in err and "vertex count" not in err


def test_gen_lower_bound_round_trip(capsys, tmp_path, monkeypatch):
    code, out, _ = run_cli(capsys, "gen-lower-bound", "--dim", "4")
    assert code == 0
    cfg = json.loads(out)
    assert cfg["dim"] == 4 and len(cfg["lines"]) == 6

    # pipe the generated config into check-lines --distances-only via stdin
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out2, _ = run_cli(capsys, "check-lines", "-", "--distances-only")
    assert code == 0
    report = json.loads(out2)
    assert report["mode"] == "distances-only"
    assert report["valid"]
    assert report["config"]["has_parallel"]  # parallel pairs allowed here


def test_gen_lower_bound_rejects_dim_2(capsys):
    assert run_cli(capsys, "gen-lower-bound", "--dim", "2")[0] == 2


def test_gen_lower_bound_rejects_dim_above_the_cap(capsys):
    code, out, err = run_cli(capsys, "gen-lower-bound", "--dim", "513")
    assert (code, out) == (2, "")
    assert "512" in err


def test_check_lines_full_mode_requires_r3(capsys, tmp_path, monkeypatch):
    import io

    buffer = io.StringIO()
    monkeypatch.setattr(sys, "stdout", buffer)
    assert main(["gen-lower-bound", "--dim", "5"]) == 0
    monkeypatch.undo()
    path = tmp_path / "r5.json"
    path.write_text(buffer.getvalue())
    code, _, err = run_cli(capsys, "check-lines", str(path))
    assert code == 1
    assert "distances-only" in err


def test_search_rejects_out_of_range_n(capsys):
    assert run_cli(capsys, "search", "--family", "default", "--n", "17")[0] == 2


# -- catalog ----------------------------------------------------------------------


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    # every line carries the graph's canonical code
    digest = "561c68cabbbc7a694b523abe90728e6775f385b2149cef7a70399ae4758b151f"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    lines = {line.split()[0]: line for line in out.strip().splitlines()}
    assert set(lines) == {
        "K1", "K2", "K3", "K4", "K5", "K6", "K7", "K8", "K3,2",
        "C3", "C4", "C5", "C6", "C7",
        "H6", "H7", "K6-C5", "K6-H6", "K7-C5", "K7-H6", "K7-H7", "K8-H7",
    }
    h6 = lines["H6"]
    assert "edges={12,15,23,26,34,45,56}" in h6
    assert "graph6=EhdG" in h6
    h7 = lines["H7"]
    assert "edges={12,13,14,23,25,36,47,57,67}" in h7
    k7h7 = lines["K7-H7"]
    assert k7h7.count(",") == 11  # 12 edges
    for line in lines.values():
        assert "canonical=" in line and "graph6=" in line


# -- output ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--family", "default", "--n", "3", "--jobs", "1", "--quiet"],
        ["verify-signatures", "--trials", "1"],
        ["check-lines", bundled_path("three_lines.json")],
        ["gen-lower-bound", "--dim", "3"],
        ["catalog"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error:")
    assert not out_path.exists()


# config files the cases below name, written into the test's directory
CONFIGS = {
    "one-line.json": {"dim": 3, "lines": [{"base": [0, 0, 0], "dir": [1, 0, 0]}]},
    "r4.json": lower_bound_config(4).to_json_obj(),
}


def write_configs(tmp_path, argv):
    for name, cfg in CONFIGS.items():
        (tmp_path / name).write_text(dumps(cfg), encoding="utf-8")
    return [str(tmp_path / arg) if arg in CONFIGS else arg for arg in argv]


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["search", "--n", "6", "--jobs", "1", "--quiet"], 0),
        (["search", "--jobs", "1", "--quiet", "--cap", "10"], 3),
        (["verify-signatures", "--trials", "5", "--seed", "1"], 0),
        (["verify-signatures", "--trials", "5", "--seed", "1", "--selftest-corrupt"], 1),
        (["check-lines", bundled_path("three_lines.json")], 0),
        (["check-lines", "one-line.json"], 1),
        (["check-lines", "r4.json", "--distances-only"], 0),
        (["check-lines", "r4.json"], 1),
        (["gen-lower-bound", "--dim", "5"], 0),
        (["catalog"], 0),
    ],
    ids=[
        "search", "search-capped", "verify-signatures", "verify-signatures-corrupt",
        "check-lines", "check-lines-one-line", "check-lines-distances-only",
        "check-lines-outside-r3", "gen-lower-bound", "catalog",
    ],
)
def test_out_holds_what_stdout_would(capsys, tmp_path, argv, exit_code):
    argv = write_configs(tmp_path, argv)
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    out_path = tmp_path / "report"
    code, stdout, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert (code, stdout) == (exit_code, "")
    if not out:  # full-mode check-lines outside R^3 writes no report
        assert not out_path.exists()
    elif argv[0] == "search":  # the levels' seconds differ between runs
        written = json.loads(out_path.read_bytes())
        assert timing_free(written) == timing_free(json.loads(out))
    else:
        assert out_path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("flag", ["--out", "--witnesses"])
def test_search_checks_output_paths_before_searching(capsys, tmp_path, monkeypatch, flag):
    def no_search(*args, **kwargs):
        raise AssertionError("run_search called despite an unwritable path")

    monkeypatch.setattr("champagne.cli.run_search", no_search)
    path = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, "search", "--n", "4", "--quiet", flag, str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error:")


def test_search_path_probe_keeps_existing_and_leaves_no_file(capsys, tmp_path):
    existing = tmp_path / "report.json"
    existing.write_text("old")
    fresh = tmp_path / "fresh.g6"
    # --n 0 is refused by the search after the paths are probed
    code, _, _ = run_cli(capsys, "search", "--n", "0", "--quiet",
                         "--out", str(existing), "--witnesses", str(fresh))
    assert code == 2
    assert existing.read_text() == "old"
    assert not fresh.exists()


def test_search_refuses_one_file_for_witnesses_and_report(capsys, tmp_path, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("run_search called with one path for both outputs")

    monkeypatch.setattr("champagne.cli.run_search", no_search)
    path = tmp_path / "both"
    path.write_text("old")
    same = f"{tmp_path}/./both"  # another spelling of the same file
    code, out, err = run_cli(capsys, "search", "--family", "r34", "--n", "9", "--quiet",
                             "--witnesses", str(path), "--out", same)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: --witnesses and --out name the same file: {same}"]
    assert path.read_text() == "old"


# -- installed entry point ----------------------------------------------------------


def test_console_entry_point_pipe():
    gen = subprocess.run(
        [sys.executable, "-m", "champagne.cli", "gen-lower-bound", "--dim", "3"],
        capture_output=True, text=True, check=True,
    )
    check = subprocess.run(
        [sys.executable, "-m", "champagne.cli", "check-lines", "-", "--distances-only"],
        input=gen.stdout, capture_output=True, text=True,
    )
    assert check.returncode == 0
    assert json.loads(check.stdout)["valid"]


def _cli_env(blas_threads):
    """This environment with OPENBLAS_NUM_THREADS removed, or set to `blas_threads`."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("blas_threads", [None, "4"], ids=["unset", "4"])
def test_cli_import_runs_numpy_on_one_thread(blas_threads):
    # OpenBLAS starts its workers when numpy loads; the CLI must leave none
    code = (
        "import champagne.cli, numpy, os\n"
        "numpy.ones((256, 256)) @ numpy.ones((256, 256))\n"
        "print(len(os.listdir('/proc/self/task')))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_cli_env(blas_threads),
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "1"


def test_gen_lower_bound_bytes_do_not_depend_on_blas_threads():
    # at dim 200 the QR in geometry._unit_simplex is large enough to thread
    digests = {
        hashlib.sha256(subprocess.run(
            [sys.executable, "-m", "champagne.cli", "gen-lower-bound", "--dim", "200"],
            env=_cli_env(blas_threads), capture_output=True, check=True,
        ).stdout).hexdigest()
        for blas_threads in (None, "1", "2")
    }
    assert len(digests) == 1
