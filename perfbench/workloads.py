"""The benchmark's workloads: seeded inputs, the CLI calls of one pass, and
the check of every output against the pinned references in reference.json.

`make_inputs` runs in the benchmark's parent process and never imports
champagne.  The drives run in a fresh interpreter per pass (one_pass.py)
and call `champagne.cli.main` in-process, exactly as the `champagne`
console script would.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)

SEARCH = {
    "search-default10": {"family": "default", "n": 10, "jobs": 1},
    "search-r44-n8-jobs2": {"family": "r44_family.json", "n": 8, "jobs": 2},
}
WORKLOADS = (*SEARCH, "signatures", "lines")
R44_FAMILY = [{"pattern": "K4", "scope": "both"}]
# 1000 trials take about 10 s; three such passes left the 10-seed spread of
# verdict_s at 0.26, so a pass runs 250 and a run holds several passes
SIGNATURE_TRIALS = 250

# lines: the seed moves every coordinate but never the amount of work
LINE_MOTIONS = 40
LINE_RANDOM_SIZES = tuple(range(4, 11)) * 2
LOWER_BOUND_DIMS = tuple(range(10, 61, 5))


# -- inputs (parent process) ---------------------------------------------------


def _dump(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def _rotation(rng: random.Random):
    """Uniform random proper rotation of R^3 from a unit quaternion."""
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a = math.sqrt(1 - u1) * math.sin(2 * math.pi * u2)
    b = math.sqrt(1 - u1) * math.cos(2 * math.pi * u2)
    c = math.sqrt(u1) * math.sin(2 * math.pi * u3)
    d = math.sqrt(u1) * math.cos(2 * math.pi * u3)
    return (
        (1 - 2 * (c * c + d * d), 2 * (b * c - a * d), 2 * (b * d + a * c)),
        (2 * (b * c + a * d), 1 - 2 * (b * b + d * d), 2 * (c * d - a * b)),
        (2 * (b * d - a * c), 2 * (c * d + a * b), 1 - 2 * (b * b + c * c)),
    )


def _apply(rot, vec):
    return [sum(r * v for r, v in zip(row, vec)) for row in rot]


def _unit(rng: random.Random):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return [x / norm for x in v]


def make_inputs(workload: str, seed: int, root: str, inputs: str) -> dict:
    """Write the workload's input files into `inputs`; return the manifest.

    The same seed gives byte-identical files.  The search workloads take
    no seed-dependent input: their only file is the fixed R(4,4) family.
    """
    os.makedirs(inputs, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed, "configs": []}
    if workload == "search-r44-n8-jobs2":
        _dump(R44_FAMILY, os.path.join(inputs, "r44_family.json"))
    if workload != "lines":
        return manifest
    rng = random.Random(f"lines:{seed}")
    with open(os.path.join(root, "src", "champagne", "data", "three_lines.json"),
              encoding="utf-8") as fh:
        three = json.load(fh)
    configs = manifest["configs"]
    for i in range(LINE_MOTIONS):
        rot = _rotation(rng)
        shift = [rng.uniform(-5.0, 5.0) for _ in range(3)]
        lines = []
        for line in three["lines"]:
            sign = -1.0 if rng.random() < 0.5 else 1.0
            base = [x + s for x, s in zip(_apply(rot, line["base"]), shift)]
            lines.append({"base": base, "dir": [sign * x for x in _apply(rot, line["dir"])]})
        path = os.path.join(inputs, f"motion{i:02d}.json")
        _dump({"dim": 3, "tolerance": three["tolerance"], "lines": lines}, path)
        configs.append({"kind": "motion", "path": path, "count": len(lines)})
    for i, k in enumerate(LINE_RANDOM_SIZES):
        lines = [
            {"base": [rng.uniform(-1.5, 1.5) for _ in range(3)], "dir": _unit(rng)}
            for _ in range(k)
        ]
        path = os.path.join(inputs, f"random{i:02d}.json")
        _dump({"dim": 3, "tolerance": 1e-9, "lines": lines}, path)
        configs.append({"kind": "random", "path": path, "count": k})
    for dim in LOWER_BOUND_DIMS:
        configs.append({"kind": "lower_bound", "dim": dim, "count": 2 * dim - 2})
    return manifest


# -- one pass (fresh interpreter) ----------------------------------------------


class Outcome:
    """Outputs checked in one pass and what was wrong with each bad one."""

    def __init__(self):
        self.checked = 0
        self.failures: list[str] = []

    def check(self, label: str, problems: list[str]) -> None:
        self.checked += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """Exit code of `champagne <argv>` run in-process, and its stderr.

    An exception escaping the CLI yields code None and the traceback."""
    import champagne.cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = champagne.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            return None, traceback.format_exc()
    return code, err.getvalue()


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh), None
    except (OSError, ValueError) as exc:
        return None, f"unreadable output {path}: {exc}"


def timing_free_sha256(report: dict) -> str:
    """sha256 of the report as `SearchReport.to_json(with_timing=False)`
    would serialize it: no per-level seconds, no worker count."""
    obj = dict(report)
    obj["levels"] = [{k: v for k, v in lv.items() if k != "seconds"} for lv in obj["levels"]]
    obj.pop("jobs", None)
    text = json.dumps(obj, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def family_path(workload: str, inputs: str) -> str:
    """The `--family` argument of a search workload."""
    spec = SEARCH[workload]["family"]
    return spec if spec == "default" else os.path.join(inputs, spec)


def compile_family(workload: str, inputs: str):
    """The program's set-up for a search: load and compile the family."""
    from champagne import cli, forbidden

    path = family_path(workload, inputs)
    if path == "default":
        path = cli.bundled_path("default_family.json")
    return forbidden.load_family(path)


def family_digest(fam) -> str:
    sorted_codes = {str(m): sorted(codes) for m, codes in fam.bad_codes.items()}
    return hashlib.sha256(json.dumps(sorted_codes, sort_keys=True).encode()).hexdigest()


def drive_search_cli(workload: str, inputs: str, out: str, outcome: Outcome) -> None:
    spec, ref = SEARCH[workload], REFERENCE[workload]
    path = os.path.join(out, "report.json")
    code, err = run_cli([
        "search", "--family", family_path(workload, inputs), "--n", str(spec["n"]),
        "--jobs", str(spec["jobs"]), "--quiet", "--out", path,
    ])
    problems = []
    if code != 0:
        problems.append(f"exit {code}: {err.strip()[-500:]}")
    report, bad = _read_json(path)
    if bad:
        problems.append(bad)
    else:
        counts = [lv["count"] for lv in report["levels"]]
        if counts != ref["counts"]:
            problems.append(f"level counts {counts}")
        if report["verdict"] != ref["verdict"]:
            problems.append(f"verdict {report['verdict']}")
        if timing_free_sha256(report) != ref["report_sha256"]:
            problems.append("timing-free report sha256 differs")
    outcome.check("search report", problems)


def drive_search_levels(workload: str, fam, outcome: Outcome, facts: dict) -> list:
    """The same search, level by level through the public `extend_level` at
    one job; returns the feasible levels."""
    from champagne import search
    from champagne.graphs import Graph

    ref = REFERENCE[workload]
    level = search.FeasibleLevel(1, (Graph(1, 0),))
    levels = [level]
    expanded = 0
    while level.k < SEARCH[workload]["n"] and level.count > 0:
        expanded += level.count << level.k
        level = search.extend_level(level, fam, 1)
        levels.append(level)
    counts = [lv.count for lv in levels]
    if level.count == 0:
        verdict = {"kind": "empty-at-k", "k": level.k}
    else:
        verdict = {"kind": "feasible-survivors", "k": level.k, "count": level.count}
    problems = []
    if counts != ref["counts"]:
        problems.append(f"level counts {counts}")
    if verdict != ref["verdict"]:
        problems.append(f"verdict {verdict}")
    outcome.check("search levels", problems)
    facts["expanded"] = expanded
    facts["classes"] = sum(counts[1:])
    return levels


def drive_signatures(seed: int, out: str, outcome: Outcome) -> None:
    ref = REFERENCE["signatures"]
    path = os.path.join(out, "signatures.json")
    code, err = run_cli([
        "verify-signatures", "--trials", str(SIGNATURE_TRIALS), "--seed", str(seed),
        "--out", path,
    ])
    if code != ref["exit"]:
        outcome.check("verify-signatures exit", [f"exit {code}: {err.strip()[-500:]}"])
    report, bad = _read_json(path)
    if bad:
        outcome.check("verify-signatures report", [bad])
        return
    lemmas = {lm["kind"]: lm for lm in report["lemmas"]}
    for kind in ref["lemmas"]:
        got = {key: lemmas.get(kind, {}).get(key) for key in ("passed", "trials", "seed")}
        want = {"passed": True, "trials": SIGNATURE_TRIALS, "seed": seed}
        outcome.check(f"lemma {kind}", [] if got == want else [f"got {got}"])
    checks = {c["name"]: c["passed"] for c in report["catalog_checks"]}
    for name in ref["catalog_checks"]:
        outcome.check(f"catalog {name}", [] if checks.get(name) is True else ["not passed"])


def drive_lines(manifest: dict, out: str, outcome: Outcome) -> None:
    expected = REFERENCE["lines"]
    for i, cfg in enumerate(manifest["configs"]):
        ref = expected[cfg["kind"]]
        report_path = os.path.join(out, f"lines{i:03d}.json")
        problems = []
        if cfg["kind"] == "lower_bound":
            path = os.path.join(out, f"lower_bound{cfg['dim']}.json")
            code, err = run_cli(["gen-lower-bound", "--dim", str(cfg["dim"]), "--out", path])
            if code != 0:
                problems.append(f"gen-lower-bound exit {code}: {err.strip()[-500:]}")
            argv = ["check-lines", path, "--distances-only", "--out", report_path]
        else:
            argv = ["check-lines", cfg["path"], "--out", report_path]
        code, err = run_cli(argv)
        if code != ref["exit"]:
            problems.append(f"exit {code}, expected {ref['exit']}: {err.strip()[-500:]}")
        report, bad = _read_json(report_path)
        if bad:
            problems.append(bad)
        else:
            if report["valid"] is not ref["valid"]:
                problems.append(f"valid {report['valid']}")
            if report["config"]["count"] != cfg["count"]:
                problems.append(f"count {report['config']['count']}")
        outcome.check(f"{cfg['kind']} config {i}", problems)


def line_pairs(manifest: dict) -> int:
    return sum(c["count"] * (c["count"] - 1) // 2 for c in manifest["configs"])
