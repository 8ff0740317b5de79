"""Benchmark of the champagne CLI: time to verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark writes the workload's
inputs from the seed, then runs passes until S seconds are used (at least
MIN_PASSES).  Each pass is a fresh interpreter (one_pass.py) that imports
champagne from ./src, sets up and drives the CLI in-process once, as a CLI
user pays for it, and checks every output against reference.json.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, as medians over
the passes.  --trace 1 alternates an untraced and a traced pass of the
layer drive and reports the per-layer metrics of the median traced pass,
plus trace.overhead_ratio.  The last line of stdout is the result
JSON; the line before it holds provenance.  Scratch files, the spans of the
last traced pass and the full result go to .perfbench_work/WORKLOAD/.
See NOTES.md for why these workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

MIN_PASSES = 3  # untraced passes per run, so each figure is a median
SETUP_PASSES = 8  # extra set-up-only passes, so setup_s is a median of more
RUN_LIMIT_S = 170.0  # every pass of a run ends within this, or is killed


def _metric_specs(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def _source_digest(package: str) -> str:
    """sha256 over the package's files (bytecode caches excluded), in path order."""
    paths = []
    for folder, dirs, files in os.walk(package):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.join(folder, name) for name in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, package).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Runner:
    """Starts the passes of one run and collects what they report."""

    def __init__(self, root: str, workload: str, work: str):
        self.root, self.workload, self.work = root, workload, work
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("RAMSEY_JOBS", None)  # would override --jobs
        self.errors: list[str] = []

    def one_pass(self, drive: str, trace: bool) -> dict | None:
        budget = RUN_LIMIT_S - (time.monotonic() - self.started)
        if budget <= 0:
            self.errors.append(f"{drive} pass not started: run time limit reached")
            return None
        stderr_path = os.path.join(self.work, "pass.stderr")
        argv = [sys.executable, os.path.join(HERE, "one_pass.py"), self.workload, drive,
                str(int(trace)), self.work]
        with open(stderr_path, "wb") as err:
            spawned = time.monotonic_ns()
            proc = subprocess.Popen(argv + [str(spawned)], cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err, start_new_session=True)
            try:
                stdout, _ = proc.communicate(timeout=budget)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                self.errors.append(f"{drive} pass killed after {budget:.0f} s")
                return None
        wall = (time.monotonic_ns() - spawned) / 1e9
        lines = stdout.decode("utf-8", "replace").strip().splitlines()
        if proc.returncode != 0 or not lines:
            with open(stderr_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            self.errors.append(f"{drive} pass exit {proc.returncode}: {tail}")
            return None
        result = json.loads(lines[-1])
        result.update(drive=drive, trace=trace, wall_s=wall)
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    package = os.path.join(root, "src", "champagne")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no champagne sources under {package}; run from a checkout root",
              file=sys.stderr)
        return 2
    specs = _metric_specs(root)
    work = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # byte-compile once, so no pass pays for it
    compileall.compile_dir(package, quiet=1)
    manifest = workloads.make_inputs(args.workload, args.seed, root, os.path.join(work, "inputs"))
    with open(os.path.join(work, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True)

    runner = Runner(root, args.workload, work)
    setups, plain, traced = [], [], []
    if args.trace:
        # the layer drive of the search workloads is level by level; the
        # others drive the CLI as the untraced run does
        drive = "levels" if args.workload in workloads.SEARCH else "cli"
        while True:
            untraced = runner.one_pass(drive, trace=False)
            done = untraced and runner.one_pass(drive, trace=True)
            if not done:
                break
            plain.append(untraced)
            traced.append(done)
            if runner.elapsed() + untraced["wall_s"] + done["wall_s"] > args.seconds:
                break
    else:
        setups = [runner.one_pass("setup", trace=False) for _ in range(SETUP_PASSES)]
        setups = [p for p in setups if p]
        while True:
            done = runner.one_pass("cli", trace=False)
            if not done:
                break
            plain.append(done)
            if len(plain) >= MIN_PASSES and runner.elapsed() + _median(plain, "wall_s") > args.seconds:
                break

    passes = plain + traced
    if not (traced if args.trace else plain):
        print("error: no pass completed:\n" + "\n".join(runner.errors), file=sys.stderr)
        return 1
    attempted = sum(p["checked"] for p in passes) + len(runner.errors)
    failures = [f for p in passes for f in p["failures"]] + runner.errors
    if args.trace:
        units = specs["per_layer"]
        # every layer figure comes from one pass, the median one, so they add up
        values = dict(sorted(traced, key=lambda p: p["verdict_s"])[(len(traced) - 1) // 2]["layers"])
        values["trace.overhead_ratio"] = _median(traced, "verdict_s") / _median(plain, "verdict_s")
    else:
        units = specs["end_to_end"]
        values = {name: _median(plain, name) for name in units}
        values["setup_s"] = _median(setups + plain, "setup_s")
    provenance = dict(
        passes[0]["provenance"],
        workload=args.workload,
        seed=args.seed,
        git_commit=_git_commit(root),
        src_sha256=_source_digest(package),
        passes=len(passes),
        setup_passes=len(setups),
    )
    failed_ratio = len(failures) / attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "failed_ratio": failed_ratio, "provenance": provenance,
                   "failures": failures,
                   "passes": passes, "setup_passes": setups}, fh, indent=2, sort_keys=True)
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"failed_ratio": failed_ratio, "provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
