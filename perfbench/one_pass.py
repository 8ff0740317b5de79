"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/one_pass.py WORKLOAD DRIVE TRACE WORK_DIR SPAWNED_NS

run from the checkout root with PYTHONPATH=src.  DRIVE is `cli` (the CLI
calls a user makes), `levels` (the search level by level through the
public `extend_level`, at one job) or `setup` (set up, then stop).
TRACE 1 installs the span recorder before the program's set-up.
SPAWNED_NS is the parent's
`time.monotonic_ns()` just before it started this process, so `setup_s`
counts interpreter start, `import champagne` and family compilation.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _usage() -> tuple[float, float]:
    """CPU seconds and peak RSS in MB of this process and its reaped workers."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def main(argv: list[str]) -> int:
    workload, drive, trace, work, spawned_ns = argv
    trace, spawned_ns = trace == "1", int(spawned_ns)
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    import champagne
    import champagne.cli  # noqa: F401  (the whole program, as the console script loads it)

    if not os.path.realpath(champagne.__file__).startswith(src + os.sep):
        print(f"champagne imported from {champagne.__file__}, not {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from tracer import Tracer, layer_metrics

    inputs = os.path.join(work, "inputs")
    with open(os.path.join(work, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()

    fam = None
    if workload in workloads.SEARCH:
        fam = workloads.compile_family(workload, inputs)
    setup_s = (time.monotonic_ns() - spawned_ns) / 1e9

    if drive == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    out = os.path.join(work, "out", str(os.getpid()))
    os.makedirs(out)
    if tracer:
        tracer.run = "layers"
    outcome, facts = workloads.Outcome(), {}
    t0 = time.perf_counter()
    if drive == "levels":
        levels = workloads.drive_search_levels(workload, fam, outcome, facts)
    elif workload in workloads.SEARCH:
        workloads.drive_search_cli(workload, inputs, out, outcome)
    elif workload == "signatures":
        workloads.drive_signatures(manifest["seed"], out, outcome)
    else:
        workloads.drive_lines(manifest, out, outcome)
    verdict_s = time.perf_counter() - t0
    cpu_s, peak_rss_mb = _usage()

    if tracer and drive == "levels" and workloads.SEARCH[workload]["jobs"] > 1:
        # the top level once more through the fork pool, for pool_speedup
        from champagne import search

        tracer.run = "pool"
        top = search.extend_level(levels[-2], fam, workloads.SEARCH[workload]["jobs"])
        outcome.check("pooled top level", [] if top == levels[-1] else ["differs from jobs 1"])

    result = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "checked": outcome.checked,
        "failures": outcome.failures,
        "provenance": {
            "champagne": champagne.__version__,
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "nproc": os.cpu_count(),
            "family_sha256": workloads.family_digest(fam) if fam else None,
        },
    }
    if tracer:
        facts["pairs"] = workloads.line_pairs(manifest)
        result["layers"] = layer_metrics(tracer.spans, facts)
        tracer.write(os.path.join(work, "spans.tsv.gz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
