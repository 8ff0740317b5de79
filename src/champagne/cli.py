"""Command-line front end.

Subcommands: search, verify-signatures, check-lines, gen-lower-bound,
catalog.  All machine-readable output is UTF-8 JSON on stdout (or --out);
progress and diagnostics go to stderr.

Exit codes: 0 success / run complete, 1 verification failure or invalid
input configuration, 2 unusable input (parse errors, bad arguments) or an
--out path that cannot be written, 3 survivor cap exceeded.  Exit 2 is
decided in one place, `main`: every domain error is a ValueError, and
`jsonout.load` reports JSON nested too deeply as one.

Importing this module sets OPENBLAS_NUM_THREADS=1 before numpy loads, so
every command runs its numpy on one BLAS thread; code that imports the
library modules directly keeps numpy's default.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

# Before the first numpy import: idle OpenBLAS workers only burn CPU here,
# and a threaded QR makes gen-lower-bound's bytes depend on the core count.
# Only the CLI sets it; the library modules leave a host program's BLAS alone.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import catalog, geometry, signature
from .forbidden import default_family, load_family, ramsey_family
from .graphs import canonical_form
from .jsonout import dumps
from .search import DEFAULT_SURVIVOR_CAP, MAX_JOBS, SearchCapExceeded, run_search

FAMILY_ALIASES = {"default": default_family, "r34": lambda: ramsey_family(3, 4)}


def bundled_path(name: str) -> str:
    """Filesystem path of a bundled data file (for docs and tests)."""
    return str(resources.files("champagne").joinpath("data", name))


def _resolve_family(spec: str):
    if spec in FAMILY_ALIASES:
        return FAMILY_ALIASES[spec]()
    return load_family(spec)


def _emit(obj, out: str | None) -> None:
    _write(dumps(obj), out)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    else:
        print(text)


def _probe_writable(path: str) -> None:
    """Raise OSError now if `path` cannot be opened for writing, without
    truncating it or leaving a new file behind."""
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def cmd_search(args) -> int:
    fam = _resolve_family(args.family)
    # a search can run for minutes: refuse a bad path first (main probed --out)
    if args.witnesses:
        if args.out and os.path.realpath(args.out) == os.path.realpath(args.witnesses):
            raise ValueError(f"--witnesses and --out name the same file: {args.out}")
        _probe_writable(args.witnesses)
    try:
        report = run_search(
            fam, args.n, jobs=args.jobs, cap=args.cap, progress=not args.quiet,
            witnesses=bool(args.witnesses or args.embed_witnesses),
        )
    except SearchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit(exc.report, args.out)
        return 3
    if args.witnesses:
        _write("\n".join(report["witnesses"]["graph6"]), args.witnesses)
        report["witnesses"]["path"] = args.witnesses
        if not args.embed_witnesses:
            del report["witnesses"]["graph6"]
    _emit(report, args.out)
    return 0


def _catalog_signature_checks():
    """Adjacency-matrix signatures of the catalog graphs covered by the
    sign-pattern facts: odd cycles and H7."""
    expected = {f"C{n}": signature.expected_cycle_signature(n) for n in (3, 5, 7)}
    expected["H7"] = signature.H7_SIGNATURE
    checks = []
    for name, want in expected.items():
        m = signature.SymMatrix.adjacency(catalog.get(name))
        got = signature.signature_exact(m)
        checks.append(
            {
                "name": name,
                "expected": list(want),
                "got": list(got),
                "passed": got == want,
            }
        )
    return checks


def cmd_verify_signatures(args) -> int:
    lemmas = []
    for kind in signature.LEMMAS:
        lemma = signature.verify_pattern_lemma(
            kind, args.trials, args.seed, corrupt=args.selftest_corrupt
        )
        lemmas.append(lemma)
        status = "ok" if lemma["passed"] else "FAIL"
        print(f"{kind}: {status} ({args.trials} trials)", file=sys.stderr)
        for failure in lemma["failures"][:1]:
            print(
                "counterexample: " + json.dumps(failure, sort_keys=True),
                file=sys.stderr,
            )
    checks = _catalog_signature_checks()
    for check in checks:
        status = "ok" if check["passed"] else "FAIL"
        print(
            f"adjacency {check['name']}: {status} "
            f"(signature {tuple(check['got'])})",
            file=sys.stderr,
        )
    passed = all(l["passed"] for l in lemmas) and all(c["passed"] for c in checks)
    _emit(
        {
            "trials": args.trials,
            "seed": args.seed,
            "passed": passed,
            "lemmas": lemmas,
            "catalog_checks": checks,
        },
        args.out,
    )
    return 0 if passed else 1


def cmd_check_lines(args) -> int:
    cfg = geometry.load_config(sys.stdin if args.config == "-" else args.config)
    if args.tol is not None:
        cfg = geometry.LineConfig(cfg.dim, cfg.bases, cfg.directions, args.tol)
    if args.distances_only:
        report = geometry.config_report(cfg)
        _emit(
            {
                "mode": "distances-only",
                "valid": report.distances_ok,
                "config": report.to_json_obj(),
            },
            args.out,
        )
        return 0 if report.distances_ok else 1
    if cfg.dim != 3:
        # chirality is undefined outside R^3; distance checks still apply
        print(
            "error: chirality graphs are defined only in R^3 (try --distances-only)",
            file=sys.stderr,
        )
        return 1
    graph, report = geometry.chirality_graph(cfg)
    result = {
        "mode": "full",
        "config": report.to_json_obj(),
        "chirality_graph6": graph.to_graph6(),
        "realization": None,
        "valid": False,
    }
    if not report.valid:
        for pair in report.flagged(report.stray | report.parallel):
            print(
                f"bad pair ({pair['v']},{pair['w']}): distance="
                f"{pair['distance']:.6g} parallel={pair['parallel']}",
                file=sys.stderr,
            )
        _emit(result, args.out)
        return 1
    try:
        realization = geometry.check_realization(report)
    except geometry.GeometryError as exc:
        result["error"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        _emit(result, args.out)
        return 1
    result["realization"] = realization
    result["valid"] = realization["passed"]
    _emit(result, args.out)
    return 0 if realization["passed"] else 1


def cmd_gen_lower_bound(args) -> int:
    _emit(geometry.lower_bound_config(args.dim).to_json_obj(), args.out)
    return 0


def cmd_catalog(args) -> int:
    lines = []
    for name, g in catalog.CATALOG.items():
        edges = ",".join(f"{u + 1}{v + 1}" for u, v in sorted(g.edges()))
        lines.append(
            f"{name:6s} n={g.n} edges={{{edges}}} "
            f"graph6={g.to_graph6()} canonical={canonical_form(g).code}"
        )
    _write("\n".join(lines), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; it holds no stream or per-call state."""
    parser = argparse.ArgumentParser(
        prog="champagne",
        description=(
            "Verification toolkit for the mutually-touching-cylinders bound: "
            "feasible-coloring search, sign-pattern signatures, and "
            "equidistant line configurations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="grow feasible 2-colorings level by level")
    p.add_argument("--family", default="default",
                   help="'default', 'r34', or a family JSON path")
    p.add_argument("--n", type=int, default=10, help="largest vertex count")
    p.add_argument("--jobs", type=int, default=min(os.cpu_count() or 1, MAX_JOBS),
                   help=f"worker processes, 1..{MAX_JOBS} (default: all cores)")
    p.add_argument("--cap", type=int, default=DEFAULT_SURVIVOR_CAP,
                   help="per-level survivor cap")
    p.add_argument("--witnesses", metavar="PATH",
                   help="write final-level survivors to a graph6 file")
    p.add_argument("--embed-witnesses", action="store_true",
                   help="embed final-level survivors in the report JSON")
    p.add_argument("--out", metavar="PATH", help="write report JSON here")
    p.add_argument("--quiet", action="store_true", help="no progress lines")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-signatures",
                       help="randomized sign-pattern signature verification")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--selftest-corrupt", action="store_true",
                   help="zero one pattern slot per sample; the checks must fail")
    p.set_defaults(func=cmd_verify_signatures)

    p = sub.add_parser("check-lines",
                       help="validate a line configuration file ('-' for stdin)")
    p.add_argument("config", help="LineConfig JSON path or '-'")
    p.add_argument("--distances-only", action="store_true",
                   help="check unit distances only (parallel pairs allowed)")
    p.add_argument("--tol", type=float, default=None,
                   help="override the config's distance tolerance")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_check_lines)

    p = sub.add_parser("gen-lower-bound",
                       help="emit 2n-2 pairwise unit-distance lines in R^n")
    p.add_argument("--dim", type=int, required=True,
                   help=f"ambient dimension 3 <= n <= {geometry.MAX_LOWER_BOUND_DIM}")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_gen_lower_bound)

    p = sub.add_parser("catalog", help="list the named small graphs")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out:  # refuse an unwritable path before any command's work
            _probe_writable(args.out)
        return args.func(args)
    except (ValueError, OSError) as exc:  # unusable input or --out path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
