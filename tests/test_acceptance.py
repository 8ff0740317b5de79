"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines live.
Every tolerance and time budget is asserted here, not just eyeballed.
"""

import json
import random
import time

import numpy as np
from conftest import feasible_levels
from oracles import brute_force_level_codes, cycle_eigenvalues, is_forbidden

from champagne import catalog, cli, geometry
from champagne.forbidden import default_family, ramsey_family
from champagne.graphs import (
    Graph,
    canonical_form,
    complement,
    cone,
    is_isomorphic,
    pair_count,
    permute,
    switch,
)
from champagne.jsonout import dumps
from champagne.search import _clean_extensions, run_search, timing_free
from champagne.signature import SymMatrix, verify_pattern_lemma


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {label}: {status}{suffix}")
    assert ok, f"criterion {number:02d} {label} failed{suffix}"


def test_criterion_01_default_search_is_empty_at_10(capsys, tmp_path):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = cli.main(
        ["search", "--family", "default", "--n", "10", "--quiet",
         "--out", str(out)]
    )
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    rep = json.loads(out.read_text())
    ok = (
        code == 0
        and rep["verdict"] == {"kind": "empty-at-k", "k": 10}
        and elapsed <= 1800
    )
    with capsys.disabled():
        report(1, "every 10-line coloring hits the forbidden list", ok,
               f"{elapsed:.1f}s, budget 1800s")


def test_criterion_02_r34_crosscheck(capsys):
    start = time.perf_counter()
    rep = run_search(ramsey_family(3, 4), 9)
    elapsed = time.perf_counter() - start
    counts = {l["k"]: l["count"] for l in rep["levels"]}
    ok = (
        rep["verdict"] == {"kind": "empty-at-k", "k": 9}
        and counts[8] >= 1
        and elapsed <= 10
    )
    with capsys.disabled():
        report(2, "red-K3/blue-K4 family dies at 9 with level 8 populated", ok,
               f"level8={counts[8]}, {elapsed:.2f}s, budget 10s")


def test_criterion_03_small_n_oracle_equivalence(capsys):
    start = time.perf_counter()
    ok = True
    for fam in (default_family(), ramsey_family(3, 4)):
        for level in feasible_levels(fam, 7):
            if tuple(level.codes()) != brute_force_level_codes(fam, level.k):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 300
    with capsys.disabled():
        report(3, "levels equal direct enumeration for n <= 7, both families",
               ok, f"{elapsed:.1f}s, budget 300s")


def test_criterion_04_signature_lemmas(capsys):
    expected = {
        "cycle(5)": (3, 0, 2),
        "cycle(7)": (3, 0, 4),
        "cycle(9)": (5, 0, 4),
        "h7": (4, 0, 3),
    }
    start = time.perf_counter()
    ok = True
    for kind, sig in expected.items():
        lemma = verify_pattern_lemma(kind, trials=1000, seed=0)
        if not lemma["passed"] or lemma["expected_signature"] != list(sig):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 60
    with capsys.disabled():
        report(4, "4x1000 sign-pattern trials, exact determinants", ok,
               f"{elapsed:.1f}s, budget 60s")


def test_criterion_05_cycle_spectra(capsys):
    worst = 0.0
    for n in (3, 5, 7, 9):
        adjacency = np.array(
            SymMatrix.adjacency(catalog.cycle_graph(n)).entries, dtype=float
        )
        got = np.linalg.eigvalsh(adjacency)
        worst = max(worst, float(np.abs(got - np.array(cycle_eigenvalues(n))).max()))
    with capsys.disabled():
        report(5, "cycle spectra match 2cos(2 pi k/n) within 1e-9", worst <= 1e-9,
               f"max deviation {worst:.2e}")


def test_criterion_06_switching_identities(capsys):
    edgeless = switch(switch(catalog.get("K3,2"), 3), 4) == Graph(5)
    switched = is_isomorphic(
        switch(switch(catalog.get("K7-H6"), 1), 4), catalog.get("K7-C5")
    )
    with capsys.disabled():
        report(6, "switching identities (exact, no tolerance)",
               edgeless and switched)


def test_criterion_07_cone_identities(capsys):
    pairs = [("K4", "K5"), ("K6-C5", "K7-C5"), ("K6-H6", "K7-H6"),
             ("K7-H7", "K8-H7")]
    ok = all(
        is_isomorphic(cone(catalog.get(a)), catalog.get(b)) for a, b in pairs
    )
    with capsys.disabled():
        report(7, "cone identities for the all-red apex step", ok)


def test_criterion_08_bundled_three_line_realization(capsys):
    cfg = geometry.load_config(cli.bundled_path("three_lines.json"))
    rep = geometry.check_realization(geometry.config_report(cfg))
    props = rep["properties"]
    ok = (
        rep["passed"]
        and rep["max_distance_deviation"] <= 1e-9
        and props["at_most_3_negative_eigenvalues"]["passed"]
        and props["abs_matrix_signature"]["signature"] == [1, 0, 2]
    )
    with capsys.disabled():
        report(8, "bundled 3-line configuration satisfies all four constraints",
               ok, f"max distance deviation {rep['max_distance_deviation']:.2e}")


def test_criterion_09_lower_bound_generator(capsys, monkeypatch):
    import io

    ok = True
    detail = []
    for n in (3, 4, 5, 6):
        buffer = io.StringIO()
        monkeypatch.setattr("sys.stdout", buffer)
        code = cli.main(["gen-lower-bound", "--dim", str(n)])
        monkeypatch.undo()
        cfg = geometry.LineConfig.from_json_obj(json.loads(buffer.getvalue()))
        worst = max(
            abs(geometry.line_distance(cfg.lines[i], cfg.lines[j]) - 1.0)
            for i in range(len(cfg))
            for j in range(i + 1, len(cfg))
        )
        detail.append(f"n={n}:{worst:.1e}")
        if code != 0 or len(cfg) != 2 * n - 2 or worst > 1e-12:
            ok = False
    with capsys.disabled():
        report(9, "2n-2 equidistant lines within 1e-12", ok, " ".join(detail))


def test_criterion_10_property_suites(capsys):
    rng = random.Random(20_26)
    fam = default_family()

    relabeling_ok = True
    for _ in range(10_000):
        n = rng.randint(1, 8)
        g = Graph(n, rng.getrandbits(pair_count(n)))
        perm = rng.sample(range(n), n)
        if canonical_form(g).code != canonical_form(permute(g, perm)).code:
            relabeling_ok = False
            break

    symmetry_ok = True
    for _ in range(2_000):
        n = rng.randint(1, 8)
        g = Graph(n, rng.getrandbits(pair_count(n)))
        if is_forbidden(g, fam) != is_forbidden(complement(g), fam):
            symmetry_ok = False
            break

    # the search's filter keeps exactly the one-vertex extensions of a
    # clean parent that the scalar check finds clean
    incremental_ok = True
    checked = 0
    while checked < 10_000 and incremental_ok:
        k = rng.randint(1, 7)
        parent = Graph(k, rng.getrandbits(pair_count(k)))
        if is_forbidden(parent, fam):
            continue
        clean = set(_clean_extensions(k, [parent.bits], fam)[0].tolist())
        children = (Graph(k + 1, parent.bits | m << pair_count(k)) for m in range(1 << k))
        incremental_ok = all(
            (mask in clean) != is_forbidden(child, fam)
            for mask, child in enumerate(children)
        )
        checked += 1 << k

    reports = [
        run_search(fam, 8, jobs=jobs, witnesses=True)
        for jobs in (1, 2, 3)
    ]
    blobs = {dumps(timing_free(r)) for r in reports}
    determinism_ok = len(blobs) == 1

    ok = relabeling_ok and symmetry_ok and incremental_ok and determinism_ok
    with capsys.disabled():
        report(
            10,
            "property suites (relabeling, symmetry, incremental, determinism)",
            ok,
            f"relabel={relabeling_ok} symmetry={symmetry_ok} "
            f"incremental={incremental_ok} determinism={determinism_ok}",
        )
