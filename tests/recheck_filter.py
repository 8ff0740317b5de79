"""Recheck every extension-filter verdict of the default-family search.

For each parent on levels 1-9 of `search --family default`, every one of
its 2^k one-vertex extensions is tested with `is_forbidden_incremental`
(induced subsets through the new vertex, one at a time) and compared with
the masks `_clean_extensions` keeps.  Exits 1 on any disagreement.  About
20 s on one core, so it runs as a CI step rather than in the test suite:

    PYTHONPATH=src python3 tests/recheck_filter.py
"""

import sys
import time

from champagne.forbidden import default_family, is_forbidden_incremental
from champagne.graphs import Graph, pair_count
from champagne.search import FeasibleLevel, _clean_extensions, extend_level


def main() -> int:
    fam = default_family()
    start = time.perf_counter()
    level = FeasibleLevel(1, (Graph(1, 0),))
    checked = disagreements = 0
    while level.k <= 9:
        k, shift = level.k, pair_count(level.k)
        for parent in level.graphs:
            clean = set(_clean_extensions(parent, fam).tolist())
            for mask in range(1 << k):
                child = Graph(k + 1, parent.bits | mask << shift)
                if is_forbidden_incremental(child, fam, k) == (mask in clean):
                    disagreements += 1
                    print(f"disagree: parent {parent.to_graph6()} mask {mask}")
            checked += 1 << k
        level = extend_level(level, fam)
    print(
        f"{checked} extensions rechecked, {disagreements} disagreements, "
        f"{time.perf_counter() - start:.1f} s"
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
