"""Recheck every level step of the default-family search to 10 vertices.

For each class on levels 1-9 of `search --family default` (its lex-min
code from `FeasibleLevel.codes()`), every one of its 2^k one-vertex
extensions is tested with the scalar oracle `is_forbidden` of
tests/oracles.py (induced subsets through the new vertex, one at a time).
Two checks ride on that one loop:

- filter: the verdict agrees with the masks `_clean_extensions` keeps;
- closure: the lex-min code of each clean child is a class of level k+1,
  so level 10, being empty, certifies that no clean coloring of K_10
  exists without trusting canonical augmentation.

Exits 1 on any disagreement or miss.  About 20 s on one core, so it runs
as a CI step rather than in the test suite:

    PYTHONPATH=src python3 tests/recheck_levels.py
"""

import itertools
import sys
import time

from oracles import is_forbidden  # tests/, this script's directory

from champagne.forbidden import default_family
from champagne.graphs import Graph, canonical_form, pair_count
from champagne.search import _clean_extensions, levels


def main() -> int:
    fam = default_family()
    start = time.perf_counter()
    checked = disagreements = misses = 0
    for level, after in itertools.pairwise(levels(fam, 10)):
        k, shift, classes = level.k, pair_count(level.k), set(after.codes())
        for code in level.codes():
            parent = Graph(k, code)
            clean = set(_clean_extensions(parent, fam).tolist())
            for mask in range(1 << k):
                child = Graph(k + 1, code | mask << shift)
                forbidden = is_forbidden(child, fam, through=k)
                if forbidden == (mask in clean):
                    disagreements += 1
                    print(f"disagree: parent {parent.to_graph6()} mask {mask}")
                if not forbidden and canonical_form(child).code not in classes:
                    misses += 1
                    print(f"missed: child {child.to_graph6()} of level {k + 1}")
            checked += 1 << k
    print(
        f"{checked} extensions rechecked, {disagreements} disagreements, "
        f"{misses} closure misses, {time.perf_counter() - start:.1f} s"
    )
    return 1 if disagreements or misses else 0


if __name__ == "__main__":
    sys.exit(main())
