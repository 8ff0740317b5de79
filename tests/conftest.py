import itertools
import random

import pytest
from hypothesis import strategies as st

from champagne.graphs import Graph, pair_count
from champagne.search import FeasibleLevel, levels


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.integers(0, (1 << pair_count(n)) - 1))
    return Graph(n, bits)


@st.composite
def graph_with_permutation(draw, min_n=1, max_n=8):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    perm = draw(st.permutations(range(g.n)))
    return g, tuple(perm)


def random_graph(rng: random.Random, n: int) -> Graph:
    return Graph(n, rng.getrandbits(pair_count(n)))


def isomorphic_by_permutations(g: Graph, h: Graph) -> bool:
    """Independent isomorphism oracle: try every relabeling (tiny n only)."""
    if g.n != h.n:
        return False
    from champagne.graphs import permute

    return any(
        permute(g, perm).bits == h.bits
        for perm in itertools.permutations(range(g.n))
    )


def feasible_levels(fam, n_max: int) -> list[FeasibleLevel]:
    """Levels 1.. of the search, up to n_max or the first empty level."""
    return list(levels(fam, n_max))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
