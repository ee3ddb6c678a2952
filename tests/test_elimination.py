import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbe import CapacityError
from tbe.elimination import ROUNDING_SLACK, Elimination, PairwiseNetwork, _descend, elimination_order, first, lowest


@st.composite
def _graphs(draw, max_nodes=9):
    n = draw(st.integers(0, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return n, [p for p in pairs if draw(st.booleans())]


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_elimination_order_is_min_fill_against_networkx(graph):
    # replay the order on a networkx graph: every step takes the lowest
    # of the variables whose neighbourhood misses the fewest edges
    nx = pytest.importorskip("networkx")  # a test reference only, not a dependency
    n, edges = graph
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    steps = elimination_order(n, edges)
    assert sorted(v for v, _ in steps) == list(range(n))
    for v, neighbours in steps:
        fills = {u: sum(1 for _ in nx.non_edges(g.subgraph(g[u]))) for u in g}
        least = min(fills.values())
        assert v == min(u for u, f in fills.items() if f == least)
        assert neighbours == tuple(sorted(g[v]))
        g.add_edges_from((a, b) for a in neighbours for b in neighbours if a < b)
        g.remove_node(v)


def test_elimination_width_of_a_chain_and_a_grid():
    chain = elimination_order(40, [(i, i + 1) for i in range(39)])
    assert max(len(nb) for _, nb in chain) == 1
    # the 5 x 8 grid, cell (r, c) numbered 8r + c
    grid = [(8 * r + c, 8 * r + c + 1) for r in range(5) for c in range(7)]
    grid += [(8 * r + c, 8 * r + c + 8) for r in range(4) for c in range(8)]
    steps = elimination_order(40, grid)
    assert max(len(nb) for _, nb in steps) == 5


@st.composite
def _networks(draw):
    """Up to 5 variables of 1 to 5 values, tables on a dyadic grid (so
    sums are exact and ties exact), on a random graph."""
    domains = draw(st.lists(st.integers(1, 5), min_size=0, max_size=5))
    n = len(domains)
    cost = st.integers(-8, 8).map(lambda x: x / 4)

    def table(*shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(cost, min_size=size, max_size=size)), dtype=float).reshape(shape)

    unary = tuple(table(d) for d in domains)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    pairwise = tuple((i, j, table(domains[i], domains[j])) for i, j in pairs)
    return PairwiseNetwork(tuple(domains), draw(cost), unary, pairwise)


@settings(max_examples=300, deadline=None)
@given(_networks(), st.sampled_from([0.0, 1e-12, 0.25, 1.0]))
def test_lowest_matches_enumeration(network, radius):
    every = np.array(list(product(*(range(d) for d in network.domains))), dtype=np.intp)
    every = every.reshape(len(every), len(network.domains))
    values = network.values(every)
    least = values.min()
    near = values <= least + radius
    rows, found, above = lowest(network, radius, gap=True)
    assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, every[near].tolist()))
    assert sorted(found.tolist()) == sorted(values[near].tolist())
    assert above == (values[~near].min() if (~near).any() else math.inf)
    assert Elimination(network).minimum == least


def _first_by_enumeration(network, priority):
    every = np.array(list(product(*(range(d) for d in network.domains))), dtype=np.intp)
    every = every.reshape(len(every), len(network.domains))
    values = network.values(every)
    tied = every[values == values.min()].tolist()
    return min(tied, key=lambda row: [row[v] for v in priority])


@settings(max_examples=300, deadline=None)
@given(_networks(), st.randoms(use_true_random=False))
def test_first_matches_enumeration(network, rnd):
    priority = list(range(len(network.domains)))
    rnd.shuffle(priority)
    want = _first_by_enumeration(network, priority)
    assert first(network, priority).tolist() == want
    # the costs are dyadic, so the ties within the slack are the exact
    # ties, and the descent that skips the listing finds the same row
    threshold = Elimination(network).minimum + ROUNDING_SLACK * network.scale()
    assert _descend(network, priority, threshold).tolist() == want


@pytest.mark.parametrize("priority", [range(14), range(13, -1, -1)])
def test_first_on_a_plateau_too_large_to_list(priority):
    # 4^14 assignments, all tied but for variable 0 (least at values 1
    # and 2) and the pair (5, 6) (least at (2, 3) and (3, 2)): listing
    # the 2^24 ties overflows, so the descent holds one variable at a time
    domains = (4,) * 14
    unary = (np.array([1.0, 0.0, 0.0, 1.0]), *(np.zeros(4) for _ in range(13)))
    pair = np.zeros((4, 4))
    pair[2, 3] = pair[3, 2] = -1.0
    network = PairwiseNetwork(domains, 0.0, unary, ((5, 6, pair),))
    with pytest.raises(CapacityError):
        lowest(network, 0.0)
    row = first(network, list(priority)).tolist()
    assert row == [1, 0, 0, 0, 0, *((2, 3) if priority[0] == 0 else (3, 2)), *[0] * 7]
    assert network.values(np.array([row])).tolist() == [-1.0]


def test_descent_takes_the_first_value_within_the_slack():
    # value 1 undercuts value 0 by far less than the slack, so the descent
    # holds variable 0 at 0 without trying further values
    network = PairwiseNetwork((3, 2), 0.0, (np.array([0.0, -2.0**-60, 1.0]), np.zeros(2)), ())
    threshold = Elimination(network).minimum + ROUNDING_SLACK * network.scale()
    assert _descend(network, [0, 1], threshold).tolist() == [0, 0]
    assert first(network, [0, 1]).tolist() == [1, 0]  # listed, the least wins


def test_value_sums_in_the_stated_order():
    network = PairwiseNetwork(
        (2, 2), 1e16, (np.array([1.0, 0.0]), np.array([1.0, 0.0])), ((0, 1, np.array([[-1e16, 0.0], [0.0, 0.0]])),)
    )
    # 1e16 + 1 rounds back to 1e16 (floats there are 2 apart), so added
    # after the constant the unit costs vanish, and the pairwise table
    # cancels the constant
    assert network.values(np.array([[0, 0]])).tolist() == [0.0]


def test_lowest_on_a_network_with_no_variables():
    rows, values, above = lowest(PairwiseNetwork((), 2.5, (), ()), 0.0, gap=True)
    assert rows.shape == (1, 0) and values.tolist() == [2.5] and above == math.inf


def test_width_past_the_cap_refused_before_any_table():
    # nine variables of 8 values on a complete graph: the first bucket
    # would hold 8^9 = 2^27 entries
    domains = (8,) * 9
    pairwise = tuple((i, j, np.zeros((8, 8))) for i in range(9) for j in range(i + 1, 9))
    network = PairwiseNetwork(domains, 0.0, tuple(np.zeros(8) for _ in domains), pairwise)
    with pytest.raises(CapacityError, match=r"width 8: .* 134217728 entries, over the 2\^24 cap"):
        Elimination(network)


@pytest.mark.parametrize("domains", [(32,) * 5, (4,) * 12])
def test_too_many_ties_refused(domains):
    # every assignment ties at 0; listing 32^5 of them needs a step table
    # of 2^25 entries, and 4^12 rows of 12 need 12 * 2^24 entries
    network = PairwiseNetwork(domains, 0.0, tuple(np.zeros(d) for d in domains), ())
    with pytest.raises(CapacityError, match="needs a table of more than 2\\^24 entries"):
        lowest(network, 0.0)
