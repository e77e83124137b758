"""Tests for workload/data generators."""

import pytest

from repro.sim import DeterministicRNG
from repro.workloads import (
    BinaryTree,
    ZipfGenerator,
    balanced_bst,
    banded_matrix,
    chain_graph,
    powerlaw_matrix,
    random_bst,
    rmat_graph,
    shuffled_identity,
    uniform_graph,
)


class TestZipf:
    def test_samples_in_range(self):
        z = ZipfGenerator(100, 1.0, DeterministicRNG(1, "z"))
        for s in z.sample_many(500):
            assert 0 <= s < 100

    def test_skew_concentrates_mass(self):
        rng = DeterministicRNG(1, "z")
        z = ZipfGenerator(1000, 1.2, rng)
        samples = z.sample_many(5000)
        top10 = sum(1 for s in samples if s < 10)
        assert top10 > 0.25 * len(samples)

    def test_zero_skew_is_uniform(self):
        z = ZipfGenerator(10, 0.0, DeterministicRNG(2, "z"))
        counts = [0] * 10
        for s in z.sample_many(10000):
            counts[s] += 1
        assert min(counts) > 700  # each ~1000

    def test_probabilities_sum_to_one(self):
        z = ZipfGenerator(50, 0.9, DeterministicRNG(1, "z"))
        assert sum(z.probability(k) for k in range(50)) == pytest.approx(1.0)

    def test_rank_zero_is_hottest(self):
        z = ZipfGenerator(50, 1.0, DeterministicRNG(1, "z"))
        assert z.probability(0) > z.probability(1) > z.probability(49)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0, 1.0, DeterministicRNG(1, "z"))
        with pytest.raises(ValueError):
            ZipfGenerator(10, -1.0, DeterministicRNG(1, "z"))

    @pytest.mark.parametrize("count", [0, 1, 700])
    def test_sample_many_is_repeated_sample(self, count):
        """``sample_many(n)`` draws what ``n`` calls of ``sample()`` draw
        and leaves the stream in the same state."""
        many = ZipfGenerator(300, 0.9, DeterministicRNG(4, "z"))
        one = ZipfGenerator(300, 0.9, DeterministicRNG(4, "z"))
        assert many.sample_many(count) == [one.sample() for _ in range(count)]
        assert many.rng._rng.getstate() == one.rng._rng.getstate()
        assert many.sample() == one.sample()

    def test_shuffled_identity_is_permutation(self):
        perm = shuffled_identity(100, DeterministicRNG(3, "p"))
        assert sorted(perm) == list(range(100))


class TestGraphs:
    def test_uniform_graph_shape(self):
        g = uniform_graph(100, 5, DeterministicRNG(1, "g"))
        assert g.n == 100
        assert 0 < g.m <= 500
        for v in range(g.n):
            assert all(0 <= u < g.n and u != v for u in g.neighbors(v))

    def test_rmat_power_law_skew(self):
        g = rmat_graph(1024, 8, DeterministicRNG(1, "g"))
        degrees = sorted((g.out_degree(v) for v in range(g.n)), reverse=True)
        # Heavy head: the top vertex has far more than the average degree.
        assert degrees[0] > 4 * (g.m / g.n)

    def test_rmat_requires_power_of_two(self):
        with pytest.raises(ValueError):
            rmat_graph(1000, 4, DeterministicRNG(1, "g"))

    def test_undirected_is_symmetric(self):
        g = rmat_graph(256, 4, DeterministicRNG(2, "g")).undirected()
        for v in range(g.n):
            for u in g.neighbors(v):
                assert v in g.neighbors(u)

    def test_weighted_graph(self):
        g = uniform_graph(50, 4, DeterministicRNG(1, "g"), weighted=True)
        for v in range(g.n):
            for i in range(g.out_degree(v)):
                assert 1 <= g.weight(v, i) <= 16

    def test_unweighted_weight_is_one(self):
        g = chain_graph(5)
        assert g.weight(0, 0) == 1

    def test_chain_graph(self):
        g = chain_graph(4)
        assert g.adj == [[1], [2], [3], []]

    def test_determinism(self):
        g1 = rmat_graph(256, 4, DeterministicRNG(7, "g"))
        g2 = rmat_graph(256, 4, DeterministicRNG(7, "g"))
        assert g1.adj == g2.adj


def _reference_rmat(n, avg_degree, rng, a=0.57, b=0.19, c=0.19,
                    weighted=False, max_weight=16):
    """The plain R-MAT loop: one wrapper call per draw, edges as pairs."""
    levels = n.bit_length() - 1
    edges = set()
    target_edges = n * avg_degree
    attempts = 0
    while len(edges) < target_edges and attempts < 10 * target_edges:
        attempts += 1
        u = v = 0
        for _ in range(levels):
            r = rng.random()
            u <<= 1
            v <<= 1
            if r < a:
                pass
            elif r < a + b:
                v |= 1
            elif r < a + b + c:
                u |= 1
            else:
                u |= 1
                v |= 1
        if u != v:
            edges.add((u, v))
    adj = [[] for _ in range(n)]
    for u, v in sorted(edges):
        adj[u].append(v)
    weights = None
    if weighted:
        weights = [[rng.randint(1, max_weight) for _ in row] for row in adj]
    return adj, weights


@pytest.mark.parametrize("n, degree", [(1, 4), (2, 3), (64, 1), (128, 16),
                                       (512, 4), (2048, 8)])
@pytest.mark.parametrize("abc", [(0.57, 0.19, 0.19), (0.25, 0.25, 0.25),
                                 (0.45, 0.15, 0.4), (0.9, 0.05, 0.0)])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", [1, 17])
def test_rmat_matches_the_reference_loop(n, degree, abc, weighted, seed):
    """Same adjacency, same weights, and the stream left in the same
    state, so every later draw is the same too."""
    a, b, c = abc
    fast_rng, ref_rng = DeterministicRNG(seed, "g"), DeterministicRNG(seed, "g")
    g = rmat_graph(n, degree, fast_rng, a, b, c, weighted=weighted)
    adj, weights = _reference_rmat(n, degree, ref_rng, a, b, c,
                                   weighted=weighted)
    assert g.adj == adj
    assert g.weights == weights
    assert fast_rng._rng.getstate() == ref_rng._rng.getstate()


class TestMatrices:
    def test_powerlaw_shape(self):
        m = powerlaw_matrix(100, 100, 8, 1.0, DeterministicRNG(1, "m"))
        assert m.n_rows == 100
        assert m.nnz >= 100
        for r in range(m.n_rows):
            assert all(0 <= c < 100 for c in m.cols[r])
            assert len(m.cols[r]) == len(m.vals[r])

    def test_powerlaw_skew(self):
        m = powerlaw_matrix(500, 500, 8, 1.5, DeterministicRNG(1, "m"))
        row_sizes = sorted((m.row_nnz(r) for r in range(500)), reverse=True)
        assert row_sizes[0] > 3 * (m.nnz / 500)

    def test_banded_matrix(self):
        m = banded_matrix(10, 2)
        assert m.row_nnz(5) == 5
        assert m.row_nnz(0) == 3

    def test_multiply_reference(self):
        m = banded_matrix(4, 0)  # identity-diagonal weights 1.0
        y = m.multiply([1.0, 2.0, 3.0, 4.0])
        assert y == [1.0, 2.0, 3.0, 4.0]

    def test_multiply_dim_check(self):
        m = banded_matrix(4, 1)
        with pytest.raises(ValueError):
            m.multiply([1.0] * 3)


class TestTrees:
    def test_balanced_bst_is_search_tree(self):
        t = balanced_bst(63)
        self._check_bst(t)
        assert t.depth() == 6

    def test_random_bst_is_search_tree(self):
        t = random_bst(200, DeterministicRNG(4, "t"))
        self._check_bst(t)

    def test_search_path_finds_every_key(self):
        t = balanced_bst(31)
        for q in range(31):
            path = t.search_path(q)
            assert path[0] == t.root
            assert t.keys[path[-1]] == q

    def test_search_path_lengths_bounded_by_depth(self):
        t = balanced_bst(127)
        depth = t.depth()
        assert all(len(t.search_path(q)) <= depth for q in range(127))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            balanced_bst(0)

    @staticmethod
    def _check_bst(t: BinaryTree):
        def walk(node, lo, hi):
            if node == -1:
                return []
            key = t.keys[node]
            assert lo <= key < hi
            return walk(t.left[node], lo, key) + [key] + \
                walk(t.right[node], key, hi)

        inorder = walk(t.root, -1, 1 << 60)
        assert inorder == sorted(range(t.n))
