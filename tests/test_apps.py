"""Per-application tests: correctness against reference implementations."""

import pytest

from repro.apps import APP_CLASSES, make_app
from repro.apps.bfs import BfsApp
from repro.apps.hash_table import HashTableApp
from repro.apps.linked_list import LinkedListApp
from repro.apps.pagerank import PageRankApp
from repro.apps.spmv import SpmvApp
from repro.apps.sssp import SsspApp
from repro.apps.tree import TreeApp
from repro.apps.wcc import WccApp
from repro.config import Design, tiny_config
from repro.runtime.runner import run_app
from repro.workloads.graphs import Graph, chain_graph


CFG = tiny_config(Design.B)


def run_tiny(app):
    return run_app(app, CFG, verify=True)


class TestLinkedList:
    def test_executes_all_visits(self):
        app = LinkedListApp(n_lists=64, n_queries=50, max_nodes=16, seed=3)
        result = run_tiny(app)
        assert app.visits_done == sum(app.lengths[q] for q in app.queries)
        assert result.metrics.tasks_executed == app.visits_done

    def test_no_communication_without_balancing(self):
        app = LinkedListApp(n_lists=64, n_queries=50, max_nodes=16, seed=3)
        result = run_tiny(app)
        assert result.metrics.task_messages == 0

    def test_list_count_rounds_to_units(self):
        app = LinkedListApp(n_lists=30, n_queries=10, max_nodes=16, seed=3)
        run_tiny(app)
        assert app.n_lists % 16 == 0

    def test_oversized_lists_rejected(self):
        with pytest.raises(ValueError):
            LinkedListApp(max_nodes=1000)


class TestHashTable:
    def test_all_queries_hit(self):
        app = HashTableApp(n_buckets=64, n_keys=256, n_queries=80, seed=3)
        run_tiny(app)
        assert app.hits == len(app.queries)

    def test_probe_counts_match_chain_positions(self):
        app = HashTableApp(n_buckets=64, n_keys=256, n_queries=80, seed=3)
        run_tiny(app)
        assert app.verify()

    def test_no_communication_without_balancing(self):
        app = HashTableApp(n_buckets=64, n_keys=256, n_queries=80, seed=3)
        result = run_tiny(app)
        assert result.metrics.task_messages == 0


class TestTree:
    def test_all_queries_found(self):
        app = TreeApp(n_nodes=255, n_queries=64, seed=3)
        run_tiny(app)
        assert app.found == len(app.queries)

    def test_visits_match_search_paths(self):
        app = TreeApp(n_nodes=255, n_queries=64, seed=3)
        run_tiny(app)
        expected = sum(len(app.tree.search_path(q)) for q in app.queries)
        assert app.nodes_visited == expected

    def test_tree_traversal_communicates(self):
        app = TreeApp(n_nodes=255, n_queries=64, seed=3)
        result = run_tiny(app)
        assert result.metrics.task_messages > 0

    def test_random_tree_variant(self):
        app = TreeApp(n_nodes=200, n_queries=32, balanced=False, seed=3)
        assert run_tiny(app).metrics.tasks_executed == app.nodes_visited


class TestSpmv:
    def test_result_matches_reference(self):
        app = SpmvApp(n_rows=128, n_cols=128, avg_nnz=4, seed=3)
        run_tiny(app)
        reference = app.matrix.multiply(app.x)
        assert all(abs(a - b) < 1e-9 for a, b in zip(app.y, reference))

    def test_one_task_per_row(self):
        app = SpmvApp(n_rows=128, n_cols=128, avg_nnz=4, seed=3)
        result = run_tiny(app)
        assert result.metrics.tasks_executed == 128


class TestBfs:
    def test_distances_match_reference(self):
        app = BfsApp(n_vertices=256, avg_degree=4, seed=3)
        run_tiny(app)
        assert app.dist == app.reference_distances()

    def test_chain_graph_depth(self):
        app = BfsApp(graph=chain_graph(20).undirected(), seed=3)
        run_tiny(app)
        assert app.dist[19] == 19

    def test_epochs_are_bfs_levels(self):
        app = BfsApp(graph=chain_graph(10).undirected(), seed=3)
        result = run_tiny(app)
        assert result.system.tracker.epoch >= 9


class TestSssp:
    def test_distances_match_dijkstra(self):
        app = SsspApp(n_vertices=256, avg_degree=4, seed=3)
        run_tiny(app)
        assert app.dist == app.reference_distances()

    def test_unreachable_stay_infinite(self):
        g = Graph(4, [[1], [], [3], []],
                  weights=[[2], [], [5], []])
        app = SsspApp(graph=g, source=0, seed=3)
        run_tiny(app)
        assert app.dist[1] == 2
        assert app.dist[2] == float("inf")


class TestPageRank:
    def test_ranks_match_reference(self):
        app = PageRankApp(n_vertices=128, avg_degree=4, iterations=3, seed=3)
        run_tiny(app)
        reference = app.reference_ranks()
        assert all(abs(a - b) < 1e-9 for a, b in zip(app.rank, reference))

    def test_rank_mass_roughly_conserved(self):
        app = PageRankApp(n_vertices=128, avg_degree=4, iterations=2, seed=3)
        run_tiny(app)
        assert 0.0 < sum(app.rank) <= 1.0 + 1e-9

    def test_iterations_scale_epochs(self):
        app = PageRankApp(n_vertices=64, avg_degree=4, iterations=2, seed=3)
        result = run_tiny(app)
        # Two iterations = contribute/apply x2 = at least 3 epoch advances.
        assert result.system.tracker.epoch >= 3


class TestWcc:
    def test_labels_match_union_find(self):
        app = WccApp(n_vertices=256, avg_degree=3, seed=3)
        run_tiny(app)
        assert app.labels == app.reference_labels()

    def test_isolated_vertices_keep_own_label(self):
        g = Graph(5, [[1], [0], [], [], []]).undirected()
        app = WccApp(graph=g, seed=3)
        run_tiny(app)
        assert app.labels == [0, 0, 2, 3, 4]


class TestFactory:
    def test_all_names_construct(self):
        for name in APP_CLASSES:
            app = make_app(name, scale=0.05)
            assert app.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_app("sort")

    def test_scale_shrinks_sizes(self):
        big = make_app("tree", scale=1.0)
        small = make_app("tree", scale=0.1)
        assert small.n_nodes < big.n_nodes

    @pytest.mark.parametrize("scale", [0, -1, -0.5])
    def test_non_positive_scale_rejected(self, scale):
        # Used to build the minimum-size app instead.
        with pytest.raises(ValueError, match="scale must be positive"):
            make_app("tree", scale=scale)


class TestPartitionLayouts:
    @pytest.mark.parametrize("layout", ["blocked", "striped"])
    def test_bfs_correct_under_both_layouts(self, layout):
        app = BfsApp(n_vertices=256, avg_degree=4, seed=3, layout=layout)
        run_tiny(app)
        assert app.dist == app.reference_distances()

    @pytest.mark.parametrize("layout", ["blocked", "striped"])
    def test_pr_correct_under_both_layouts(self, layout):
        app = PageRankApp(n_vertices=128, avg_degree=4, iterations=2,
                          seed=3, layout=layout)
        run_tiny(app)
        reference = app.reference_ranks()
        assert all(abs(a - b) < 1e-9 for a, b in zip(app.rank, reference))

    def test_striping_scatters_consecutive_vertices(self):
        from repro.config import Design, tiny_config
        from repro.runtime.runner import build_system

        app = WccApp(n_vertices=256, avg_degree=4, seed=3,
                     layout="striped")
        system = build_system(tiny_config(Design.B))
        app.attach(system)
        homes = [system.partition.home_unit(app.vertices, v)
                 for v in range(32)]
        # Round-robin: consecutive vertices live in consecutive units.
        assert homes[:16] == list(range(16))
        assert homes[16] == 0
