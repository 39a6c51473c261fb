import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnn_multifix import (
    Graph,
    init_label_matrix,
    make_dataset,
    propagate_features,
    propagate_labels,
    sym_norm_adjacency,
)
from gnn_multifix.errors import ShapeError

from conftest import (
    build_random_graph,
    build_twin_path_dataset,
    dense_propagation_oracle,
    rw_transition,
)


def path_operator():
    return sym_norm_adjacency(Graph.from_edges(2, [(0, 1)]))


def test_propagate_features_zero_depth_is_identity():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    H = propagate_features(path_operator(), X, 0)
    assert np.array_equal(H, X)


def test_isolated_node_is_fixed_point():
    a = sym_norm_adjacency(Graph.from_edges(1, []))
    for K in (1, 3, 7):
        H = propagate_features(a, np.array([[2.5]]), K, "identity")
        assert np.allclose(H, [[2.5]])


def test_path_single_step():
    H = propagate_features(path_operator(), np.array([[1.0], [0.0]]), 1, "identity")
    assert H == pytest.approx(np.array([[0.5], [0.5]]), abs=1e-12)


def test_relu_activation_clips():
    a = path_operator()
    H = propagate_features(a, np.array([[-1.0], [-1.0]]), 1, "relu")
    assert np.all(H == 0.0)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        propagate_features(path_operator(), np.ones((3, 2)), 1)


@pytest.mark.parametrize("activation", ["identity", "relu"])
def test_propagate_features_lets_go_of_its_operand(previous_operand_alive, activation):
    a = sym_norm_adjacency(build_random_graph(30, 60, seed=2))
    propagate_features(a, np.ones((30, 4)), 3, activation)
    assert previous_operand_alive == [False, False]


def test_propagate_labels_lets_go_of_its_operand(previous_operand_alive):
    a = sym_norm_adjacency(build_random_graph(30, 60, seed=2))
    propagate_labels(a, np.ones((30, 4)), 3)
    assert previous_operand_alive == [False, False]


def test_relu_propagation_leaves_its_operand_unwritten():
    a = sym_norm_adjacency(build_random_graph(30, 60, seed=3))
    X = np.random.default_rng(3).normal(size=(30, 4))
    before = X.copy()
    H = propagate_features(a, X, 2, "relu")
    assert np.array_equal(X, before)
    assert H.min() >= 0.0


def test_init_label_matrix_cases():
    ds = build_twin_path_dataset()
    H0 = init_label_matrix(ds, "zero")
    assert np.array_equal(H0[0], [1, 0])  # train keeps its labels
    assert np.array_equal(H0[1], [0, 0])  # test padded
    assert np.array_equal(H0[2], [0, 0])  # val treated as unlabeled
    uniform = init_label_matrix(ds, "uniform")
    assert uniform[3] == pytest.approx([0.5, 0.5])


def test_propagate_labels_zero_depth():
    H0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    H = propagate_labels(path_operator(), H0, 0)
    assert np.array_equal(H, H0)


def test_propagate_labels_path_one_step():
    H0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    H = propagate_labels(path_operator(), H0, 1)
    assert H == pytest.approx(np.array([[0.5, 0.0], [0.5, 0.0]]), abs=1e-12)


def test_label_propagation_is_reset_free():
    # after one step the train row has drifted to [0.5, 0]; a second step
    # must keep propagating rather than restoring the true label [1, 0]
    H0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    a = path_operator()
    one = propagate_labels(a, H0, 1)
    two = propagate_labels(a, H0, 2)
    assert one[0] == pytest.approx([0.5, 0.0], abs=1e-12)
    assert two[0] == pytest.approx([0.5, 0.0], abs=1e-12)
    assert np.abs(two[0] - H0[0]).sum() > 0.1


def test_oracle_zero_depth_and_bounds():
    g = build_random_graph(15, 40, seed=1)
    P = rw_transition(g)
    rng = np.random.default_rng(0)
    Y = (rng.random((15, 3)) < 0.4).astype(float)
    assert np.array_equal(dense_propagation_oracle(P, Y, 0), Y)
    out = dense_propagation_oracle(P, Y, 4)
    assert out.min() >= 0.0 and out.max() <= Y.max() + 1e-12


def test_sparse_propagation_matches_dense_oracle():
    g = build_random_graph(20, 60, seed=7)
    P = rw_transition(g)
    rng = np.random.default_rng(3)
    Y = (rng.random((20, 4)) < 0.3).astype(float)
    sparse = propagate_labels(P, Y, 3)
    dense = dense_propagation_oracle(P, Y, 3)
    assert np.abs(sparse - dense).max() < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n_steps=st.integers(0, 4))
def test_propagation_oracle_property(seed, n_steps):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    g = build_random_graph(n, 3 * n, seed)
    P = rw_transition(g)
    Y = (rng.random((n, 3)) < 0.3).astype(float)
    sparse = propagate_labels(P, Y, n_steps)
    assert np.abs(sparse - dense_propagation_oracle(P, Y, n_steps)).max() < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_linearity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    a = sym_norm_adjacency(build_random_graph(n, 3 * n, seed))
    X1 = rng.normal(size=(n, 3))
    X2 = rng.normal(size=(n, 3))
    c1, c2 = rng.normal(size=2)
    combined = propagate_features(a, c1 * X1 + c2 * X2, 2, "identity")
    separate = c1 * propagate_features(a, X1, 2, "identity") + c2 * propagate_features(
        a, X2, 2, "identity"
    )
    assert np.abs(combined - separate).max() < 1e-10


def _k_hop_ball(graph, v, k):
    ball = {v}
    frontier = {v}
    for _ in range(k):
        frontier = {int(u) for w in frontier for u in graph.neighbors(w)} - ball
        ball |= frontier
    return ball


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.integers(1, 3))
def test_locality(seed, K):
    # with identity activation, zeroing features outside the K-hop ball of v
    # leaves row v untouched
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 25))
    g = build_random_graph(n, 2 * n, seed)
    a = sym_norm_adjacency(g)
    X = rng.normal(size=(n, 2))
    v = int(rng.integers(n))
    ball = sorted(_k_hop_ball(g, v, K))
    X_masked = np.zeros_like(X)
    X_masked[ball] = X[ball]
    full = propagate_features(a, X, K, "identity")
    masked = propagate_features(a, X_masked, K, "identity")
    assert np.abs(full[v] - masked[v]).max() < 1e-10


def test_twin_nodes_get_distinct_label_rows():
    # the twins' neighborhoods contain differently-labeled train nodes, so
    # propagated label rows split them even though their structure matches
    ds = build_twin_path_dataset()
    a = sym_norm_adjacency(ds.graph)
    H0 = init_label_matrix(ds, "zero")
    H = propagate_labels(a, H0, 1)
    assert np.abs(H[1] - H[3]).max() > 0.01
