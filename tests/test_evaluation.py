import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnn_multifix import (
    DynamicsLog,
    atypical_node_report,
    average_precision,
    checkpoint_epochs,
    evaluate,
    export_dynamics,
    homophily_recovery,
    import_dynamics,
    make_splits,
)
from gnn_multifix.errors import DatasetParseError, ShapeError, UndefinedMetricError
from gnn_multifix.evaluation import _quartiles, _row_aps
from gnn_multifix.graph import Graph

from conftest import build_random_dataset


def brute_force_binary_ap(scores, truth):
    """AP by explicit rank walk: sum of precision@k * delta-recall@k."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(truth)
    if n_pos == 0:
        return None
    hits = 0
    ap = 0.0
    for rank, idx in enumerate(order, start=1):
        if truth[idx]:
            hits += 1
            ap += (hits / rank) * (1.0 / n_pos)
    return ap


def brute_force_ap(scores, truth, mode):
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    if mode == "micro":
        return brute_force_binary_ap(scores.ravel().tolist(), truth.ravel().tolist())
    if mode == "macro":
        vals = [
            brute_force_binary_ap(scores[:, c].tolist(), truth[:, c].tolist())
            for c in range(scores.shape[1])
        ]
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else None
    vals = [
        brute_force_binary_ap(scores[i].tolist(), truth[i].tolist())
        for i in range(scores.shape[0])
    ]
    vals = [v for v in vals if v is not None]
    return float(np.mean(vals)) if vals else None


def test_perfect_ranking_is_one():
    scores = np.array([[0.9, 0.1]])
    truth = np.array([[1, 0]])
    for mode in ("micro", "macro", "samples"):
        assert average_precision(scores, truth, mode) == pytest.approx(1.0)


def test_relevant_item_at_rank_two():
    scores = np.array([[0.1, 0.9]])
    truth = np.array([[1, 0]])
    assert average_precision(scores, truth, "samples") == pytest.approx(0.5)


def test_all_modes_match_brute_force_on_fixed_instance():
    rng = np.random.default_rng(42)
    scores = rng.random((8, 3))
    truth = (rng.random((8, 3)) < 0.4).astype(int)
    for mode in ("micro", "macro", "samples"):
        assert average_precision(scores, truth, mode) == pytest.approx(
            brute_force_ap(scores, truth, mode), abs=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_ap_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 11))
    c = int(rng.integers(1, 5))
    scores = np.round(rng.random((m, c)), 2)  # rounding forces score ties
    truth = (rng.random((m, c)) < 0.4).astype(int)
    for mode in ("micro", "macro", "samples"):
        expected = brute_force_ap(scores, truth, mode)
        if expected is None:
            with pytest.raises(UndefinedMetricError):
                average_precision(scores, truth, mode)
        else:
            assert average_precision(scores, truth, mode) == pytest.approx(expected, abs=1e-12)


def _binary_ap(scores, truth):
    """AP of one ranking by a stable argsort; None when there are no positives."""
    n_pos = int(truth.sum())
    if n_pos == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    hits = truth[order].astype(bool)
    ranks = np.flatnonzero(hits) + 1
    precision_at_hits = np.arange(1, n_pos + 1) / ranks
    return float(precision_at_hits.mean())


def per_row_samples_ap(scores, truth):
    """Samples-AP as a Python loop of per-row _binary_ap calls, then np.mean."""
    vals = [_binary_ap(scores[i], truth[i]) for i in range(scores.shape[0])]
    vals = [a for a in vals if a is not None]
    return float(np.mean(vals)) if vals else None


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 100_000), many=st.booleans())
def test_samples_ap_is_bit_identical_to_per_row_loop(seed, many):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    c = int(rng.integers(12, 41)) if many else int(rng.integers(1, 12))
    scores = np.round(rng.random((m, c)), int(rng.integers(1, 3)))  # score ties
    truth = (rng.random((m, c)) < (0.7 if many else 0.3)).astype(np.int8)
    truth[rng.random(m) < 0.2] = 0  # rows without positives
    if many:
        truth[0, :8] = 1  # at least one row with >= 8 positives
    expected = per_row_samples_ap(scores, truth)
    if expected is None:
        with pytest.raises(UndefinedMetricError):
            average_precision(scores, truth, "samples")
    else:
        assert average_precision(scores, truth, "samples") == expected


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 100_000), tied=st.booleans())
def test_micro_and_macro_ap_are_bit_identical_to_one_ranking_per_call(seed, tied):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    c = int(rng.integers(1, 20))
    scores = rng.random((m, c))
    if tied:
        scores = np.round(scores, 1)
    truth = (rng.random((m, c)) < rng.random()).astype(np.int8)
    micro = _binary_ap(scores.ravel(), truth.ravel())
    per_label = [_binary_ap(scores[:, j], truth[:, j]) for j in range(c)]
    per_label = [a for a in per_label if a is not None]
    if micro is None:
        with pytest.raises(UndefinedMetricError):
            average_precision(scores, truth, "micro")
        with pytest.raises(UndefinedMetricError):
            average_precision(scores, truth, "macro")
    else:
        assert average_precision(scores, truth, "micro") == micro
        assert average_precision(scores, truth, "macro") == float(np.mean(per_label))


def grouped_row_aps(scores, truth):
    """Row APs by the per-count loop _row_aps replaced: the rows with p
    positives are averaged as one C-contiguous (rows, p) array."""
    order = np.argsort(-scores, axis=1, kind="stable")
    hits = np.take_along_axis(truth, order, axis=1).astype(bool)
    n_pos = hits.sum(axis=1)
    precision = np.cumsum(hits, axis=1) / np.arange(1, scores.shape[1] + 1)
    aps = np.empty(len(scores))
    for p in np.flatnonzero(np.bincount(n_pos)[1:]) + 1:
        rows = np.flatnonzero(n_pos == p)
        aps[rows] = precision[rows][hits[rows]].reshape(len(rows), p).mean(axis=1)
    return aps[n_pos > 0]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60), c=st.integers(1, 30),
       levels=st.integers(1, 12))
def test_row_aps_are_bit_identical_to_grouped_means(seed, m, c, levels):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels, size=(m, c)) / levels  # few levels: many ties
    truth = np.zeros((m, c), dtype=np.int8)
    for row, count in zip(truth, rng.integers(0, c + 1, size=m)):  # 0..C positives a row
        row[rng.permutation(c)[:count]] = 1
    # the row sets of samples, macro and micro mode
    for s, t in ((scores, truth), (scores.T, truth.T), (scores.reshape(1, -1), truth.reshape(1, -1))):
        expected = grouped_row_aps(s, t)
        assert _row_aps(s, t).tobytes() == expected.tobytes()


def test_ap_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.random((10, 4))
    truth = (rng.random((10, 4)) < 0.3).astype(int)
    truth[0, 0] = 1
    for mode in ("micro", "macro", "samples"):
        base = average_precision(scores, truth, mode)
        assert average_precision(3.0 * scores + 1.0, truth, mode) == pytest.approx(base)
        assert average_precision(np.exp(scores), truth, mode) == pytest.approx(base)


def test_ap_no_positives_is_undefined():
    with pytest.raises(UndefinedMetricError):
        average_precision(np.ones((3, 2)), np.zeros((3, 2), int), "micro")


def test_evaluate_perfect_predictor():
    ds = build_random_dataset(20, 3, seed=2)
    ds = make_splits(ds, 0.6, 0.2, seed=3)
    report = evaluate(ds.labels.astype(float), ds, "test")
    assert report.ap_micro == pytest.approx(1.0)
    assert report.ap_macro == pytest.approx(1.0)
    assert report.ap_samples == pytest.approx(1.0)
    assert report.n_eval == int(ds.test_mask.sum())
    assert report.headline == "samples"


def test_evaluate_constant_scores_closed_form():
    # constant scores rank labels by index; a node whose positives sit at
    # 0-based positions p_1 < ... < p_R gets AP = mean_i (i / (p_i + 1))
    ds = build_random_dataset(15, 4, seed=5)
    ds = make_splits(ds, 0.6, 0.2, seed=5)
    probs = np.full(ds.labels.shape, 0.7)
    per_node = []
    for v in np.flatnonzero(ds.test_mask):
        positions = np.flatnonzero(ds.labels[v])
        if len(positions) == 0:
            continue
        per_node.append(np.mean([(i + 1) / (p + 1) for i, p in enumerate(positions)]))
    report = evaluate(probs, ds, "test")
    assert report.ap_samples == pytest.approx(float(np.mean(per_node)), abs=1e-12)


def test_evaluate_permutation_invariant_within_split():
    ds = build_random_dataset(12, 3, seed=7)
    ds = make_splits(ds, 0.6, 0.2, seed=7)
    rng = np.random.default_rng(7)
    probs = rng.random(ds.labels.shape)
    base = evaluate(probs, ds, "test")
    # permute the test rows together with their labels
    perm = np.arange(ds.n)
    test_idx = np.flatnonzero(ds.test_mask)
    perm[test_idx] = test_idx[rng.permutation(len(test_idx))]
    permuted = ds.with_masks(ds.train_mask, ds.val_mask, ds.test_mask)
    import dataclasses

    permuted = dataclasses.replace(permuted, labels=ds.labels[perm])
    assert evaluate(probs[perm], permuted, "test").ap_samples == pytest.approx(base.ap_samples)


def test_evaluate_empty_split_rejected():
    ds = build_random_dataset(10, 2, seed=8)
    with pytest.raises(ValueError):
        evaluate(np.ones(ds.labels.shape) * 0.5, ds, "test")


def make_log(n_ckpt=30, n_nodes=100, seed=0):
    rng = np.random.default_rng(seed)
    return DynamicsLog(
        node_ids=np.arange(n_nodes, dtype=np.int64),
        epochs=checkpoint_epochs(300)[:n_ckpt],
        losses=rng.random((n_ckpt, n_nodes)),
    )


def test_checkpoint_epochs_contract():
    short = checkpoint_epochs(10)
    assert list(short) == list(range(1, 11))
    exact = checkpoint_epochs(30)
    assert list(exact) == list(range(1, 31))
    for total in (31, 47, 300, 2000):
        e = checkpoint_epochs(total)
        assert len(e) == 30
        assert e[0] == 1 and e[-1] == total
        assert np.all(np.diff(e) > 0)


def test_export_row_counts(tmp_path):
    log = make_log()
    out = tmp_path / "dynamics.csv"
    summary = export_dynamics(log, out)
    data_rows = out.read_text().strip().splitlines()
    summary_rows = summary.read_text().strip().splitlines()
    assert len(data_rows) == 1 + 30 * 100
    assert len(summary_rows) == 1 + 30


def test_export_medians_match_recompute(tmp_path):
    log = make_log(seed=3)
    out = tmp_path / "dyn.csv"
    summary_path = export_dynamics(log, out)
    back = import_dynamics(out)
    medians = {}
    for line in summary_path.read_text().strip().splitlines()[1:]:
        parts = line.split(",")
        medians[int(parts[0])] = float(parts[3])
    for i in range(back.n_checkpoints):
        assert medians[i] == pytest.approx(float(np.median(back.losses[i])), abs=1e-9)


def per_line_dynamics_csv(log):
    """The dynamics data CSV written one row at a time, as the reference."""
    lines = ["checkpoint_index,epoch,node_id,loss\n"]
    for i, epoch in enumerate(log.epochs):
        for j, node in enumerate(log.node_ids):
            lines.append(f"{i},{int(epoch)},{int(node)},{repr(float(log.losses[i, j]))}\n")
    return "".join(lines).encode("utf-8")


def test_export_matches_per_line_writer(tmp_path):
    rng = np.random.default_rng(5)
    losses = rng.random((30, 100))
    losses[0, :4] = [0.0, 1e-300, 123456.789, 2.0 / 3.0]
    log = DynamicsLog(
        node_ids=np.flatnonzero(rng.random(300) < 0.5)[:100],
        epochs=checkpoint_epochs(300),
        losses=losses,
    )
    out = tmp_path / "dyn.csv"
    export_dynamics(log, out)
    assert out.read_bytes() == per_line_dynamics_csv(log)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 40)),
    data=st.data(),
)
def test_quartiles_match_numpy_percentile(shape, data):
    finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    small = st.floats(0.0, 50.0)  # the range of per-node BCE losses
    values = data.draw(st.lists(st.one_of(finite, small), min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
    x = np.array(values).reshape(shape)
    expected = np.percentile(x, [25, 50, 75], axis=1).T
    assert np.array_equal(_quartiles(x), expected)


def test_export_summary_matches_percentile_writer(tmp_path):
    log = make_log(seed=6)
    lines = ["checkpoint_index,epoch,q1,median,q3,max\n"]
    for i, epoch in enumerate(log.epochs):
        q1, med, q3 = np.percentile(log.losses[i], [25, 50, 75])
        mx = log.losses[i].max()
        lines.append(f"{i},{int(epoch)},{float(q1)!r},{float(med)!r},{float(q3)!r},{float(mx)!r}\n")
    summary = export_dynamics(log, tmp_path / "dyn.csv")
    assert summary.read_text() == "".join(lines)


def test_export_round_trip_and_determinism(tmp_path):
    log = make_log(seed=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_dynamics(log, p1)
    export_dynamics(log, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = import_dynamics(p1)
    assert np.array_equal(back.node_ids, log.node_ids)
    assert np.array_equal(back.epochs, log.epochs)
    assert np.abs(back.losses - log.losses).max() < 1e-9


@pytest.mark.parametrize("rows, line, message", [
    # the FOUND file: a repeated (checkpoint, node) row and an epoch change
    (["0,1,5,0.5", "0,1,5,0.9", "1,2,5,0.4"], 3, "checkpoint 0 lists node 5 twice"),
    (["0,1,5,0.5", "1,2,5,0.4", "1,7,6,0.3", "0,1,6,0.2"], 4,
     "checkpoint 1 is epoch 2 at line 3, not 7"),
], ids=["repeated-node", "epoch-change"])
def test_dynamics_csv_rows_that_disagree_are_refused_at_their_line(tmp_path, rows, line, message):
    path = tmp_path / "dynamics.csv"
    path.write_text("\n".join(["checkpoint_index,epoch,node_id,loss", *rows]) + "\n")
    with pytest.raises(DatasetParseError) as err:
        import_dynamics(path)
    assert (err.value.line_no, str(err.value)) == (line, f"{path}:{line}: {message}")


def test_atypical_node_ordering_and_slopes():
    epochs = np.array([1, 2, 3, 4], dtype=np.int64)
    losses = np.column_stack(
        [
            np.array([1.0, 2.0, 3.0, 4.0]),  # node 0: rising
            np.array([1.0, 0.5, 0.25, 0.1]),  # node 1: falling
            np.array([0.7, 0.7, 0.7, 0.7]),  # node 2: flat
        ]
    )
    log = DynamicsLog(node_ids=np.array([0, 1, 2]), epochs=epochs, losses=losses)
    report = atypical_node_report(log, 3)
    assert [r.node_id for r in report] == [0, 2, 1]
    assert report[0].slope > 0
    assert report[2].slope < 0
    flat = [r for r in report if r.node_id == 2][0]
    assert flat.slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        atypical_node_report(log, 10)


def test_homophily_recovery_identity_predictions():
    ds = build_random_dataset(25, 4, seed=9)
    from gnn_multifix import label_homophily

    true = label_homophily(ds)
    assert homophily_recovery(ds.labels.astype(float) * 0.9 + 0.05, ds.graph, 0.5) == pytest.approx(
        true
    )


def test_homophily_recovery_constant_predictions():
    ds = build_random_dataset(25, 4, seed=10)
    probs = np.zeros(ds.labels.shape)
    probs[:, 1] = 0.9
    assert homophily_recovery(probs, ds.graph, 0.5) == pytest.approx(1.0)


def test_homophily_recovery_empty_rows_keep_top_label():
    g = Graph.from_edges(2, [(0, 1)])
    probs = np.array([[0.2, 0.4, 0.1], [0.1, 0.45, 0.1]])
    # thresholded sets are empty; both keep label 1, so the edge is a match
    assert homophily_recovery(probs, g, 0.5) == pytest.approx(1.0)


def test_homophily_recovery_threshold_validated():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        homophily_recovery(np.ones((2, 2)) * 0.5, g, 1.5)


def test_homophily_recovery_is_undefined_without_edges():
    g = Graph.from_edges(3, [])
    with pytest.raises(UndefinedMetricError, match="edgeless graph"):
        homophily_recovery(np.full((3, 2), 0.9), g, 0.5)


def test_homophily_recovery_refuses_probs_of_another_node_count():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ShapeError):
        homophily_recovery(np.full((2, 2), 0.9), g, 0.5)
