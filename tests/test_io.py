import numpy as np
import pytest

from gnn_multifix import load_dataset, make_splits, read_probability_csv, save_dataset, write_probability_csv
from gnn_multifix.errors import DatasetIndexError, DatasetParseError, ShapeError
from gnn_multifix.io import read_feature_file, write_feature_file

from conftest import build_random_dataset


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_two_node_dataset(tmp_path):
    edges = write(tmp_path, "edges.tsv", "# comment\n0\t1\n")
    labels = write(tmp_path, "labels.tsv", "#C=2\n0\t0\n1\t1\n")
    ds = load_dataset(edges, labels)
    assert ds.n == 2
    assert list(ds.graph.deg) == [1, 1]
    assert np.array_equal(ds.labels, [[1, 0], [0, 1]])
    assert not ds.train_mask.any()


def test_load_dedups_reversed_edges(tmp_path):
    edges = write(tmp_path, "e.tsv", "0\t1\n1\t0\n")
    labels = write(tmp_path, "l.tsv", "#C=1\n0\t0\n1\t0\n")
    ds = load_dataset(edges, labels)
    assert ds.graph.n_edges == 1
    assert list(ds.graph.deg) == [1, 1]


def test_label_only_nodes_are_isolated(tmp_path):
    edges = write(tmp_path, "e.tsv", "0\t1\n")
    labels = write(tmp_path, "l.tsv", "#C=2\n0\t0\n1\t1\n4\t1\n")
    ds = load_dataset(edges, labels)
    assert ds.n == 5
    assert ds.graph.deg[4] == 0
    assert ds.labels[4, 1] == 1


def test_malformed_edge_line_reports_line_number(tmp_path):
    edges = write(tmp_path, "e.tsv", "0\t1\nnot numbers here at all\n")
    labels = write(tmp_path, "l.tsv", "#C=1\n0\t0\n")
    with pytest.raises(DatasetParseError) as err:
        load_dataset(edges, labels)
    assert err.value.line_no == 2


def test_label_id_out_of_range(tmp_path):
    edges = write(tmp_path, "e.tsv", "0\t1\n")
    labels = write(tmp_path, "l.tsv", "#C=2\n0\t0\n1\t5\n")
    with pytest.raises(DatasetIndexError):
        load_dataset(edges, labels)


def test_split_node_out_of_range(tmp_path):
    edges = write(tmp_path, "e.tsv", "0\t1\n")
    labels = write(tmp_path, "l.tsv", "#C=1\n0\t0\n1\t0\n")
    splits = write(tmp_path, "s.tsv", "0\ttrain\n9\ttest\n")
    with pytest.raises(DatasetIndexError):
        load_dataset(edges, labels, split_path=splits)


def test_missing_label_header(tmp_path):
    edges = write(tmp_path, "e.tsv", "0\t1\n")
    labels = write(tmp_path, "l.tsv", "0\t0\n1\t0\n")
    with pytest.raises(DatasetParseError):
        load_dataset(edges, labels)


def test_feature_row_shortfall(tmp_path):
    edges = write(tmp_path, "e.tsv", "0\t2\n")
    labels = write(tmp_path, "l.tsv", "#C=1\n0\t0\n")
    features = write(tmp_path, "f.csv", "1.0,2.0\n0.5,0.5\n")
    with pytest.raises(ShapeError):
        load_dataset(edges, labels, feature_path=features)


def test_empty_label_field_allowed(tmp_path):
    edges = write(tmp_path, "e.tsv", "0\t1\n")
    labels = write(tmp_path, "l.tsv", "#C=2\n0\t0,1\n1\t\n")
    ds = load_dataset(edges, labels)
    assert ds.labels[1].sum() == 0


def test_round_trip_is_bit_exact(tmp_path):
    ds = build_random_dataset(30, 4, seed=11)
    ds = make_splits(ds, 0.6, 0.2, seed=1)
    rng = np.random.default_rng(0)
    ds = ds.with_features(rng.normal(size=(30, 3)))
    paths = [tmp_path / p for p in ("e.tsv", "l.tsv", "f.csv", "s.tsv")]
    save_dataset(ds, *paths)
    back = load_dataset(*paths)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.graph.col_idx, ds.graph.col_idx)
    assert np.array_equal(back.graph.row_ptr, ds.graph.row_ptr)
    assert np.array_equal(back.train_mask, ds.train_mask)
    assert np.array_equal(back.val_mask, ds.val_mask)
    assert np.array_equal(back.test_mask, ds.test_mask)
    assert np.array_equal(back.features, ds.features)


def test_binary_feature_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(7, 4))
    path = tmp_path / "features.bin"
    write_feature_file(X, path)
    assert np.array_equal(read_feature_file(path), X)
    assert path.stat().st_size == 8 + 7 * 4 * 8


def test_probability_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    probs = rng.random((9, 3))
    path = tmp_path / "probs.csv"
    write_probability_csv(probs, path)
    assert np.array_equal(read_probability_csv(path), probs)


def test_probability_csv_with_short_row_is_refused(tmp_path):
    path = write(tmp_path, "probs.csv", "node_id,p_0,p_1\n0,0.1,0.2\n1,0.3\n2,0.5,0.6\n")
    with pytest.raises(DatasetParseError, match=r"probs\.csv:3:"):
        read_probability_csv(path)


def test_probability_csv_with_duplicated_node_id_is_refused(tmp_path):
    path = tmp_path / "probs.csv"
    write_probability_csv(np.arange(6.0).reshape(3, 2), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[1], lines[2], "1" + lines[3][1:]]) + "\n")
    with pytest.raises(DatasetParseError, match="node ids"):
        read_probability_csv(path)


def test_header_only_probability_csv_is_refused(tmp_path):
    path = write(tmp_path, "probs.csv", "node_id,p_0,p_1\n")
    with pytest.raises(DatasetParseError, match="no rows"):
        read_probability_csv(path)
