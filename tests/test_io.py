import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnn_multifix import load_dataset, make_splits, read_probability_csv, save_dataset, write_probability_csv
from gnn_multifix.errors import DatasetIndexError, DatasetParseError, ShapeError
from gnn_multifix.io import read_edge_file, read_feature_file, write_feature_file

from conftest import build_random_dataset, scan_edge_file, scan_feature_file


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_csv_feature_names_its_line(tmp_path, value):
    path = write(tmp_path, "f.csv", f"1.0,2.0\n\n0.5,{value}\n3.0,nan\n")
    with pytest.raises(DatasetParseError, match="non-finite") as err:
        read_feature_file(path)
    assert err.value.line_no == 3


def test_non_finite_binary_feature_names_the_file(tmp_path):
    features = np.ones((3, 2))
    features[2, 1] = np.inf
    write_feature_file(features, tmp_path / "f.bin")
    with pytest.raises(DatasetParseError, match="non-finite") as err:
        read_feature_file(tmp_path / "f.bin")
    assert err.value.path == str(tmp_path / "f.bin")


def test_missing_label_header(tmp_path):
    edges = write(tmp_path, "e.tsv", "0\t1\n")
    labels = write(tmp_path, "l.tsv", "0\t0\n1\t0\n")
    with pytest.raises(DatasetParseError):
        load_dataset(edges, labels)


@pytest.mark.parametrize("text, line_no, message", [
    ("#C=2\n0\t0\n#C=3\n1\t2\n", 3, "repeated '#C=' header"),
    ("#C=-2\n0\t\n", 1, "non-negative"),
], ids=["repeated", "negative"])
def test_label_header_must_be_one_non_negative_count(tmp_path, text, line_no, message):
    edges = write(tmp_path, "e.tsv", "0\t1\n")
    labels = write(tmp_path, "l.tsv", text)
    with pytest.raises(DatasetParseError, match=message) as err:
        load_dataset(edges, labels)
    assert err.value.line_no == line_no


@pytest.mark.parametrize("text, line_no, message", [
    ("0\tval\n1\ttest\n", 1, "no train node"),
    ("0\ttrain\n# comment\n1\tval\n0\ttest\n", 4, "node 0 is listed twice"),
    ("0\ttrain\n0\ttrain\n", 2, "node 0 is listed twice"),
], ids=["no-train", "two-splits", "same-split"])
def test_split_file_must_name_a_train_node_and_each_node_once(tmp_path, text, line_no, message):
    edges = write(tmp_path, "e.tsv", "0\t1\n1\t2\n")
    labels = write(tmp_path, "l.tsv", "#C=1\n0\t0\n1\t0\n2\t0\n")
    splits = write(tmp_path, "s.tsv", text)
    with pytest.raises(DatasetParseError, match=message) as err:
        load_dataset(edges, labels, split_path=splits)
    assert err.value.line_no == line_no


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


@pytest.mark.parametrize("value", ["nan", "-nan", "1.5", "-0.1", "inf", "-inf"])
def test_probability_outside_the_unit_interval_is_refused_at_its_line(tmp_path, value):
    # the id check reads the whole file first, so a later row may come first
    path = write(tmp_path, "probs.csv",
                 f"node_id,p_0,p_1\n1,0.25,0.5\n2,0.5,0.75\n0,0.0,{value}\n3,2.0,1.0\n")
    with pytest.raises(DatasetParseError, match=r"probs\.csv:4: .*outside \[0, 1\]"):
        read_probability_csv(path)


def test_probability_csv_keeps_the_interval_bounds(tmp_path):
    path = write(tmp_path, "probs.csv", "node_id,p_0,p_1\n0,0.0,1.0\n1,1,0\n")
    assert read_probability_csv(path).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_header_only_probability_csv_is_refused(tmp_path):
    path = write(tmp_path, "probs.csv", "node_id,p_0,p_1\n")
    with pytest.raises(DatasetParseError, match="no rows"):
        read_probability_csv(path)


def node_id(sign=st.sampled_from(["", "+", "-"])):
    """An id as a file may spell it: leading zeros, a sign, an underscore."""
    digits = st.integers(0, 10**6).map(str)
    return st.one_of(
        digits,
        digits.map(lambda d: "00" + d),
        digits.map(lambda d: d[:1] + "_" + d[1:] if len(d) > 1 else d),
        st.tuples(sign, digits).map("".join),
    )


def edge_line(sign):
    pad = st.sampled_from(["", " ", "\t"])
    blank = st.sampled_from([" ", "\t", "  ", " \t ", "\x0b", "\x0c"])
    return st.tuples(pad, node_id(sign), blank, node_id(sign), pad).map("".join)


ODD_LINE = st.sampled_from([
    "", "   ", "\t", "# comment", "  # indented", "1 2 # c", "#1 2", "1 2 3", "7", "1 2\t3",
    "+5 1", "1_0 2", "1__0 2", "-3 4", "-0 4", "1.5 2", "1e3 2", "0x1 2", "abc def", "\u0663 1",
    "1\u00a02", "1\u2003 2", "1\x1c2", "\x00 1", "0\u01fe1 2",
])
EDGE_FILE_LINES = st.one_of(
    st.lists(edge_line(st.sampled_from(["", "+"])), min_size=1, max_size=30),
    st.lists(st.one_of(edge_line(st.sampled_from(["", "+", "-"])), ODD_LINE), max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    lines=EDGE_FILE_LINES,
    eol=st.sampled_from(["\n", "\r\n", "\r"]),
    final_eol=st.booleans(),
)
def test_edge_parser_matches_line_scanner(tmp_path_factory, lines, eol, final_eol):
    path = tmp_path_factory.mktemp("edges") / "edges.tsv"
    path.write_bytes((eol.join(lines) + (eol if final_eol and lines else "")).encode("utf-8"))
    try:
        expected = np.array(scan_edge_file(path), dtype=np.int64).reshape(-1, 2)
    except DatasetParseError as err:
        with pytest.raises(DatasetParseError) as got:
            read_edge_file(path)
        assert (got.value.line_no, str(got.value)) == (err.line_no, str(err))
        return
    edges = read_edge_file(path)
    assert edges.dtype == np.int64 and edges.shape == expected.shape
    assert np.array_equal(edges, expected)


def feature_value():
    """A value as a feature file may spell it: repr of a float, a signed zero, an exponent."""
    mantissa = st.sampled_from(["1", "2.5", "-7", ".5", "5.", "+3.25", "-0.0"])
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["0", "-0", "-0.0", "+0.0", "0.0", "-0e5"]),
        st.tuples(mantissa, st.sampled_from(["e", "E"]), st.integers(-330, 310)).map(
            lambda t: f"{t[0]}{t[1]}{t[2]}"
        ),
    )


def feature_rows(rows, cols):
    pad = st.sampled_from(["", " ", "\t"])
    cell = st.tuples(pad, feature_value(), pad).map("".join)
    line = st.lists(cell, min_size=cols, max_size=cols).map(",".join)
    return st.lists(line, min_size=rows, max_size=rows)


ODD_FEATURE_LINE = st.sampled_from([
    "", "   ", "\t", "\x0c", "nan", "1,nan", "inf,1", "-inf", "Infinity", "1e999,1", "1,,2", "1,2,",
    ",", "1_0,2", "0x1", "1;2", "1 2", "abc", "# 1,2", "1,2 # c", "\u0663,1", "1\u00a0,2", "1\x1c,2",
    "1\x0b,2", "\x00", "1,2,3", "7",
])
FEATURE_FILE_LINES = st.one_of(
    st.tuples(st.integers(1, 6), st.integers(1, 5)).flatmap(lambda shape: feature_rows(*shape)),
    st.integers(1, 4).flatmap(
        lambda cols: st.lists(st.one_of(feature_rows(1, cols).map(lambda r: r[0]), ODD_FEATURE_LINE),
                              max_size=8)
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    lines=FEATURE_FILE_LINES,
    eol=st.sampled_from(["\n", "\r\n", "\r"]),
    final_eol=st.booleans(),
)
def test_feature_parser_matches_line_scanner(tmp_path_factory, lines, eol, final_eol):
    # the bulk parse must give the line scanner's array bytes (negative zero
    # included) or its refusal, message and line
    path = tmp_path_factory.mktemp("features") / "features.csv"
    path.write_bytes((eol.join(lines) + (eol if final_eol and lines else "")).encode("utf-8"))
    try:
        expected = np.array(scan_feature_file(path), dtype=np.float64)
    except DatasetParseError as err:
        with pytest.raises(DatasetParseError) as got:
            read_feature_file(path)
        assert (got.value.line_no, str(got.value)) == (err.line_no, str(err))
        return
    features = read_feature_file(path)
    assert features.dtype == np.float64 and features.shape == expected.shape
    assert features.tobytes() == expected.tobytes()


@pytest.mark.parametrize("text, shape", [("1.5,-0.0,2e-3\n", (1, 3)), ("1.5\n-0.0\n2e-3\n", (3, 1))])
def test_feature_parser_keeps_one_row_and_one_column(tmp_path, text, shape):
    features = read_feature_file(write(tmp_path, "f.csv", text))
    assert features.shape == shape
    assert features.tobytes() == np.array([1.5, -0.0, 2e-3]).reshape(shape).tobytes()


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_bulk_parse_leaves_separator_characters_to_the_line_scanner(tmp_path, sep):
    # np.loadtxt strips these as whitespace, float() refuses them and
    # str.split() splits on them, so only the line scanner reads them right
    with pytest.raises(DatasetParseError, match="non-numeric feature value") as err:
        read_feature_file(write(tmp_path, "features.csv", f"3,4\n1{sep},2\n"))
    assert err.value.line_no == 2
    edges = write(tmp_path, "edges.tsv", f"0\t1\n2{sep}3\n")
    assert np.array_equal(read_edge_file(edges), np.array(scan_edge_file(edges)).reshape(-1, 2))


def test_bulk_parse_holds_no_copy_of_the_text_beside_its_result(tmp_path):
    rng = np.random.default_rng(5)
    edges = tmp_path / "edges.tsv"
    np.savetxt(edges, rng.integers(0, 10**6, size=(40_000, 2)), fmt="%d", delimiter="\t")
    features = tmp_path / "features.csv"
    write_feature_file(rng.normal(size=(4000, 10)), features)
    for read, path in ((read_edge_file, edges), (read_feature_file, features)):
        tracemalloc.start()
        try:
            result = read(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the text is read once as bytes and once decoded, to be checked,
        # and is freed before np.loadtxt reads the file itself in chunks
        assert peak <= result.nbytes + 2 * path.stat().st_size


def test_edge_parser_refuses_ids_beyond_64_bits_by_line(tmp_path):
    path = write(tmp_path, "e.tsv", "0 1\n99999999999999999999 1\n")
    with pytest.raises(DatasetParseError, match="64 bits") as err:
        read_edge_file(path)
    assert err.value.line_no == 2
