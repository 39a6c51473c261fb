"""Dataset file formats.

Text formats skip blank lines; a refused line raises DatasetParseError
naming the path and line.

Edge list    one "u<TAB>v" pair per line, 0-based integer ids, '#' comments.
Labels       one header "#C=<C>" with C >= 0, then "node_id<TAB>c1,c2,..."
             (empty allowed).
Features     CSV (one row per node, D finite reals), or raw binary with an
             8-byte little-endian header (n: u32, D: u32) followed by n*D
             finite float64 values; binary is used for paths ending in ".bin".
Splits       "node_id<TAB>{train|val|test}", '#' comments; each node at most
             once, and at least one train node.
Probs CSV    header "node_id,p_0,...", then one "node_id,values" row per
             node id 0..n-1, every value in [0, 1].
Dynamics     "checkpoint_index,epoch,node_id,loss" (evaluation.import_dynamics);
             every checkpoint holds one loss for every node and one epoch.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DatasetIndexError, DatasetParseError, ShapeError
from .graph import Dataset, Graph, make_dataset


def _records(path, comments=True):
    """Yield (line_no, line) for each line of a text file that holds data.

    Blank lines are skipped, and so are lines whose first non-blank
    character is '#' when ``comments`` is set.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            stripped = line.strip()
            if stripped and not (comments and stripped.startswith("#")):
                yield line_no, line


def _parse(kind, tokens, path, line_no, message):
    """[kind(t) for t in tokens], or DatasetParseError(path, line_no, message)."""
    try:
        return [kind(t) for t in tokens]
    except ValueError:
        raise DatasetParseError(path, line_no, message) from None


def _bulk_parse(path, comments, **loadtxt_args):
    """np.loadtxt of an ASCII text file that holds data, or None if it refuses.

    Non-ASCII text is never parsed in bulk: np.loadtxt reads some non-digit
    characters as digits. With ``comments`` a file that holds '#' is not
    either. np.loadtxt reads the file itself, in chunks, so no copy of the
    text lives beside its parse.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not (text.isascii() and text.strip()) or (comments and "#" in text):
        return None
    del text
    try:
        return np.loadtxt(path, comments=None, ndmin=2, encoding="ascii", **loadtxt_args)
    except ValueError:
        return None


def read_edge_file(path) -> np.ndarray:
    """Parse an edge list into an (m, 2) int64 array of (u, v) rows, in file order.

    An ASCII file without '#' is parsed in bulk; anything that parse refuses
    (a comment, a malformed or negative id, a wrong field count) is read
    again line by line, so every file gets the line scanner's edges or its
    error and line number.
    """
    edges = _bulk_parse(path, comments=True, dtype=np.int64)
    if edges is not None and edges.shape[1] == 2 and not (edges < 0).any():
        return edges
    edges = []
    for line_no, line in _records(path):
        parts = line.split()
        if len(parts) != 2:
            raise DatasetParseError(path, line_no, f"expected 'u<TAB>v', got {line!r}")
        u, v = _parse(int, parts, path, line_no, f"non-integer node id in {line!r}")
        if u < 0 or v < 0:
            raise DatasetParseError(path, line_no, "node ids must be non-negative")
        if max(u, v) > np.iinfo(np.int64).max:
            raise DatasetParseError(path, line_no, "node id does not fit in 64 bits")
        edges.append((u, v))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def read_label_file(path):
    """Parse a label file; returns (C, {node_id: [label ids]})."""
    n_labels = None
    rows: dict[int, list[int]] = {}
    for line_no, line in _records(path, comments=False):
        stripped = line.strip()
        if stripped.startswith("#"):
            if stripped.startswith("#C="):
                if n_labels is not None:
                    raise DatasetParseError(path, line_no, "repeated '#C=' header")
                (n_labels,) = _parse(int, [stripped[3:]], path, line_no, f"bad label-count header {line!r}")
                if n_labels < 0:
                    raise DatasetParseError(path, line_no, "label count must be non-negative")
            continue
        parts = line.split("\t")
        if len(parts) not in (1, 2):
            raise DatasetParseError(path, line_no, f"expected 'node<TAB>labels', got {line!r}")
        (node,) = _parse(int, parts[:1], path, line_no, f"non-integer node id in {line!r}")
        if node < 0:
            raise DatasetParseError(path, line_no, "node ids must be non-negative")
        if node in rows:
            raise DatasetParseError(path, line_no, f"duplicate label line for node {node}")
        field = parts[1].strip() if len(parts) == 2 else ""
        rows[node] = _parse(int, field.split(",") if field else [], path, line_no,
                            f"non-integer label id in {line!r}")
    if n_labels is None:
        raise DatasetParseError(path, 1, "missing '#C=<int>' header")
    for node, labels in rows.items():
        for c in labels:
            if c < 0 or c >= n_labels:
                raise DatasetIndexError(f"{path}: label id {c} out of range [0, {n_labels}) for node {node}")
    return n_labels, rows


def read_feature_file(path) -> np.ndarray:
    """Read a CSV or binary feature file; a non-finite value is refused.

    An ASCII CSV is parsed in bulk; anything that parse refuses (a
    malformed value, a ragged row) or that holds a non-finite value is read
    again line by line, so every file gets the line scanner's array or its
    error and line number.
    """
    path = Path(path)
    if path.suffix == ".bin":
        blob = path.read_bytes()
        if len(blob) < 8:
            raise DatasetParseError(path, 1, "binary feature file shorter than its header")
        n, d = struct.unpack("<II", blob[:8])
        expect = 8 + n * d * 8
        if len(blob) != expect:
            raise DatasetParseError(path, 1, f"binary feature payload is {len(blob)} bytes, expected {expect}")
        features = np.frombuffer(blob[8:], dtype="<f8").reshape(n, d).copy()
        if not np.isfinite(features).all():
            raise DatasetParseError(path, 1, "binary feature payload holds a non-finite value")
        return features
    features = _bulk_parse(path, comments=False, delimiter=",")
    if features is not None and np.isfinite(features).all():
        return features
    rows = []
    for line_no, line in _records(path, comments=False):
        row = _parse(float, line.split(","), path, line_no, f"non-numeric feature value in {line!r}")
        if rows and len(row) != len(rows[0]):
            raise DatasetParseError(path, line_no, f"row has {len(row)} columns, expected {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise DatasetParseError(path, 1, "empty feature file")
    features = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(features).all():
        # only a refused file pays for finding the line
        row = int(np.flatnonzero(~np.isfinite(features).all(axis=1))[0])
        line_no = [no for no, _ in _records(path, comments=False)][row]
        raise DatasetParseError(path, line_no, "non-finite feature value")
    return features


def read_split_file(path, n: int):
    """Read (train, val, test) masks; the file must name a train node and list each node once."""
    names = {"train": 0, "val": 1, "test": 2}
    masks = np.zeros((3, n), dtype=bool)
    for line_no, line in _records(path):
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in names:
            raise DatasetParseError(path, line_no, f"expected 'node<TAB>train|val|test', got {line!r}")
        (node,) = _parse(int, parts[:1], path, line_no, f"non-integer node id in {line!r}")
        if node < 0 or node >= n:
            raise DatasetIndexError(f"{path}:{line_no}: node id {node} out of range [0, {n})")
        if masks[:, node].any():
            raise DatasetParseError(path, line_no, f"node {node} is listed twice")
        masks[names[parts[1]], node] = True
    if not masks[0].any():
        raise DatasetParseError(path, 1, "split file names no train node")
    return masks[0], masks[1], masks[2]


def load_dataset(edge_path, label_path, feature_path=None, split_path=None) -> Dataset:
    """Load a dataset from its component files.

    The node count is max(edge endpoints) + 1, max(label node ids) + 1, or
    the feature row count, whichever is largest; nodes referenced only in
    labels or features become isolated nodes. Masks are empty when
    ``split_path`` is absent.
    """
    edges = read_edge_file(edge_path)
    n_labels, label_rows = read_label_file(label_path)
    features = read_feature_file(feature_path) if feature_path is not None else None

    n = int(edges.max()) + 1 if len(edges) else 0
    if label_rows:
        n = max(n, max(label_rows) + 1)
    if features is not None:
        if features.shape[0] < n:
            raise ShapeError(
                f"feature file has {features.shape[0]} rows but other files reference {n} nodes"
            )
        n = max(n, features.shape[0])
    if n == 0:
        raise DatasetParseError(edge_path, 1, "dataset defines no nodes")

    labels = np.zeros((n, n_labels), dtype=np.int8)
    for node, ids in label_rows.items():
        labels[node, ids] = 1
    graph = Graph.from_edges(n, edges)
    dataset = make_dataset(graph, labels, features=features)
    if split_path is not None:
        dataset = dataset.with_masks(*read_split_file(split_path, n))
    return dataset


def save_dataset(dataset: Dataset, edge_path, label_path, feature_path=None, split_path=None):
    """Write a dataset back out in the formats read by :func:`load_dataset`."""
    with open(edge_path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{u}\t{v}\n" for u, v in dataset.graph.edge_array().tolist()))
    with open(label_path, "w", encoding="utf-8") as fh:
        fh.write(f"#C={dataset.n_labels}\n")
        for v in range(dataset.n):
            ids = np.flatnonzero(dataset.labels[v])
            fh.write(f"{v}\t{','.join(str(c) for c in ids)}\n")
    if feature_path is not None:
        if dataset.features is None:
            raise ShapeError("dataset has no features to save")
        write_feature_file(dataset.features, feature_path)
    if split_path is not None:
        with open(split_path, "w", encoding="utf-8") as fh:
            for name, mask in (
                ("train", dataset.train_mask),
                ("val", dataset.val_mask),
                ("test", dataset.test_mask),
            ):
                for v in np.flatnonzero(mask):
                    fh.write(f"{v}\t{name}\n")


def write_feature_file(features: np.ndarray, path):
    path = Path(path)
    features = np.asarray(features, dtype=np.float64)
    if path.suffix == ".bin":
        n, d = features.shape
        with open(path, "wb") as fh:
            fh.write(struct.pack("<II", n, d))
            fh.write(features.astype("<f8").tobytes())
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for row in features:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


def write_probability_csv(probs: np.ndarray, path):
    """Write an (n, C) probability matrix as 'node_id,p_0..p_{C-1}', one row per node.

    Values are written with repr, so reading them back is exact.
    """
    probs = np.asarray(probs, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_id," + ",".join(f"p_{i}" for i in range(probs.shape[1])) + "\n")
        for v, row in enumerate(probs):
            fh.write(str(v) + "," + ",".join(repr(float(x)) for x in row) + "\n")


def read_probability_csv(path) -> np.ndarray:
    """Read a :func:`write_probability_csv` file back.

    Its rows must be as wide as its header and cover node ids 0..n-1, and
    every probability must be a number in [0, 1]: the first row that holds
    a nan or a value outside that range is named.
    """
    records = _records(path, comments=False)
    line_no, header = next(records, (1, ""))
    if not header.startswith("node_id,"):
        raise DatasetParseError(path, line_no, "missing probability CSV header")
    width = header.count(",") + 1
    rows = []
    for line_no, line in records:
        parts = line.split(",")
        if len(parts) != width:
            raise DatasetParseError(
                path, line_no, f"probability row has {len(parts)} fields, header has {width}"
            )
        (node,) = _parse(int, parts[:1], path, line_no, "malformed probability row")
        values = _parse(float, parts[1:], path, line_no, "malformed probability row")
        rows.append((node, line_no, values))
    if not rows:
        raise DatasetParseError(path, 2, "probability CSV has no rows")
    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(len(rows))):
        raise DatasetParseError(path, 1, "probability CSV must cover node ids 0..n-1")
    probs = np.asarray([r[2] for r in rows], dtype=np.float64)
    bad = np.flatnonzero(~((probs >= 0.0) & (probs <= 1.0)).all(axis=1))
    if len(bad):
        line_no = min(rows[i][1] for i in bad)
        raise DatasetParseError(path, line_no, "probability row holds nan or a value outside [0, 1]")
    return probs
