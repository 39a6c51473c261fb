"""Dataset file formats.

Edge list    one "u<TAB>v" pair per line, 0-based integer ids, '#' comments.
Labels       header "#C=<int>", then "node_id<TAB>c1,c2,..." (empty allowed).
Features     CSV (one row per node, D finite reals), or raw binary with an
             8-byte little-endian header (n: u32, D: u32) followed by n*D
             finite float64 values; binary is used for paths ending in ".bin".
Splits       "node_id<TAB>{train|val|test}".
Probs CSV    header "node_id,p_0,...", then one "node_id,values" row per
             node id 0..n-1.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path

import numpy as np

from .errors import DatasetIndexError, DatasetParseError, ShapeError
from .graph import Dataset, Graph, make_dataset


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            yield line_no, raw.rstrip("\n")


def read_edge_file(path) -> np.ndarray:
    """Parse an edge list into an (m, 2) int64 array of (u, v) rows, in file order.

    An ASCII file without '#' is parsed in bulk; anything that parse refuses
    (a comment, a malformed or negative id, a wrong field count) is read
    again line by line, so every file gets the line scanner's edges or its
    error and line number. Non-ASCII text always goes to the scanner:
    np.loadtxt reads some non-digit characters as digits.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.isascii() and "#" not in text and text.strip():
        try:
            edges = np.loadtxt(io.StringIO(text), dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if edges.shape[1] == 2 and not (edges < 0).any():
                return edges
    return np.array(_scan_edge_lines(path), dtype=np.int64).reshape(-1, 2)


def _scan_edge_lines(path) -> list[tuple[int, int]]:
    edges = []
    for line_no, line in _read_lines(path):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DatasetParseError(path, line_no, f"expected 'u<TAB>v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DatasetParseError(path, line_no, f"non-integer node id in {line!r}") from None
        if u < 0 or v < 0:
            raise DatasetParseError(path, line_no, "node ids must be non-negative")
        if max(u, v) > np.iinfo(np.int64).max:
            raise DatasetParseError(path, line_no, "node id does not fit in 64 bits")
        edges.append((u, v))
    return edges


def read_label_file(path):
    """Parse a label file; returns (C, {node_id: [label ids]})."""
    n_labels = None
    rows: dict[int, list[int]] = {}
    for line_no, line in _read_lines(path):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if stripped.startswith("#C="):
                try:
                    n_labels = int(stripped[3:])
                except ValueError:
                    raise DatasetParseError(path, line_no, f"bad label-count header {line!r}") from None
            continue
        parts = line.split("\t")
        if len(parts) not in (1, 2):
            raise DatasetParseError(path, line_no, f"expected 'node<TAB>labels', got {line!r}")
        try:
            node = int(parts[0])
        except ValueError:
            raise DatasetParseError(path, line_no, f"non-integer node id in {line!r}") from None
        if node < 0:
            raise DatasetParseError(path, line_no, "node ids must be non-negative")
        if node in rows:
            raise DatasetParseError(path, line_no, f"duplicate label line for node {node}")
        field = parts[1].strip() if len(parts) == 2 else ""
        if field:
            try:
                labels = [int(t) for t in field.split(",")]
            except ValueError:
                raise DatasetParseError(path, line_no, f"non-integer label id in {line!r}") from None
        else:
            labels = []
        rows[node] = labels
    if n_labels is None:
        raise DatasetParseError(path, 1, "missing '#C=<int>' header")
    for node, labels in rows.items():
        for c in labels:
            if c < 0 or c >= n_labels:
                raise DatasetIndexError(f"{path}: label id {c} out of range [0, {n_labels}) for node {node}")
    return n_labels, rows


def read_feature_file(path) -> np.ndarray:
    """Read a CSV or binary feature file; a non-finite value is refused."""
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
    rows = []
    width = None
    for line_no, line in _read_lines(path):
        if not line.strip():
            continue
        try:
            row = [float(t) for t in line.split(",")]
        except ValueError:
            raise DatasetParseError(path, line_no, f"non-numeric feature value in {line!r}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DatasetParseError(path, line_no, f"row has {len(row)} columns, expected {width}")
        rows.append(row)
    if not rows:
        raise DatasetParseError(path, 1, "empty feature file")
    features = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(features).all():
        # only a refused file pays for finding the line
        row = int(np.flatnonzero(~np.isfinite(features).all(axis=1))[0])
        line_no = [no for no, line in _read_lines(path) if line.strip()][row]
        raise DatasetParseError(path, line_no, "non-finite feature value")
    return features


def read_split_file(path, n: int):
    names = {"train": 0, "val": 1, "test": 2}
    masks = np.zeros((3, n), dtype=bool)
    for line_no, line in _read_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in names:
            raise DatasetParseError(path, line_no, f"expected 'node<TAB>train|val|test', got {line!r}")
        try:
            node = int(parts[0])
        except ValueError:
            raise DatasetParseError(path, line_no, f"non-integer node id in {line!r}") from None
        if node < 0 or node >= n:
            raise DatasetIndexError(f"{path}:{line_no}: node id {node} out of range [0, {n})")
        masks[names[parts[1]], node] = True
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
        for u, v in dataset.graph.edge_array():
            fh.write(f"{u}\t{v}\n")
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

    Its rows must be as wide as its header and cover node ids 0..n-1.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("node_id,"):
            raise DatasetParseError(path, 1, "missing probability CSV header")
        width = header.count(",") + 1
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != width:
                raise DatasetParseError(
                    path, line_no, f"probability row has {len(parts)} fields, header has {width}"
                )
            try:
                rows.append((int(parts[0]), [float(x) for x in parts[1:]]))
            except ValueError:
                raise DatasetParseError(path, line_no, "malformed probability row") from None
    if not rows:
        raise DatasetParseError(path, 2, "probability CSV has no rows")
    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(len(rows))):
        raise DatasetParseError(path, 1, "probability CSV must cover node ids 0..n-1")
    return np.asarray([r[1] for r in rows], dtype=np.float64)
