"""Synthetic multi-label graphs with controllable homophily and feature quality.

Label sets are drawn with a truncated-geometric size distribution calibrated
to the requested mean (median 3, max 12 at the defaults). A share of nodes
copy one of a pool of at least two prototype sets; the share grows with the
homophily target so that enough identical-set pairs exist for the edge
sampler. Edges come from accept/reject pairing: candidate pairs are drawn
from mixed strata (identical-set, shared-label, uniform) and accepted with a
probability exponential in their Jaccard similarity; the exponent is tuned
by bisection until the measured homophily hits the target within
HOMOPHILY_TOLERANCE. At target 1.0 every node copies a prototype and edges
join only identical sets, each group a clique or, past deg + 1 members, a ring.
Features are a random linear read-out of the labels plus Gaussian noise,
with a configurable share of columns decorrelated by row permutation.

These generators are statistics-calibrated re-derivations: they match the
reported summary characteristics, not any particular pre-existing instance,
and stamp that provenance into the dataset metadata.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import GenerationInfeasibleError
from .graph import Dataset, Graph, jaccard_per_edge, label_homophily, make_dataset
from .rng import substream

GENERATOR_VERSION = "1.0"
HOMOPHILY_TOLERANCE = 0.02
PAIRS_PER_DRAW = 32768


@dataclass
class SynthSpec:
    n: int = 3000
    C: int = 20
    target_homophily: float = 0.6
    mean_labels: float = 3.23
    max_labels: int = 12
    avg_degree: float | None = None
    r_ori_feat: float = 1.0
    feat_dim: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.target_homophily <= 1.0):
            raise ValueError("target_homophily must lie in [0, 1]")
        if not (1 <= self.max_labels <= self.C):
            raise ValueError("max_labels must lie in [1, C]")
        if not (0.0 <= self.r_ori_feat <= 1.0):
            raise ValueError("r_ori_feat must lie in [0, 1]")
        if self.mean_labels > self.C:
            raise ValueError("mean_labels cannot exceed the number of labels")
        for name, low in (("n", 2), ("feat_dim", 0), ("mean_labels", 1), ("avg_degree", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")

    def resolved_avg_degree(self) -> float:
        """Degree preset: 30, except a dense regime for low homophily targets."""
        if self.avg_degree is not None:
            return self.avg_degree
        if self.target_homophily < 0.4:
            return max(2, round(800 * self.n / 3000))
        return 30


def _size_distribution(mean: float, k_max: int) -> np.ndarray:
    """Two-sided truncated geometric pmf on {1..k_max} with the given mean.

    Mass decays geometrically on both sides of floor(mean), which pins the
    median at that center with a wide margin while the decay rate is tuned
    by bisection to hit the mean. The longer right tail makes the mean
    exceed the center for every decay rate.
    """
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    if k_max == 1 or mean <= 1.0:
        pmf = np.zeros(k_max)
        pmf[0] = 1.0
        return pmf
    center = int(np.clip(int(mean), 1, k_max))

    def trunc_mean(q):
        w = q ** np.abs(ks - center)
        return float((ks * w).sum() / w.sum())

    lo, hi = 1e-9, 1.0 - 1e-9
    target = float(np.clip(mean, trunc_mean(lo) + 1e-9, trunc_mean(hi) - 1e-9))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if trunc_mean(mid) < target:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    w = q ** np.abs(ks - center)
    return w / w.sum()


def _label_popularity(c: int) -> np.ndarray:
    """Mild popularity skew over label ids."""
    w = 1.0 / np.sqrt(np.arange(1, c + 1, dtype=np.float64))
    return w / w.sum()


def _sample_label_set(rng, pmf, pop, c) -> np.ndarray:
    k = int(rng.choice(len(pmf), p=pmf)) + 1
    return rng.choice(c, size=k, replace=False, p=pop)


def _copy_fraction(target: float) -> float:
    """Share of nodes that copy a prototype set; grows with the target.

    Duplicate label sets supply the Jaccard-1 pairs the edge sampler needs,
    so even low targets get a sizeable share (a dense graph cannot average
    0.2 without some identical-set edges).
    """
    return 0.28 + 0.6 * target


def generate_labels(spec: SynthSpec) -> np.ndarray:
    """Binary label matrix with calibrated per-node set sizes.

    At target homophily 1.0 every node copies one of at least two prototype
    sets, each taken by two nodes or more once n >= 4, so identical-set-only
    edge placement is always possible. Below it a node copies a random
    prototype with probability _copy_fraction(target), else draws its own.
    """
    rng = substream(spec.seed, "labels")
    pmf = _size_distribution(spec.mean_labels, spec.max_labels)
    pop = _label_popularity(spec.C)
    dist_median = int(np.searchsorted(np.cumsum(pmf), 0.5)) + 1

    p_copy = _copy_fraction(spec.target_homophily)
    members = (spec.resolved_avg_degree() + 1) * (1 + round(2 * p_copy))
    n_proto = max(2, min(spec.n // 2, round(p_copy * spec.n / members)))
    # keep the prototype pool's own size statistics on target, since a
    # large node share inherits them
    for _ in range(200):
        sizes = rng.choice(len(pmf), size=n_proto, p=pmf) + 1
        if abs(sizes.mean() - spec.mean_labels) <= 0.2 and int(np.median(sizes)) == dist_median:
            break
    protos = np.zeros((n_proto, spec.C), dtype=np.int8)
    for row, k in zip(protos, sizes):
        row[rng.choice(spec.C, size=int(k), replace=False, p=pop)] = 1

    if spec.target_homophily >= 1.0:
        return protos[rng.permutation(spec.n) % n_proto]

    copy_mask = rng.random(spec.n) < p_copy
    labels = protos[rng.integers(n_proto, size=spec.n)]
    for v in np.flatnonzero(~copy_mask):
        labels[v] = 0
        labels[v, _sample_label_set(rng, pmf, pop, spec.C)] = 1
    return labels


def _label_set_groups(labels: np.ndarray) -> list[list[int]]:
    """Nodes grouped by identical label set, in order of first appearance."""
    sets = {}
    for v in range(labels.shape[0]):
        sets.setdefault(tuple(np.flatnonzero(labels[v])), []).append(v)
    return list(sets.values())


def _distinct_pair(rng, k: int, s):
    """k index pairs (a, b) with a != b, both below s (a scalar or one per pair)."""
    a = (rng.random(k) * s).astype(np.int64)
    b = (rng.random(k) * (s - 1)).astype(np.int64)
    return a, b + (b >= a)


class _Stratum:
    """Pairs of distinct members of one node group, picking a group of s
    members with weight s(s-1)/2; groups of fewer than two are dropped."""

    def __init__(self, groups):
        groups = [np.asarray(g, dtype=np.int64) for g in groups if len(g) >= 2]
        self.flat = np.concatenate(groups) if groups else np.empty(0, np.int64)
        self.sizes = np.asarray([len(g) for g in groups], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])[:-1]
        weights = self.sizes * (self.sizes - 1) / 2.0
        self.cdf = np.cumsum(weights / weights.sum())

    def draw(self, rng, k: int):
        which = np.searchsorted(self.cdf, rng.random(k), side="right")
        a, b = _distinct_pair(rng, k, self.sizes[which])
        base = self.offsets[which]
        return self.flat[base + a], self.flat[base + b]


class _PairSampler:
    """Vectorized candidate-pair proposals from three strata: identical label
    set, shared label, uniform."""

    def __init__(self, labels: np.ndarray):
        self.n = labels.shape[0]
        self.labels = labels
        self.strata = (
            _Stratum(_label_set_groups(labels)),
            _Stratum(np.flatnonzero(labels[:, c]) for c in range(labels.shape[1])),
        )

    def propose(self, rng, size: int):
        """(u, v, jaccard) arrays for `size` candidate pairs; jaccard is NaN
        where a label set is empty, so such a pair is never accepted."""
        strata = rng.integers(0, 3, size=size)
        for index, stratum in enumerate(self.strata):
            if not len(stratum.cdf):
                strata[strata == index] = 2
        u = np.empty(size, dtype=np.int64)
        v = np.empty(size, dtype=np.int64)

        # a zero-size draw leaves the generator as it was: no empty-stratum guard
        for index, stratum in enumerate(self.strata):
            mask = strata == index
            u[mask], v[mask] = stratum.draw(rng, int(mask.sum()))
        m2 = strata == 2
        u[m2], v[m2] = _distinct_pair(rng, int(m2.sum()), self.n)
        jac, _ = jaccard_per_edge(np.column_stack((u, v)), self.labels)
        return u, v, jac


def _build_edges(sampler, spec, beta, m_target):
    """Accept/reject edges until m_target or the proposal budget runs out.

    Returns the keys u * n + v (u < v) in acceptance order and their mean
    Jaccard, the graph's label homophily (0.0 with no edge).
    """
    rng = substream(spec.seed, "edges")
    edges = {}
    budget = 200 * m_target
    spent = 0
    n = sampler.n
    while len(edges) < m_target and spent < budget:
        u, v, jac = sampler.propose(rng, PAIRS_PER_DRAW)
        spent += PAIRS_PER_DRAW
        acc = np.minimum(np.exp(beta * (jac - 0.5)), 1.0)
        keep = rng.random(PAIRS_PER_DRAW) < acc
        lo = np.minimum(u[keep], v[keep])
        hi = np.maximum(u[keep], v[keep])
        for a, b, j in zip(lo, hi, jac[keep]):
            key = a * n + b
            if key not in edges:
                edges[key] = j
                if len(edges) >= m_target:
                    break
    achieved = float(np.mean(list(edges.values()))) if edges else 0.0
    return np.fromiter(edges, np.int64, len(edges)), achieved


def _identical_only_graph(labels, spec, deg) -> Graph:
    """Edges inside each shuffled group of identical label sets: a clique of
    at most deg + 1 members, else a ring to the int(deg) // 2 next members."""
    rng = substream(spec.seed, "edges")
    pairs = []
    for group in _label_set_groups(labels):
        g = np.asarray(group)
        rng.shuffle(g)
        s = len(g)
        if s <= deg + 1:
            i, j = np.triu_indices(s, k=1)
        else:
            i = np.tile(np.arange(s), int(deg) // 2)
            j = (i + np.repeat(np.arange(1, int(deg) // 2 + 1), s)) % s
        pairs.append(np.column_stack((g[i], g[j])))
    return Graph.from_edges(spec.n, np.concatenate(pairs))


def _refuse_shortfall(placed, m_target, target, achieved):
    if placed < 0.8 * m_target:
        raise GenerationInfeasibleError(
            target, achieved, f"only {placed} of {m_target} edges could be placed"
        )


def generate_graph(labels: np.ndarray, spec: SynthSpec) -> Graph:
    """Graph whose measured label homophily matches the target.

    One bisection on the acceptance exponent serves two goals: it tunes on
    a reduced edge budget to within 0.5 x HOMOPHILY_TOLERANCE, then, if the
    full-size graph misses by more than 0.75 x, refines at full size toward
    that. A final miss beyond HOMOPHILY_TOLERANCE raises
    GenerationInfeasibleError carrying the achieved value. So does a graph
    with fewer than 80% of the n * avg_degree / 2 edges asked for, on
    either path.
    """
    deg = spec.resolved_avg_degree()
    m_target = max(1, round(spec.n * deg / 2))
    target = spec.target_homophily
    if target >= 1.0:
        graph = _identical_only_graph(labels, spec, deg)
        # every edge joins two identical label sets
        _refuse_shortfall(graph.n_edges, m_target, target, float(graph.n_edges > 0))
        return graph

    sampler = _PairSampler(labels)

    def bisect(lo, hi, m, goal, steps):
        # a build that misses the goal narrows the bracket before the next
        for _ in range(steps):
            beta = 0.5 * (lo + hi)
            keys, achieved = _build_edges(sampler, spec, beta, m)
            if abs(achieved - target) <= goal:
                break
            lo, hi = (beta, hi) if achieved < target else (lo, beta)
        return lo, hi, beta, keys, achieved

    m_tune = min(m_target, 30000)
    lo, hi, beta, keys, achieved = bisect(-40.0, 40.0, m_tune, 0.5 * HOMOPHILY_TOLERANCE, 50)
    if m_tune < m_target:
        keys, achieved = _build_edges(sampler, spec, beta, m_target)
    if abs(achieved - target) > 0.75 * HOMOPHILY_TOLERANCE:
        # the full-size draw can drift off a tuning done on a subsample;
        # refine toward a stricter goal so the final value has margin
        lo, hi = (beta, hi) if achieved < target else (lo, beta)
        *_, keys, achieved = bisect(lo, hi, m_target, 0.75 * HOMOPHILY_TOLERANCE, 20)
    if abs(achieved - target) > HOMOPHILY_TOLERANCE:
        raise GenerationInfeasibleError(target, achieved)
    _refuse_shortfall(len(keys), m_target, target, achieved)
    return Graph.from_edges(spec.n, np.column_stack(np.divmod(keys, spec.n)))


def generate_features(labels: np.ndarray, spec: SynthSpec) -> np.ndarray:
    """Label-informed features with a decorrelated column share.

    Base features are labels @ M (M a fixed seeded random map) plus Gaussian
    noise (sigma 0.1); a fraction (1 - r_ori_feat) of the columns is then
    replaced by a row-permuted copy of itself, destroying its correlation
    with the labels while keeping the marginal distribution.
    """
    n, c = labels.shape
    mapping = substream(spec.seed, "feat-map").normal(0.0, 1.0 / np.sqrt(c), (c, spec.feat_dim))
    noise = substream(spec.seed, "feat-noise").normal(0.0, 0.1, (n, spec.feat_dim))
    X = labels.astype(np.float64) @ mapping + noise
    k_decor = round((1.0 - spec.r_ori_feat) * spec.feat_dim)
    if k_decor > 0:
        cols = substream(spec.seed, "feat-cols").choice(spec.feat_dim, size=k_decor, replace=False)
        perm = substream(spec.seed, "feat-perm").permutation(n)
        X[:, cols] = X[perm][:, cols]
    return X


def generate_dataset(spec: SynthSpec):
    """Full pipeline: labels, graph, features, and a metadata record."""
    labels = generate_labels(spec)
    graph = generate_graph(labels, spec)
    features = generate_features(labels, spec) if spec.feat_dim > 0 else None
    dataset = make_dataset(graph, labels, features=features)
    meta = {
        "spec": asdict(spec),
        "achieved_homophily": label_homophily(dataset),
        "achieved_avg_degree": float(2.0 * graph.n_edges / graph.n),
        "mean_labels": float(labels.sum(axis=1).mean()),
        "generator_version": GENERATOR_VERSION,
        "provenance": "statistics-calibrated synthetic data generated by this package",
    }
    return dataset, meta


# a twin region's train, test and bridge nodes; each train or test node draws
# INTRA_DEGREE // 2 links inside its side and BRIDGE_LINKS to the bridges
REGION_TRAIN, REGION_TEST, REGION_BRIDGES, INTRA_DEGREE, BRIDGE_LINKS = 50, 30, 8, 6, 2


def generate_position_benchmark(n_regions: int = 12, seed: int = 0) -> Dataset:
    """Featureless benchmark where only node position carries the labels.

    One random region template is copied n_regions times, so corresponding
    nodes across regions are exact structural twins. Labels are decided by
    the region index. Train nodes and test nodes never touch directly: both
    connect to unlabeled bridge (validation) nodes, so propagated labels
    reach no test node while walk embeddings separate the regions cleanly.
    A region holds REGION_TRAIN + REGION_TEST + REGION_BRIDGES = 88 nodes.
    """
    if n_regions < 1:
        raise ValueError(f"n_regions must be >= 1, got {n_regions}")
    a, b, h = REGION_TRAIN, REGION_TEST, REGION_BRIDGES
    rng = substream(seed, "region-template")
    size = a + b + h
    template = set()

    def add_random_links(side_start, side_size, bridge_start):
        for i in range(side_size):
            node = side_start + i
            for _ in range(INTRA_DEGREE // 2):
                other = side_start + int(rng.integers(side_size - 1))
                other = other + (other >= node)
                template.add((min(node, other), max(node, other)))
            picks = rng.permutation(h)[:BRIDGE_LINKS]
            for p in picks:
                template.add((node, bridge_start + int(p)))

    bridge_start = a + b
    add_random_links(0, a, bridge_start)
    add_random_links(a, b, bridge_start)
    for i in range(h):
        template.add((bridge_start + i, bridge_start + (i + 1) % h))

    n = n_regions * size
    region, pos = np.divmod(np.arange(n), size)
    labels = np.zeros((n, n_regions), dtype=np.int8)
    labels[np.arange(n), region] = 1
    labels[np.arange(n), (region + 1) % n_regions] = 1
    # region r is the template shifted by r * size
    edges = np.array(sorted(template)) + size * np.arange(n_regions)[:, None, None]
    graph = Graph.from_edges(n, edges.reshape(-1, 2))
    return make_dataset(graph, labels, train_mask=pos < a, val_mask=pos >= a + b,
                        test_mask=(pos >= a) & (pos < a + b))
