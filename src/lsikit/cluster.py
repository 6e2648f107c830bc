"""End-to-end clustering pipelines and external quality metrics.

Three pipelines: spectral clustering of kernel affinities (normalize,
top-k eigenvectors, row normalization, k-means), co-clustering of a
rectangular matrix through its right singular vectors, and nonnegative
factorization with argmax assignment.  Quality is measured against
reference labels by mutual information, entropy, purity and pairwise
F-measure over the cluster/class contingency table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import KernelSpec, kernel_affinity, normalize_affinity
from .matrix import (as_dense, column_normalize, frobenius_norm, kmeans, nmf_factorize,
                     symmetric_eigen_topk, truncated_svd)


@dataclass(frozen=True)
class ClusteringRun:
    """Labels produced by one clustering method invocation, and those of
    each of its trials in trial order (a one-trial method: ``(labels,)``)."""

    labels: np.ndarray
    k: int
    method: str
    seed: int
    trial_labels: tuple = ()

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        labels, *trials = (np.asarray(lab, dtype=np.int64)
                           for lab in (self.labels, *self.trial_labels))
        for lab in (labels, *trials):
            if lab.size and (lab.min() < 0 or lab.max() >= self.k):
                raise ValueError("labels out of range [0, k)")
            lab.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "trial_labels", tuple(trials) or (labels,))

    @property
    def trials(self) -> int:
        return len(self.trial_labels)


@dataclass(frozen=True)
class QualityScores:
    """External clustering metrics; higher is better except entropy."""

    mutual_information: float
    entropy: float
    purity: float
    f_measure: float


def _row_normalize(x):
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.where(norms > 0, x / np.where(norms > 0, norms, 1.0), 0.0)


def spectral_cluster(points, k: int, spec: KernelSpec, seed: int) -> ClusteringRun:
    """Kernel affinity -> degree normalization -> leading eigenvectors ->
    row normalization -> k-means on the rows.

    ``points`` holds one data point per column, dense or sparse (a
    :class:`SparseMatrix` is densified for the kernel).  Points whose
    kernel row sums to zero are isolated and rejected.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    normalized = normalize_affinity(kernel_affinity(as_dense(points), spec))
    pairs = symmetric_eigen_topk(normalized, k)
    embedding = _row_normalize(pairs.vectors)
    labels = kmeans(embedding, k, seed)
    return ClusteringRun(labels, k, "spectral", seed)


def bipartite_svd_cluster(a, k: int, seed: int) -> ClusteringRun:
    """Column-normalize, take the first k right singular vectors,
    row-normalize them, k-means the rows.  Returns document labels.

    ``a`` may be dense or sparse; the normalized matrix is densified for
    the LAPACK SVD."""
    if k < 1:
        raise ValueError("k must be at least 1")
    normalized = column_normalize(a)
    if k > normalized.cols:
        raise ValueError(f"k={k} exceeds the number of documents {normalized.cols}")
    factors = truncated_svd(normalized, k)
    embedding = _row_normalize(factors.right)
    labels = kmeans(embedding, k, seed)
    return ClusteringRun(labels, k, "bipartite-svd", seed)


def nmf_cluster(a, k: int, seed: int, trials: int = 1, iterations: int = 200) -> ClusteringRun:
    """Column-normalize, factorize A ~ BC, assign each document to the
    row of its largest coefficient (ties to the lowest index).

    The factorization runs ``trials`` times, trial t seeded ``seed + t``;
    ``labels`` are those of the trial with the smallest reconstruction
    error (the first on ties) and ``trial_labels`` those of every trial.
    Use :func:`nmf_trial_scores` to average quality metrics over the
    trials.

    ``a`` may be dense or sparse; it is normalized and factorized without
    densifying.  The one dense M x N buffer is each trial's residual
    B C - A, from which its reconstruction error is taken.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    normalized = column_normalize(a)
    trial_labels, best, best_err = [], 0, np.inf
    for t in range(trials):
        basis, coeff = nmf_factorize(normalized, k, iterations, seed + t)
        trial_labels.append(np.argmax(coeff, axis=0))
        residual = basis @ coeff
        residual[normalized.row, normalized.col] -= normalized.data
        err = frobenius_norm(residual)
        if err < best_err:
            best, best_err = t, err
    return ClusteringRun(trial_labels[best], k, "nmf", seed, tuple(trial_labels))


def nmf_trial_scores(a, reference, k: int, seed: int, trials: int,
                     iterations: int = 200) -> QualityScores:
    """Quality metrics of repeated factorization runs, averaged."""
    run = nmf_cluster(a, k, seed, trials, iterations)
    return mean_scores(eval_clustering(labels, reference) for labels in run.trial_labels)


def eval_clustering(labels, reference) -> QualityScores:
    """Contingency-table metrics of ``labels`` against reference classes.

    Mutual information is in nats; entropy uses the class-count log base
    (zero when only one class exists); purity is the weighted majority
    fraction; F-measure is the F1 of pair co-membership.
    """
    lab = np.asarray(labels).ravel()
    ref = np.asarray(reference).ravel()
    if lab.shape != ref.shape:
        raise ValueError(f"length mismatch: {lab.shape[0]} labels vs {ref.shape[0]} reference")
    if lab.size == 0:
        raise ValueError("empty labelings cannot be scored")
    _, lab_idx = np.unique(lab, return_inverse=True)
    _, ref_idx = np.unique(ref, return_inverse=True)
    n_clusters = lab_idx.max() + 1
    n_classes = ref_idx.max() + 1
    table = np.zeros((n_clusters, n_classes))
    np.add.at(table, (lab_idx, ref_idx), 1.0)
    n = float(lab.size)
    nk = table.sum(axis=1)
    nc = table.sum(axis=0)

    purity = float(table.max(axis=1).sum() / n)

    entropy = 0.0
    if n_classes > 1:
        for ki in range(n_clusters):
            if nk[ki] == 0:
                continue
            p = table[ki][table[ki] > 0] / nk[ki]
            entropy += (nk[ki] / n) * float(-(p * np.log(p) / math.log(n_classes)).sum())

    mi = 0.0
    for ki in range(n_clusters):
        for ci in range(n_classes):
            if table[ki, ci] > 0:
                mi += (table[ki, ci] / n) * math.log(table[ki, ci] * n / (nk[ki] * nc[ci]))
    mi = max(mi, 0.0)

    def pairs(counts):
        return float((counts * (counts - 1) / 2).sum())

    tp = pairs(table)
    same_label = pairs(nk)
    same_class = pairs(nc)
    if same_label == 0 and same_class == 0:
        f_measure = 1.0
    elif same_label == 0 or same_class == 0 or tp == 0:
        f_measure = 0.0
    else:
        precision = tp / same_label
        recall = tp / same_class
        f_measure = 2 * precision * recall / (precision + recall)

    return QualityScores(mi, entropy, purity, float(f_measure))


def mean_scores(scores) -> QualityScores:
    """Arithmetic mean of each metric over a sequence of scores."""
    scores = list(scores)
    if not scores:
        raise ValueError("no scores to average")
    return QualityScores(
        float(np.mean([s.mutual_information for s in scores])),
        float(np.mean([s.entropy for s in scores])),
        float(np.mean([s.purity for s in scores])),
        float(np.mean([s.f_measure for s in scores])),
    )


# ---------------------------------------------------------------------------
# synthetic benchmark geometries


def two_rings(n_per_ring: int = 100, radii=(1.0, 5.0), noise: float = 0.0, seed: int = 0):
    """Two concentric circles of evenly spaced points, optional isotropic
    gaussian jitter.  Returns (points as 2 x N columns, ring labels)."""
    rng = np.random.default_rng(seed)
    columns = []
    labels = []
    for ring, radius in enumerate(radii):
        angles = 2.0 * np.pi * np.arange(n_per_ring) / n_per_ring
        pts = radius * np.stack([np.cos(angles), np.sin(angles)])
        if noise > 0:
            pts = pts + noise * rng.standard_normal(pts.shape)
        columns.append(pts)
        labels.extend([ring] * n_per_ring)
    return np.concatenate(columns, axis=1), np.array(labels, dtype=np.int64)


def two_moons(n_per_moon: int = 100, noise: float = 0.0, seed: int = 0):
    """Two interleaved half circles (unit radius, standard offsets).
    Returns (points as 2 x N columns, moon labels)."""
    rng = np.random.default_rng(seed)
    t = np.pi * np.arange(n_per_moon) / max(n_per_moon - 1, 1)
    upper = np.stack([np.cos(t), np.sin(t)])
    lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    pts = np.concatenate([upper, lower], axis=1)
    if noise > 0:
        pts = pts + noise * rng.standard_normal(pts.shape)
    labels = np.array([0] * n_per_moon + [1] * n_per_moon, dtype=np.int64)
    return pts, labels


def label_accuracy(labels, reference) -> float:
    """Best-match accuracy over all permutations of label ids (k <= 6)."""
    from itertools import permutations

    lab = np.asarray(labels).ravel()
    ref = np.asarray(reference).ravel()
    ids = np.unique(lab)
    if ids.size > 6:
        raise ValueError("too many clusters for exhaustive permutation matching")
    best = 0.0
    for perm in permutations(np.unique(ref), ids.size):
        mapping = dict(zip(ids, perm))
        mapped = np.array([mapping[v] for v in lab])
        best = max(best, float((mapped == ref).mean()))
    return best
