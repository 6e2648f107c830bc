"""Clustering pipelines, quality metrics, synthetic geometries."""

import re

import numpy as np
import pytest

from lsikit.cluster import (
    ClusteringRun,
    QualityScores,
    bipartite_svd_cluster,
    eval_clustering,
    label_accuracy,
    mean_scores,
    nmf_cluster,
    spectral_cluster,
    two_rings,
)
from lsikit.graphs import AffinityGraph, KernelSpec, normalize_affinity
from lsikit.matrix import column_normalize, kmeans, nmf_factorize, symmetric_eigen_topk

from conftest import SYNONYMY


def _same_partition(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    pairs_a = {(i, j) for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] == a[j]}
    pairs_b = {(i, j) for i in range(len(b)) for j in range(i + 1, len(b)) if b[i] == b[j]}
    return pairs_a == pairs_b


# ---------------------------------------------------------------------------
# spectral


def test_spectral_separated_blobs_perfect_split():
    rng = np.random.default_rng(0)
    pts = np.concatenate(
        [rng.standard_normal((2, 5)), rng.standard_normal((2, 5)) + np.array([[100.0], [0.0]])],
        axis=1,
    )
    run = spectral_cluster(pts, 2, KernelSpec("gaussian", alpha=1.0), seed=0)
    reference = np.array([0] * 5 + [1] * 5)
    assert _same_partition(run.labels, reference)
    assert run.method == "spectral" and run.k == 2


def test_spectral_k_equals_point_count():
    pts = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 1.0, 1.5]])
    run = spectral_cluster(pts, 4, KernelSpec("gaussian", alpha=0.5), seed=1)
    assert len(set(run.labels.tolist())) == 4


def test_spectral_isolated_point_rejected():
    # a point at the origin has an all-zero row under the plain
    # inner-product kernel, including its own diagonal
    pts = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 0.5]])
    with pytest.raises(ValueError, match="isolated"):
        spectral_cluster(pts, 2, KernelSpec("polynomial", c=0.0, d=1), seed=0)


def test_spectral_affinity_scale_invariance():
    # c * W normalizes to the same matrix, so the whole pipeline agrees
    rng = np.random.default_rng(2)
    pts = rng.random((2, 12))
    from lsikit.graphs import kernel_affinity

    g = kernel_affinity(pts, KernelSpec("gaussian", alpha=0.4))
    w = np.asarray(g.weights)

    def labels_from(weights):
        normalized = normalize_affinity(AffinityGraph(weights))
        vec = symmetric_eigen_topk(normalized, 2).vectors
        norms = np.linalg.norm(vec, axis=1, keepdims=True)
        return kmeans(vec / norms, 2, seed=7)

    assert _same_partition(labels_from(w), labels_from(8.25 * w))


# ---------------------------------------------------------------------------
# bipartite SVD


def test_bipartite_block_diagonal_exact():
    a = np.zeros((5, 6))
    a[:3, :3] = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2.0]])
    a[3:, 3:] = np.array([[3, 1, 2], [1, 3, 1.0]])
    run = bipartite_svd_cluster(a, 2, seed=0)
    reference = np.array([0, 0, 0, 1, 1, 1])
    assert _same_partition(run.labels, reference)


def test_bipartite_synonymy_reference_split():
    run = bipartite_svd_cluster(SYNONYMY, 2, seed=0)
    reference = np.array([0, 0, 0, 1, 1])
    assert _same_partition(run.labels, reference)


def test_bipartite_single_document():
    run = bipartite_svd_cluster(np.array([[1.0], [2.0]]), 1, seed=0)
    assert run.labels.tolist() == [0]


def test_bipartite_rejects_zero_column():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match=r"\[1\]"):
        bipartite_svd_cluster(a, 2, seed=0)


def test_bipartite_rejects_more_clusters_than_documents():
    with pytest.raises(ValueError, match=re.escape("k=3 exceeds the number of documents 2")):
        bipartite_svd_cluster(np.array([[1.0, 2.0], [3.0, 1.0]]), 3, seed=0)


def test_bipartite_document_permutation_equivariance():
    rng = np.random.default_rng(3)
    a = rng.random((6, 8)) + 0.05
    base = bipartite_svd_cluster(a, 2, seed=4).labels
    perm = rng.permutation(8)
    permuted = bipartite_svd_cluster(a[:, perm], 2, seed=4).labels
    assert _same_partition(permuted, base[perm])


# ---------------------------------------------------------------------------
# NMF


def test_nmf_block_diagonal_most_trials_correct():
    a = np.zeros((6, 8))
    a[:3, :4] = 1.0 + np.arange(12).reshape(3, 4) * 0.1
    a[3:, 4:] = 2.0 + np.arange(12).reshape(3, 4) * 0.1
    reference = np.array([0] * 4 + [1] * 4)
    wins = 0
    for t in range(10):
        run = nmf_cluster(a, 2, seed=100 + t, trials=1)
        wins += _same_partition(run.labels, reference)
    assert wins >= 9


def test_nmf_labels_are_argmax_of_coefficients():
    rng = np.random.default_rng(5)
    a = rng.random((5, 7)) + 0.1
    run = nmf_cluster(a, 2, seed=11, trials=1, iterations=50)
    _, coeff = nmf_factorize(column_normalize(a), 2, 50, seed=11)
    np.testing.assert_array_equal(run.labels, np.argmax(coeff, axis=0))


def test_nmf_deterministic_across_runs():
    rng = np.random.default_rng(6)
    a = rng.random((6, 9)) + 0.1
    r1 = nmf_cluster(a, 3, seed=2, trials=3)
    r2 = nmf_cluster(a, 3, seed=2, trials=3)
    np.testing.assert_array_equal(r1.labels, r2.labels)
    assert r1.trials == 3


def test_nmf_trial_labels_are_the_one_trial_runs():
    rng = np.random.default_rng(6)
    a = rng.random((6, 9)) + 0.1
    run = nmf_cluster(a, 3, seed=2, trials=3)
    assert len(run.trial_labels) == run.trials == 3
    for t, labels in enumerate(run.trial_labels):  # trial t is seeded seed + t
        np.testing.assert_array_equal(labels, nmf_cluster(a, 3, seed=2 + t).labels)
    assert any(labels is run.labels for labels in run.trial_labels)


def test_single_run_methods_hold_their_one_labelling():
    a = np.zeros((6, 8))
    a[:3, :4] = 1.0
    a[3:, 4:] = 1.0
    for run in (bipartite_svd_cluster(a, 2, seed=0), nmf_cluster(a, 2, seed=0)):
        assert run.trials == 1
        [labels] = run.trial_labels
        assert labels is run.labels and not labels.flags.writeable


def test_nmf_trial_scores_are_averages():
    a = np.zeros((6, 8))
    a[:3, :4] = 1.0
    a[3:, 4:] = 1.0
    reference = np.array([0] * 4 + [1] * 4)
    run = nmf_cluster(a, 2, seed=0, trials=5)
    scores = mean_scores(eval_clustering(labels, reference) for labels in run.trial_labels)
    singles = [
        eval_clustering(nmf_cluster(a, 2, seed=0 + t, trials=1).labels, reference)
        for t in range(5)
    ]
    assert scores == mean_scores(singles)


# ---------------------------------------------------------------------------
# metrics


def test_metrics_perfect_clustering():
    labels = np.array([0, 0, 1, 1, 2])
    scores = eval_clustering(labels, labels)
    assert scores.purity == 1.0
    assert scores.entropy == 0.0
    assert scores.f_measure == 1.0
    assert scores.mutual_information > 0


def test_metrics_single_cluster_two_classes():
    labels = np.zeros(8, dtype=int)
    reference = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    scores = eval_clustering(labels, reference)
    assert scores.purity == 0.5
    assert scores.mutual_information == pytest.approx(0.0, abs=1e-12)


def test_metrics_independent_labelings_zero_mi():
    scores = eval_clustering([0, 0, 1, 1], [0, 1, 0, 1])
    assert scores.mutual_information == pytest.approx(0.0, abs=1e-12)


def _assert_scores_close(a, b):
    # summation order differs under relabeling, so compare to 1e-12
    assert a.mutual_information == pytest.approx(b.mutual_information, abs=1e-12)
    assert a.entropy == pytest.approx(b.entropy, abs=1e-12)
    assert a.purity == pytest.approx(b.purity, abs=1e-12)
    assert a.f_measure == pytest.approx(b.f_measure, abs=1e-12)


def test_metrics_permutation_invariance():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 3, size=40)
    reference = rng.integers(0, 4, size=40)
    base = eval_clustering(labels, reference)
    remapped = np.array([2, 0, 1])[labels]
    _assert_scores_close(eval_clustering(remapped, reference), base)
    # relabeling the reference classes leaves the scores alone too
    ref_remapped = np.array([3, 1, 0, 2])[reference]
    _assert_scores_close(eval_clustering(labels, ref_remapped), base)


def test_metrics_bounds_on_random_inputs():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        labels = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
        reference = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
        s = eval_clustering(labels, reference)
        assert 0 < s.purity <= 1.0
        assert s.entropy >= 0.0
        assert 0.0 <= s.f_measure <= 1.0
        assert s.mutual_information >= 0.0


def test_metrics_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        eval_clustering([0, 1], [0, 1, 0])


def test_metrics_of_empty_labelings_rejected():
    with pytest.raises(ValueError, match="empty labelings cannot be scored"):
        eval_clustering([], [])


def test_clustering_run_validation():
    with pytest.raises(ValueError, match="out of range"):
        ClusteringRun(np.array([0, 2]), 2, "spectral", 0)
    with pytest.raises(ValueError, match="k must be at least 1"):
        ClusteringRun(np.array([], dtype=np.int64), 0, "spectral", 0)


def test_mean_scores():
    a = QualityScores(1.0, 0.0, 1.0, 1.0)
    b = QualityScores(0.0, 1.0, 0.5, 0.0)
    m = mean_scores([a, b])
    assert m == QualityScores(0.5, 0.5, 0.75, 0.5)


def test_mean_scores_of_nothing_is_rejected():
    with pytest.raises(ValueError, match="no scores to average"):
        mean_scores([])


# ---------------------------------------------------------------------------
# synthetic geometries


def test_two_rings_geometry():
    pts, labels = two_rings(50, radii=(1.0, 5.0))
    assert pts.shape == (2, 100)
    radii = np.linalg.norm(pts, axis=0)
    np.testing.assert_allclose(radii[:50], 1.0, rtol=1e-12)
    np.testing.assert_allclose(radii[50:], 5.0, rtol=1e-12)
    assert labels.tolist() == [0] * 50 + [1] * 50


def test_two_rings_deterministic_with_noise():
    a, _ = two_rings(30, noise=0.05, seed=9)
    b, _ = two_rings(30, noise=0.05, seed=9)
    np.testing.assert_array_equal(a, b)


def test_spectral_separates_moons():
    # two interleaved half circles of 60 points each, jittered
    t = np.pi * np.arange(60) / 59
    pts = np.concatenate([np.stack([np.cos(t), np.sin(t)]),
                          np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)])], axis=1)
    pts = pts + 0.03 * np.random.default_rng(2).standard_normal(pts.shape)
    reference = np.repeat([0, 1], 60)
    run = spectral_cluster(pts, 2, KernelSpec("gaussian", alpha=0.15), seed=0)
    assert label_accuracy(run.labels, reference) >= 0.95


def test_label_accuracy_handles_swaps():
    assert label_accuracy([1, 1, 0, 0], [0, 0, 1, 1]) == 1.0
    assert label_accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5


def test_label_accuracy_rejects_more_than_six_clusters():
    assert label_accuracy(np.arange(6), np.arange(6)) == 1.0
    with pytest.raises(ValueError, match="too many clusters"):
        label_accuracy(np.arange(7), np.arange(7))
