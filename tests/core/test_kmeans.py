"""K-means + BIC: recovery of planted clusters and model-selection behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.kmeans import _draw, bic_score, choose_k, kmeans


def _blobs(k, per, d=4, spread=8.0, seed=5):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, d)) * spread
    return np.vstack([c + rng.standard_normal((per, d)) for c in centers])


def test_recovers_planted_partition():
    pts = _blobs(3, 10)
    result = kmeans(pts, 3, np.random.default_rng(0))
    truth = np.repeat([0, 1, 2], 10)
    mapping = {}
    for ours, true in zip(result.labels, truth):
        assert mapping.setdefault(ours, true) == true


def test_bic_selects_planted_k():
    pts = _blobs(4, 8)
    best_k, _fits = choose_k(pts, range(1, 9), np.random.default_rng(1))
    assert best_k == 4


def test_inertia_decreases_with_k():
    pts = _blobs(3, 10)
    rng = np.random.default_rng(2)
    inertias = [kmeans(pts, k, rng).inertia for k in (1, 2, 4, 8)]
    assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))


def test_k_equals_n_gives_zero_inertia():
    pts = _blobs(2, 3)
    result = kmeans(pts, len(pts), np.random.default_rng(3))
    assert result.inertia == pytest.approx(0.0, abs=1e-18)


def test_invalid_k_rejected():
    pts = _blobs(2, 3)
    with pytest.raises(ValueError):
        kmeans(pts, 0)
    with pytest.raises(ValueError):
        kmeans(pts, len(pts) + 1)


def test_deterministic_given_seed():
    pts = _blobs(3, 10)
    a = kmeans(pts, 3, np.random.default_rng(42))
    b = kmeans(pts, 3, np.random.default_rng(42))
    assert np.array_equal(a.labels, b.labels)


def test_cluster_members_partition():
    pts = _blobs(3, 10)
    result = kmeans(pts, 3, np.random.default_rng(4))
    members = result.cluster_members()
    combined = sorted(int(i) for group in members for i in group)
    assert combined == list(range(len(pts)))


def test_centers_are_cluster_means():
    pts = _blobs(2, 12)
    result = kmeans(pts, 2, np.random.default_rng(6))
    for j in range(2):
        sel = result.labels == j
        assert np.allclose(result.centers[j], pts[sel].mean(axis=0), atol=1e-9)


def test_bic_penalises_overfitting_on_single_blob():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((24, 3))
    best_k, fits = choose_k(pts, range(1, 8), rng)
    assert best_k <= 2  # a single Gaussian should not fragment far


def test_bic_minus_inf_when_k_equals_n():
    pts = _blobs(2, 2)
    result = kmeans(pts, len(pts), np.random.default_rng(8))
    assert bic_score(pts, result) == -np.inf


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(3, 8), st.integers(0, 1000))
def test_labels_within_range_and_assignment_optimal(k, per, seed):
    pts = _blobs(k, per, seed=seed)
    result = kmeans(pts, k, np.random.default_rng(seed))
    assert result.labels.min() >= 0 and result.labels.max() < k
    # Every point sits with its closest centre (Lloyd fixed point).
    d = ((pts[:, None, :] - result.centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(result.labels, d.argmin(axis=1))


def test_rand_index_identical_partitions():
    from repro.core.analysis.kmeans import rand_index

    assert rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0  # label permutation
    assert rand_index([0, 1, 2], [0, 1, 2]) == 1.0


def test_rand_index_disagreement():
    from repro.core.analysis.kmeans import rand_index

    # One pair agreement differs: {0,1} together vs apart.
    assert 0.0 <= rand_index([0, 0, 1], [0, 1, 1]) < 1.0


def test_rand_index_shape_check():
    import pytest as _pytest

    from repro.core.analysis.kmeans import rand_index

    with _pytest.raises(ValueError):
        rand_index([0, 1], [0, 1, 2])


def test_rand_index_single_item():
    from repro.core.analysis.kmeans import rand_index

    assert rand_index([0], [5]) == 1.0


# ----------------------------------------------------------------------
# Batched restarts against the one-restart-at-a-time loop
# ----------------------------------------------------------------------


def _oracle_lloyd(points, centers, max_iter):
    """One restart's Lloyd loop, as ``kmeans`` ran each restart before
    the restarts were batched."""
    k = centers.shape[0]
    labels = np.zeros(points.shape[0], dtype=int)
    for it in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels) and it > 0:
            break
        labels = new_labels
        for j in range(k):
            members = points[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels, centers, inertia


def _oracle_kmeans(points, k, rng, n_init, max_iter=200):
    from repro.core.analysis.kmeans import _init_plusplus

    points = np.asarray(points, dtype=float)
    best = None
    for _ in range(n_init):
        centers = _init_plusplus(points, k, rng)
        labels, centers, inertia = _oracle_lloyd(points, centers.copy(), max_iter)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best


def _oracle_cases():
    gen = np.random.default_rng(2024)
    for case in range(160):
        n = int(gen.integers(1, 40))
        d = int(gen.choice([1, 1, 2, 3, 6]))
        pts = gen.standard_normal((n, d)) * float(gen.choice([0.1, 1.0, 50.0]))
        if case % 2:  # duplicated and rounded rows: ties and empty clusters
            pts = np.round(pts[gen.integers(0, max(n // 3, 1), size=n)], 1)
        k = int(gen.choice([1, n, gen.integers(1, n + 1)]))
        n_init = int(gen.choice([1, 8, 50]))
        max_iter = 200 if case % 7 else int(gen.integers(1, 4))
        yield pts, k, n_init, max_iter, case


def test_batched_restarts_match_one_at_a_time_exactly():
    seen_d1 = seen_k1 = seen_kn = seen_single = 0
    for pts, k, n_init, max_iter, seed in _oracle_cases():
        ours_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = kmeans(pts, k, ours_rng, n_init=n_init, max_iter=max_iter)
        labels, centers, inertia = _oracle_kmeans(pts, k, oracle_rng, n_init, max_iter)
        where = f"n={len(pts)} d={pts.shape[1]} k={k} n_init={n_init} seed={seed}"
        assert np.array_equal(got.labels, labels), where
        assert np.array_equal(got.centers, centers), where
        assert got.inertia == inertia, where
        # The restarts drew exactly the oracle's random numbers.
        assert ours_rng.random() == oracle_rng.random(), where
        seen_d1 += pts.shape[1] == 1
        seen_k1 += k == 1
        seen_kn += k == len(pts)
        seen_single += n_init == 1
    assert min(seen_d1, seen_k1, seen_kn, seen_single) > 0


def test_rejects_nonpositive_n_init():
    with pytest.raises(ValueError, match="n_init"):
        kmeans(_blobs(2, 3), 2, n_init=0)


def test_seeding_draw_matches_rng_choice():
    # The k-means++ draw must pick what ``rng.choice(n, p=probs)`` picks and
    # leave the generator in the same state, so seeds and every fit built on
    # them stay bit-identical.  Weights are squared distances: skewed, with
    # zeros (points that are already centers) and single survivors.
    gen = np.random.default_rng(11)
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    for trial in range(12_000):
        n = int(gen.integers(1, 48))
        d2 = gen.exponential(size=n) ** int(gen.integers(1, 4))
        d2[gen.random(n) < 0.3] = 0.0
        if not d2.any():
            d2[int(gen.integers(n))] = gen.random() + 1e-12
        probs = d2 / d2.sum()
        assert _draw(probs, ours) == theirs.choice(n, p=probs), trial
    assert ours.bit_generator.state == theirs.bit_generator.state
