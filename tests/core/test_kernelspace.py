"""Kernel-level workload space."""

import numpy as np

from repro.core.analysis.pca import fit_pca, varimax
from repro.core.featurespace import standardize
from repro.core.kernelspace import kernel_feature_matrix, workload_spread


def test_kernel_matrix_row_per_kernel_group(suite_profiles):
    fm, points = kernel_feature_matrix(suite_profiles)
    assert fm.n_workloads == len(points)
    # Each workload contributes at least one kernel group.
    assert {p.workload for p in points} == {p.workload for p in suite_profiles}
    # RD's kernel series shows up as distinct points.
    rd = [p for p in points if p.workload == "RD"]
    assert len(rd) == 4  # reduce0..3; the two reduce3 launches merge by name
    assert np.isfinite(fm.values).all()


def test_repeated_launches_merge(suite_profiles):
    fm, points = kernel_feature_matrix(suite_profiles)
    km = [p for p in points if p.workload == "KM"]
    assert len(km) == 1  # 3 launches of the same assign kernel merge
    assert km[0].launches == 3


def test_labels_unique(suite_profiles):
    fm, _points = kernel_feature_matrix(suite_profiles)
    assert len(set(fm.workloads)) == len(fm.workloads)


def test_workload_spread_zero_for_single_kernel(suite_profiles):
    fm, points = kernel_feature_matrix(suite_profiles)
    sm = standardize(fm)
    pca = fit_pca(sm, variance_target=0.9)
    spread = workload_spread(pca.scores, points)
    assert spread["MUM"] == 0.0  # single kernel
    assert spread["LUD"] > 0.5  # diagonal/perimeter/internal differ wildly
    assert spread["NN"] > 0.2  # distance vs argmin kernels differ


def test_kernel_space_larger_than_workload_space(suite_profiles):
    fm, points = kernel_feature_matrix(suite_profiles)
    assert fm.n_workloads > len(suite_profiles)


def test_varimax_preserves_span(suite_profiles):
    fm, _ = kernel_feature_matrix(suite_profiles)
    sm = standardize(fm)
    pca = fit_pca(sm, n_components=4)
    rotated = varimax(pca.components)
    assert rotated.shape == pca.components.shape
    assert np.allclose(rotated.T @ rotated, np.eye(4), atol=1e-8)
    # Projections onto the rotated basis preserve total variance.
    orig = sm.z @ pca.components
    rot = sm.z @ rotated
    assert np.allclose((orig**2).sum(), (rot**2).sum(), rtol=1e-9)


def test_varimax_single_component_noop():
    loading = np.array([[1.0], [0.0], [0.0]])
    assert np.array_equal(varimax(loading), loading)
