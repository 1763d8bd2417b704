"""Workload integration tests: every benchmark runs and verifies.

``run_workload(..., verify=True)`` executes the workload end-to-end on the
simulator and compares device results against the numpy reference, so each
case here validates both the kernel implementation and the simulator
semantics it exercises.
"""

import pytest

from repro.core import metrics
from repro.workloads import registry
from repro.workloads.runner import run_workload

ALL = registry.abbrevs()


def test_registry_has_37_workloads():
    assert len(ALL) == 37


def test_registry_suites():
    assert len(registry.by_suite("CUDA SDK")) == 15
    assert len(registry.by_suite("Parboil")) == 8
    assert len(registry.by_suite("Rodinia")) == 14


def test_registry_unknown_raises():
    with pytest.raises(KeyError, match="unknown workload"):
        registry.get("NOPE")


def test_metadata_complete():
    for cls in registry.all_workloads():
        assert cls.abbrev and cls.name and cls.suite and cls.description
        assert cls.default_scale, cls.abbrev


def test_unknown_scale_parameter_rejected():
    cls = registry.get("VA")
    with pytest.raises(ValueError, match="unknown scale"):
        cls(bogus=1)


@pytest.mark.parametrize("abbrev", ALL)
def test_runs_and_verifies(abbrev, suite_profiles):
    """Every workload's device results match its host reference.

    The session fixture already ran each workload with verify=True (a failed
    check would have raised there); here we assert the profile is sane.
    """
    profile = next(p for p in suite_profiles if p.workload == abbrev)
    assert profile.launches >= 1
    assert profile.total_warp_instrs > 0
    assert profile.total_thread_instrs >= profile.total_warp_instrs
    for kernel in profile.kernels:
        assert 0.0 < kernel.simd_efficiency <= 1.0
        assert kernel.profiled_blocks >= 1
        if kernel.gmem.accesses:
            assert kernel.gmem.transactions_32b >= kernel.gmem.accesses
            assert kernel.gmem.trans_per_access_32b <= 32.0
        if kernel.shmem.accesses:
            assert kernel.shmem.conflict_degree >= 1.0


def test_scaled_down_run_still_verifies():
    cls = registry.get("VA")
    profile = run_workload(cls(n=512, block=64), sample_blocks=None)
    assert profile.kernels[0].threads_total == 512


def test_scaling_changes_footprint():
    cls = registry.get("MM")
    small = run_workload(cls(width=32), sample_blocks=None)
    large = run_workload(cls(width=64), sample_blocks=None)
    assert large.total_thread_instrs > small.total_thread_instrs


def test_multi_kernel_workloads_profile_each_launch(suite_profiles):
    by_name = {p.workload: p for p in suite_profiles}
    assert by_name["SLA"].launches == 4
    assert by_name["NW"].launches == 15
    assert by_name["RD"].launches == 5
    assert by_name["LUD"].launches == 10
    assert by_name["HYS"].launches == 3
    assert by_name["GA"].launches == 62


def test_deterministic_inputs_across_instances():
    a = run_workload("HG", sample_blocks=8)
    b = run_workload("HG", sample_blocks=8)
    assert metrics.extract_vector(a) == metrics.extract_vector(b)


class TestKnownCharacteristics:
    """Spot-checks that each workload lands in its expected behavioural region."""

    @pytest.fixture(autouse=True)
    def _profiles(self, suite_profiles):
        self.by_name = {p.workload: p for p in suite_profiles}

    def _vec(self, w):
        return metrics.extract_vector(self.by_name[w])

    def test_va_is_streaming(self):
        v = self._vec("VA")
        assert v["coal.coalesced_frac"] == 1.0
        assert v["div.rate"] == 0.0
        assert v["loc.cold_rate"] == 1.0  # no reuse at all

    def test_mm_is_compute_dense(self):
        v = self._vec("MM")
        assert v["div.simd_efficiency"] == 1.0
        assert v["mix.shared"] > 0.1
        assert v["par.barrier_intensity"] > 0

    def test_sla_diverges_in_tree_phases(self):
        v = self._vec("SLA")
        assert v["div.rate"] > 0.2
        assert v["div.simd_efficiency"] < 0.8

    def test_ss_uncoalesced_and_divergent(self):
        v = self._vec("SS")
        assert v["coal.t32_per_access"] > 8
        assert v["div.simd_efficiency"] < 0.75

    def test_mum_texture_walks(self):
        v = self._vec("MUM")
        assert v["mix.texture"] > 0.05  # trie + queries fetched via texture
        assert v["div.rate"] > 0.3

    def test_km_point_major_layout_uncoalesced(self):
        assert self._vec("KM")["coal.t32_per_access"] > 8

    def test_bs_and_mriq_use_sfu(self):
        assert self._vec("BS")["mix.sfu"] > 0.03
        assert self._vec("MRIQ")["mix.sfu"] > 0.05

    def test_hg_and_tpacf_use_atomics(self):
        assert self._vec("HG")["mix.atomic"] > 0
        assert self._vec("TPACF")["mix.atomic"] > 0

    def test_bfs_low_simd_efficiency(self):
        assert self._vec("BFS")["div.simd_efficiency"] < 0.4

    def test_spmv_imbalanced(self):
        assert self._vec("SPMV")["par.warp_imbalance"] > 0.1

    def test_conv_uses_const_memory(self):
        assert self._vec("CONV")["mix.const"] > 0.02

    def test_nw_barrier_dense(self):
        v = self._vec("NW")
        assert v["par.barrier_intensity"] > self._vec("VA")["par.barrier_intensity"]
        assert v["div.simd_efficiency"] < 0.6

    def test_nb_high_fp_and_reuse(self):
        v = self._vec("NB")
        assert v["mix.fp"] > 0.3
        assert v["loc.rd256"] > 0.5  # tiles re-walk the same body arrays

    def test_bitonic_alternating_divergence(self):
        v = self._vec("BIT")
        assert 0.2 < v["div.rate"] < 0.9
        assert v["mix.shared"] > 0.05

    def test_transpose_no_bank_conflicts(self):
        assert self._vec("TR")["shm.conflict_degree"] == pytest.approx(1.0)

    def test_lud_kernels_heterogeneous(self, suite_profiles):
        from repro.core.analysis.subspace import kernel_heterogeneity

        het = kernel_heterogeneity(suite_profiles, ["div.simd_efficiency", "mix.shared"])
        by = dict(zip([p.workload for p in suite_profiles], het))
        assert by["LUD"] > 0.1
