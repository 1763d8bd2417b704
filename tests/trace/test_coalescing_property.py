"""Property test: coalescing statistics vs a brute-force oracle.

Hypothesis generates arbitrary per-lane access indices; the collector's
vectorized transaction counting must agree with a naive per-warp set-based
computation for every input.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt import Device, DType, Executor, KernelBuilder
from repro.trace import KernelTraceCollector

LANES = 64  # two warps


def _oracle(addrs, seg_bytes):
    """Naive transactions per warp: distinct segments among active lanes."""
    total = 0
    for w in range(LANES // 32):
        warp = addrs[w * 32 : (w + 1) * 32]
        total += len({a // seg_bytes for a in warp})
    return total


def _run_gather(indices):
    b = KernelBuilder("gather")
    idx = b.param_buf("idx", DType.I32)
    src = b.param_buf("src")
    out = b.param_buf("out")
    i = b.global_thread_id()
    b.st(out, i, b.ld(src, b.ld(idx, i)))
    dev = Device()
    ib = dev.from_array("idx", np.asarray(indices), DType.I32, readonly=True)
    sb = dev.from_array("src", np.arange(1024.0), readonly=True)
    ob = dev.alloc("out", LANES)
    collector = KernelTraceCollector()
    Executor(dev, sinks=[collector]).launch(
        b.finalize(), 2, 32, {"idx": ib, "src": sb, "out": ob}
    )
    return dev, sb, collector.profiles[0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1023), min_size=LANES, max_size=LANES))
def test_transactions_match_oracle(indices):
    dev, src_buf, profile = _run_gather(indices)
    addrs = [src_buf.base + 4 * i for i in indices]
    # The gather load contributes these transactions; the idx load and out
    # store are unit-stride: 4 x 32B and 1 x 128B per warp each.
    expected_32 = _oracle(addrs, 32) + 2 * (4 + 4)
    expected_128 = _oracle(addrs, 128) + 2 * (1 + 1)
    assert profile.gmem.transactions_32b == expected_32
    assert profile.gmem.transactions_128b == expected_128


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=LANES, max_size=LANES))
def test_unique_lines_match_oracle(indices):
    _dev, src_buf, profile = _run_gather(indices)
    # All touched 128B lines across the three access streams.
    lines = set()
    for i in indices:
        lines.add((src_buf.base + 4 * i) // 128)
    dev_lines = profile.locality.unique_lines
    # idx buffer: 64 i32 = 2 lines; out buffer: 64 f32 = 2 lines.
    assert dev_lines == len(lines) + 2 + 2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 32))
def test_partial_warp_transactions(active):
    """Guarded access by the first `active` lanes only."""
    b = KernelBuilder("partial")
    src = b.param_buf("src")
    out = b.param_buf("out")
    i = b.global_thread_id()
    with b.if_(b.ilt(i, active)):
        b.st(out, i, b.ld(src, i))
    dev = Device()
    sb = dev.from_array("src", np.arange(32.0), readonly=True)
    ob = dev.alloc("out", 32)
    collector = KernelTraceCollector()
    Executor(dev, sinks=[collector]).launch(b.finalize(), 1, 32, {"src": sb, "out": ob})
    p = collector.profiles[0]
    expected = -(-active * 4 // 32)  # ceil(active elements * 4B / 32B)
    assert p.gmem.transactions_32b == 2 * expected
    assert p.gmem.coalesced_frac == 1.0
