"""Registry mechanics: registration, selection, context determinism."""

import numpy as np
import pytest

from repro.verify import all_properties, get_property, select_properties
from repro.verify.registry import Property, VerifyContext, register


def test_registry_spans_every_layer():
    props = all_properties()
    assert len(props) >= 12
    assert len({p.name for p in props}) == len(props)
    layers = {p.layer for p in props}
    assert layers == {"simt", "trace", "analysis", "uarch"}
    for p in props:
        assert p.invariant  # every property states its invariant


def test_generator_backed_properties_exist():
    backed = [p for p in all_properties() if p.generator_backed]
    assert len(backed) >= 5
    assert {p.layer for p in backed} >= {"simt", "trace", "uarch"}


def test_get_property_roundtrip():
    for p in all_properties():
        assert get_property(p.name) is p
    with pytest.raises(KeyError):
        get_property("no.such.property")


def test_select_by_exact_name_prefix_and_layer():
    assert [p.name for p in select_properties(["sim.batch.parity"])] == [
        "sim.batch.parity"
    ]
    prefixed = select_properties(["sim.block_order"])
    assert {p.name for p in prefixed} == {
        "sim.block_order.memory",
        "sim.block_order.sections",
    }
    by_layer = select_properties(["analysis"])
    assert by_layer and all(p.layer == "analysis" for p in by_layer)
    # Overlapping tokens do not duplicate entries.
    combined = select_properties(["analysis", "analysis.pca.orthonormal"])
    names = [p.name for p in combined]
    assert len(names) == len(set(names))


def test_select_unknown_token_raises_with_vocabulary():
    with pytest.raises(KeyError, match="unknown property"):
        select_properties(["bogus"])


def test_register_rejects_duplicates_and_blank_metadata():
    class Dup(Property):
        name = all_properties()[0].name
        layer = "simt"
        invariant = "duplicate"

    with pytest.raises(ValueError, match="duplicate"):
        register(Dup)

    class Blank(Property):
        name = "x.blank"
        layer = "simt"
        invariant = ""

    with pytest.raises(ValueError, match="must set"):
        register(Blank)


def test_context_budget_and_seed_streams():
    ctx = VerifyContext(seed=0, quick=True)
    assert ctx.cases(5, 24) == 5
    assert VerifyContext(seed=0, quick=False).cases(5, 24) == 24
    assert VerifyContext(seed=0, budget=3).cases(5, 24) == 3

    # Case-seed streams are deterministic, per-property decorrelated, and
    # shifted by the run seed.
    a = [ctx.case_seed("p.one", i) for i in range(4)]
    assert a == [ctx.case_seed("p.one", i) for i in range(4)]
    assert a != [ctx.case_seed("p.two", i) for i in range(4)]
    assert a != [VerifyContext(seed=1).case_seed("p.one", i) for i in range(4)]
    assert a != [VerifyContext(seed=1 << 20).case_seed("p.one", i) for i in range(4)]

    ra = ctx.rng("p.one").integers(0, 1 << 30, 4)
    rb = ctx.rng("p.two").integers(0, 1 << 30, 4)
    assert not np.array_equal(ra, rb)
    assert np.array_equal(ra, VerifyContext(seed=0).rng("p.one").integers(0, 1 << 30, 4))
