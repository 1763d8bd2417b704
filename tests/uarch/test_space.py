"""Declarative design spaces: spec round-trips, builders, validation errors."""

import pytest

from repro.uarch import BASELINE, DesignSpace, DesignSpaceError, default_space
from repro.uarch.space import DEFAULT_SPEC, SPEC_SCHEMA, Axis, AxisPoint, load_space


def _tiny_spec(**overrides):
    spec = {
        "schema": SPEC_SCHEMA,
        "name": "tiny",
        "sweep": "one_hot",
        "baseline": {"name": "base"},
        "axes": [
            {
                "field": "num_sms",
                "points": [{"name": "sm32", "value": 32}],
            },
            {
                "field": "dram_bandwidth",
                "points": [{"name": "bw-2x", "value": 128.0}],
            },
        ],
        "points": [{"name": "both", "num_sms": 32, "dram_bandwidth": 128.0}],
    }
    spec.update(overrides)
    return spec


def test_default_space_matches_historical_points():
    configs = default_space().configs()
    names = [c.name for c in configs]
    assert names == [
        "base", "sm08", "sm32", "dual-issue", "bw-half", "bw-2x",
        "lat-800", "lat-200", "no-l2", "l2-8k", "warps-64", "warps-16",
        "regfile-8k", "shmem-16k", "sm32-bw", "fat",
    ]
    assert BASELINE in configs
    by_name = {c.name: c for c in configs}
    assert by_name["sm32-bw"].num_sms == 32
    assert by_name["sm32-bw"].dram_bandwidth == 128.0
    assert by_name["fat"].issue_width == 2 and by_name["fat"].l2_lines == 8192


def test_spec_round_trip_preserves_configs():
    space = default_space()
    again = DesignSpace.from_spec(space.to_spec())
    assert again.configs() == space.configs()
    assert again.name == space.name and again.sweep == space.sweep


def test_save_load_file_round_trip(tmp_path):
    path = tmp_path / "space.json"
    space = DesignSpace.from_spec(_tiny_spec())
    space.save(path)
    loaded = DesignSpace.load(path)
    assert loaded.configs() == space.configs()
    assert load_space(None).configs() == default_space().configs()


def test_one_hot_builder_layout():
    configs = DesignSpace.from_spec(_tiny_spec()).configs()
    assert [c.name for c in configs] == ["base", "sm32", "bw-2x", "both"]
    assert configs[1].num_sms == 32 and configs[1].dram_bandwidth == 64.0
    assert configs[3].num_sms == 32 and configs[3].dram_bandwidth == 128.0


def test_grid_builder_covers_product():
    configs = DesignSpace.from_spec(_tiny_spec(sweep="grid")).configs()
    names = [c.name for c in configs]
    # 2 axes x (baseline + 1 point) each = 4 combos; paired points excluded.
    assert sorted(names) == sorted(["base", "sm32", "bw-2x", "sm32+bw-2x"])
    combo = {c.name: c for c in configs}["sm32+bw-2x"]
    assert combo.num_sms == 32 and combo.dram_bandwidth == 128.0


def test_grid_limit_enforced():
    axes = [
        {
            "field": "num_sms",
            "points": [{"name": f"sm{v}", "value": v} for v in range(1, 100)],
        },
        {
            "field": "l2_lines",
            "points": [{"name": f"l2-{v}", "value": v} for v in range(1, 100)],
        },
    ]
    space = DesignSpace.from_spec(_tiny_spec(sweep="grid", axes=axes, points=[]))
    with pytest.raises(DesignSpaceError, match="limit"):
        space.configs()


def test_default_spec_is_valid_schema():
    assert DEFAULT_SPEC["schema"] == SPEC_SCHEMA
    space = DesignSpace.from_spec(DEFAULT_SPEC)
    assert isinstance(space.axes[0], Axis)
    assert isinstance(space.axes[0].points[0], AxisPoint)


@pytest.mark.parametrize(
    "mutation, message",
    [
        ({"schema": "repro.design-space/v0"}, "schema"),
        ({"name": ""}, "name"),
        ({"sweep": "random"}, "sweep mode"),
        (
            {"axes": [{"field": "num_cores", "points": [{"name": "x", "value": 2}]}]},
            "unknown GpuConfig field",
        ),
        (
            {"axes": [{"field": "num_sms", "points": [{"name": "x", "value": "many"}]}]},
            "expects int",
        ),
        (
            {"axes": [{"field": "num_sms", "points": [{"name": "x", "value": 2.5}]}]},
            "expects int",
        ),
        (
            {
                "axes": [
                    {
                        "field": "num_sms",
                        "points": [
                            {"name": "dup", "value": 2},
                            {"name": "dup", "value": 4},
                        ],
                    }
                ]
            },
            "duplicate design name",
        ),
        ({"points": [{"num_sms": 32}]}, "name"),
        ({"points": [{"name": "bad", "frequency": 2.0}]}, "unknown GpuConfig field"),
    ],
)
def test_spec_validation_errors(mutation, message):
    with pytest.raises(DesignSpaceError, match=message):
        DesignSpace.from_spec(_tiny_spec(**mutation))


def test_not_json_raises_typed_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DesignSpaceError, match="not valid JSON"):
        DesignSpace.load(path)


def test_int_fields_accept_ints_floats_rejected_bools():
    with pytest.raises(DesignSpaceError, match="expects int"):
        DesignSpace.from_spec(
            _tiny_spec(
                axes=[{"field": "num_sms", "points": [{"name": "b", "value": True}]}]
            )
        )
    # Float fields accept plain ints (JSON has no float literal distinction).
    space = DesignSpace.from_spec(
        _tiny_spec(
            axes=[{"field": "dram_bandwidth", "points": [{"name": "bw", "value": 128}]}],
            points=[],
        )
    )
    assert space.configs()[1].dram_bandwidth == 128
