"""Declarative design spaces over :class:`~repro.uarch.config.GpuConfig`.

A :class:`DesignSpace` names *axes* — a ``GpuConfig`` field plus the values
it sweeps over — and builds concrete config lists from them.  Two sweep
modes:

* ``one_hot`` (the paper's methodology): the baseline, one design per axis
  point (everything else held at baseline), plus any explicitly listed
  multi-field *paired* points.
* ``grid``: the full cartesian product of ``baseline ∪ points`` per axis,
  capped at :data:`_GRID_LIMIT` designs so a typo cannot fan a sweep out
  over millions of configs.

Spaces round-trip through a JSON spec (schema ``repro.design-space/v1``)
so experiment definitions live in version-controlled files rather than
code.  All validation errors raise :class:`DesignSpaceError` with a
message naming the offending axis/field/point.

The evaluation's 16-point default space is :data:`DEFAULT_SPEC`, built by
:func:`default_space`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.uarch.config import GpuConfig

SPEC_SCHEMA = "repro.design-space/v1"

#: Hard cap on grid-mode cartesian products.
_GRID_LIMIT = 4096

_SWEEP_MODES = ("one_hot", "grid")

#: GpuConfig fields an axis may sweep (everything but the label).
_SWEEPABLE: Dict[str, type] = {
    f.name: f.type if isinstance(f.type, type) else {"int": int, "float": float}[f.type]
    for f in dataclasses.fields(GpuConfig)
    if f.name != "name"
}


class DesignSpaceError(ValueError):
    """A design-space spec is malformed (bad schema, field, value, name...)."""


def _check_value(field: str, value: object, where: str) -> None:
    if field not in _SWEEPABLE:
        raise DesignSpaceError(
            f"{where}: unknown GpuConfig field {field!r} "
            f"(sweepable: {', '.join(sorted(_SWEEPABLE))})"
        )
    expect = _SWEEPABLE[field]
    if expect is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, int) and not isinstance(value, bool)
    if not ok:
        raise DesignSpaceError(
            f"{where}: field {field!r} expects {expect.__name__}, "
            f"got {value!r} ({type(value).__name__})"
        )


@dataclass(frozen=True)
class AxisPoint:
    """One named value along an axis (e.g. ``sm32`` = ``num_sms: 32``)."""

    name: str
    value: Union[int, float]


@dataclass(frozen=True)
class Axis:
    """One swept ``GpuConfig`` field and its non-baseline values."""

    field: str
    points: Tuple[AxisPoint, ...]


@dataclass(frozen=True)
class DesignSpace:
    """A named, declarative set of design points around a baseline."""

    name: str
    baseline: GpuConfig
    axes: Tuple[Axis, ...]
    #: Explicit multi-field designs appended after the axis-derived ones.
    points: Tuple[GpuConfig, ...] = ()
    sweep: str = "one_hot"

    def one_hot(self) -> List[GpuConfig]:
        """Baseline, one config per axis point, then the paired points."""
        configs = [self.baseline]
        for axis in self.axes:
            for point in axis.points:
                configs.append(
                    self.baseline.derive(point.name, **{axis.field: point.value})
                )
        configs.extend(self.points)
        return configs

    def grid(self) -> List[GpuConfig]:
        """Cartesian product of ``baseline ∪ points`` along every axis.

        The all-baseline combination *is* the baseline; other combinations
        are named by joining the contributing point names with ``+``.
        Explicit paired points are excluded — a grid already covers
        interactions.
        """
        size = 1
        for axis in self.axes:
            size *= len(axis.points) + 1
        if size > _GRID_LIMIT:
            raise DesignSpaceError(
                f"grid over {self.name!r} would produce {size} designs "
                f"(limit {_GRID_LIMIT}); drop axes or use one_hot"
            )
        per_axis: List[List[Tuple[str, Dict[str, object]]]] = [
            [("", {})] + [(p.name, {axis.field: p.value}) for p in axis.points]
            for axis in self.axes
        ]
        configs: List[GpuConfig] = []
        for combo in itertools.product(*per_axis):
            labels = [label for label, _ in combo if label]
            changes: Dict[str, object] = {}
            for _, change in combo:
                changes.update(change)
            if not changes:
                configs.append(self.baseline)
            else:
                configs.append(self.baseline.derive("+".join(labels), **changes))
        return configs

    def configs(self) -> List[GpuConfig]:
        """The concrete design list for this space's sweep mode."""
        if self.sweep == "grid":
            return self.grid()
        return self.one_hot()

    def to_spec(self) -> Dict:
        """This space as a ``repro.design-space/v1`` JSON-ready dict."""
        base = dataclasses.asdict(self.baseline)
        base_fields = {"name": base.pop("name"), **base}
        points = []
        for cfg in self.points:
            diff: Dict[str, object] = {"name": cfg.name}
            for field in _SWEEPABLE:
                value = getattr(cfg, field)
                if value != getattr(self.baseline, field):
                    diff[field] = value
            points.append(diff)
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "sweep": self.sweep,
            "baseline": base_fields,
            "axes": [
                {
                    "field": axis.field,
                    "points": [{"name": p.name, "value": p.value} for p in axis.points],
                }
                for axis in self.axes
            ],
            "points": points,
        }

    @classmethod
    def from_spec(cls, spec: Dict) -> "DesignSpace":
        """Validate and build a space from a spec dict.

        Raises :class:`DesignSpaceError` on any structural problem:
        wrong schema tag, unknown/ill-typed fields, duplicate design
        names, or an unknown sweep mode.
        """
        if not isinstance(spec, dict):
            raise DesignSpaceError(f"spec must be an object, got {type(spec).__name__}")
        schema = spec.get("schema")
        if schema != SPEC_SCHEMA:
            raise DesignSpaceError(
                f"unsupported design-space schema {schema!r} (want {SPEC_SCHEMA!r})"
            )
        name = spec.get("name")
        if not isinstance(name, str) or not name:
            raise DesignSpaceError("spec needs a non-empty string 'name'")
        sweep = spec.get("sweep", "one_hot")
        if sweep not in _SWEEP_MODES:
            raise DesignSpaceError(
                f"unknown sweep mode {sweep!r} (choose from {', '.join(_SWEEP_MODES)})"
            )

        base_spec = dict(spec.get("baseline") or {"name": "base"})
        base_name = base_spec.pop("name", "base")
        for field, value in base_spec.items():
            _check_value(field, value, "baseline")
        baseline = GpuConfig(name=base_name, **base_spec)

        seen = {baseline.name}
        axes: List[Axis] = []
        for i, axis_spec in enumerate(spec.get("axes") or []):
            field = axis_spec.get("field")
            where = f"axes[{i}]"
            if not isinstance(field, str):
                raise DesignSpaceError(f"{where}: missing 'field'")
            points: List[AxisPoint] = []
            for point in axis_spec.get("points") or []:
                pname = point.get("name")
                if not isinstance(pname, str) or not pname:
                    raise DesignSpaceError(
                        f"{where} ({field}): every point needs a non-empty 'name'"
                    )
                if pname in seen:
                    raise DesignSpaceError(f"duplicate design name {pname!r}")
                seen.add(pname)
                value = point.get("value")
                _check_value(field, value, f"{where} point {pname!r}")
                points.append(AxisPoint(name=pname, value=value))
            axes.append(Axis(field=field, points=tuple(points)))

        paired: List[GpuConfig] = []
        for j, point in enumerate(spec.get("points") or []):
            changes = dict(point)
            pname = changes.pop("name", None)
            if not isinstance(pname, str) or not pname:
                raise DesignSpaceError(f"points[{j}]: needs a non-empty 'name'")
            if pname in seen:
                raise DesignSpaceError(f"duplicate design name {pname!r}")
            seen.add(pname)
            for field, value in changes.items():
                _check_value(field, value, f"point {pname!r}")
            paired.append(baseline.derive(pname, **changes))

        return cls(
            name=name,
            baseline=baseline,
            axes=tuple(axes),
            points=tuple(paired),
            sweep=sweep,
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_spec(), indent=2) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DesignSpace":
        try:
            spec = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise DesignSpaceError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_spec(spec)


#: The historical default space: baseline, 13 one-hot designs, 2 paired.
DEFAULT_SPEC: Dict = {
    "schema": SPEC_SCHEMA,
    "name": "default",
    "sweep": "one_hot",
    "baseline": {"name": "base"},
    "axes": [
        {
            "field": "num_sms",
            "points": [
                {"name": "sm08", "value": 8},
                {"name": "sm32", "value": 32},
            ],
        },
        {
            "field": "issue_width",
            "points": [{"name": "dual-issue", "value": 2}],
        },
        {
            "field": "dram_bandwidth",
            "points": [
                {"name": "bw-half", "value": 32.0},
                {"name": "bw-2x", "value": 128.0},
            ],
        },
        {
            "field": "mem_latency",
            "points": [
                {"name": "lat-800", "value": 800},
                {"name": "lat-200", "value": 200},
            ],
        },
        {
            "field": "l2_lines",
            "points": [
                {"name": "no-l2", "value": 0},
                {"name": "l2-8k", "value": 8192},
            ],
        },
        {
            "field": "max_warps_per_sm",
            "points": [
                {"name": "warps-64", "value": 64},
                {"name": "warps-16", "value": 16},
            ],
        },
        {
            "field": "regfile_per_sm",
            "points": [{"name": "regfile-8k", "value": 8192}],
        },
        {
            "field": "shared_per_sm",
            "points": [{"name": "shmem-16k", "value": 16384}],
        },
    ],
    "points": [
        {"name": "sm32-bw", "num_sms": 32, "dram_bandwidth": 128.0},
        {
            "name": "fat",
            "num_sms": 32,
            "issue_width": 2,
            "dram_bandwidth": 128.0,
            "l2_lines": 8192,
        },
    ],
}


def default_space() -> DesignSpace:
    """The default 16-point space as a :class:`DesignSpace`."""
    return DesignSpace.from_spec(DEFAULT_SPEC)


def load_space(path: Union[str, Path, None]) -> DesignSpace:
    """``path`` as a space, or the default space when ``path`` is None."""
    if path is None:
        return default_space()
    return DesignSpace.load(path)
