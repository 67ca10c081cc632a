"""Runtime configuration: tolerances and output placement.

The geometric tolerances of network abstraction are carried here and echoed
into output metadata, so a fact file can be traced back to the parameters
that produced it; two are fixed in `abstraction` instead: the 0.5 m lane-end
touch of ``_anchored_at_contact`` and the 1.0 m slack around an opposed
window in which a crossing makes ``_detect_overlaps`` refuse the geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from trafficlogic.facts import read_utf8

__all__ = ["Config", "load_config"]

#: the geometric tolerances: each must be a finite, positive number
_TOLERANCES = (
    "sampling_step",
    "intersection_tolerance",
    "overlap_corridor_factor",
    "min_overlap_length",
    "overlap_heading_tolerance_deg",
    "occupancy_halfwidth",
)


@dataclass
class Config:
    #: centerline sampling interval in meters
    sampling_step: float = 0.5
    #: max distance from a lane end at which a point whose projection is
    #: clamped to that end still counts as inside an overlap corridor, meters
    intersection_tolerance: float = 0.05
    #: overlap corridor half-width as a fraction of the narrower lane width
    overlap_corridor_factor: float = 0.5
    #: minimum arclength of a corridor window to count as an overlap, meters
    min_overlap_length: float = 1.0
    #: max heading deviation from (anti)parallel inside a corridor, degrees
    overlap_heading_tolerance_deg: float = 30.0
    #: extra lateral reach of a vehicle beyond the lane edge, meters
    occupancy_halfwidth: float = 0.9
    #: output directory for artifact files without an explicit output path
    #: (None = stdout)
    outdir: str | None = None

    def __post_init__(self) -> None:
        for name in _TOLERANCES:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        if self.outdir == "":
            raise ValueError("outdir must not be empty")

    def metadata(self) -> dict[str, str]:
        """Tolerances as strings, for echoing into output files."""
        return {k: repr(getattr(self, k)) for k in _TOLERANCES}


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def load_config(path: str | Path) -> Config:
    """Read a flat ``key=value`` config file; '#' starts a comment."""
    values: dict[str, object] = {}
    text = read_utf8(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key == "outdir":
            values[key] = val
        else:
            values[key] = float(val)
    return Config(**values)  # type: ignore[arg-type]
