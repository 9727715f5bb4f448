"""Bound verification reports.

Every bound evaluator produces a BoundReport pairing the bound value with
the independently computed quantity it constrains.  `holds` applies the
inequality direction with a relative tolerance; `slack_ratio` is oriented
so that values approaching 1 mean the bound is tight (the semiclassically
sharp bounds drift toward 1 as the parameter grows).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["BoundReport", "make_report", "inputs_digest"]

_HOLD_RTOL = 1e-9


def inputs_digest(*parts) -> str:
    """Short stable digest of a run's inputs."""
    text = json.dumps([repr(p) for p in parts], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class BoundReport:
    kind: str
    parameter: float
    bound_value: float
    computed_value: float
    direction: str               # "upper": computed <= bound; "lower": >=
    holds: bool
    slack_ratio: Optional[float]
    notes: Tuple[str, ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameter": self.parameter,
            "bound": self.bound_value,
            "computed": self.computed_value,
            "slack": self.slack_ratio,
            "holds": self.holds,
            "notes": list(self.notes),
        }

    def csv_row(self) -> list:
        slack = "" if self.slack_ratio is None else repr(self.slack_ratio)
        return [self.kind, repr(float(self.parameter)),
                repr(self.bound_value), repr(self.computed_value),
                slack, str(self.holds).lower()]


def make_report(kind: str, parameter: float, bound_value: float,
                computed_value: float, direction: str,
                notes: Tuple[str, ...] = ()) -> BoundReport:
    if direction not in ("upper", "lower"):
        raise ValueError(f"direction must be 'upper' or 'lower', "
                         f"got {direction!r}")
    bound_value, computed_value = float(bound_value), float(computed_value)
    tol = _HOLD_RTOL * (1.0 + abs(bound_value))
    if direction == "upper":
        holds = computed_value <= bound_value + tol
    else:
        holds = computed_value >= bound_value - tol
    slack: Optional[float] = None
    if bound_value > 0 and computed_value > 0:
        if direction == "upper":
            slack = computed_value / bound_value
        else:
            slack = bound_value / computed_value
    return BoundReport(kind, float(parameter), bound_value, computed_value,
                       direction, holds, slack, tuple(notes))
