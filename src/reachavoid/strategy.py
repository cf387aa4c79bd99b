"""Feedback strategies and the value of the capture-altitude game.

A winning coalition holds its guarantee by racing straight at the current
interception point; the evader's unique altitude-optimal reply is to do the
same.  Under mutually optimal play the capture altitude equals the optimal
value of the interception program, so the value function is read directly
off the solver.
"""

from __future__ import annotations

from . import _linalg as la
from ._linalg import Vec
from .geometry import EvaderSpec
from .interception import (
    GOAL_TOLERANCE,
    Region,
    UNBOUNDED,
    solve_interception,
)

#: Degenerate-heading sentinel: a player already at the interception point
#: holds position (capture or arrival resolution is imminent).
HOLD = (0.0, 0.0, 0.0)

_DEGENERATE_DISTANCE = 1e-12


def is_hold(heading) -> bool:
    """Whether a heading is the hold-position sentinel."""
    return la.norm(la.as_vec(heading)) <= _DEGENERATE_DISTANCE


def _heading_toward(source, target) -> Vec:
    src = la.as_vec(source)
    dst = la.as_vec(target)
    offset = la.sub(dst, src)
    distance = la.norm(offset)
    if distance <= _DEGENERATE_DISTANCE:
        return HOLD
    return la.scale(offset, 1.0 / distance)


def pursuer_heading(pursuer_position, interception_point) -> Vec:
    """Unit heading from a pursuer straight at the interception point.

    Returns the hold sentinel when the pursuer already sits there.
    """
    return _heading_toward(pursuer_position, interception_point)


def evader_optimal_heading(evader_position, interception_point) -> Vec:
    """The evader's altitude-optimal heading, straight at the interception point."""
    return _heading_toward(evader_position, interception_point)


def value_function(coalition, evader: EvaderSpec, pursuers,
                   region: Region = UNBOUNDED) -> float:
    """Capture altitude under mutually optimal play.

    Only defined when the coalition wins; ties and evader wins raise
    ``ValueError``.  The value is the certified lowest altitude of the
    coalition's one solve, whatever its size.
    """
    result = solve_interception(coalition, evader, pursuers, region)
    if result.value <= GOAL_TOLERANCE:
        raise ValueError(
            "value function requires a pursuit-winning configuration "
            f"(optimal altitude {result.value})"
        )
    return result.value
