"""Named reference boxes, each built by one constructor here.

Five behaviors that exercise the analysis pipeline from different angles:

* ``pr``: the Popescu-Rohrlich box, no-signaling but maximally nonlocal;
  one probability sum reaches its algebraic ceiling of 4.
* ``mermin``: a no-signaling box with a three-zero pattern at cell 13, so
  a single cell quadruple certifies nonlocality outcome by outcome.
* ``kwiat_hardy``: a deterministic table that looks nonlocal but signals;
  its four-term and six-term CH forms disagree, which the equivalence
  audit flags.
* ``hardy_pattern_a`` / ``hardy_pattern_b``: no-signaling boxes built by
  completing a free-cell assignment with three zeros, witnessing the
  three-zero shift theorem for two different cell quadruples that share
  the nonzero cell.

`load_box` builds a box by name.  ``hardybox examples --dump NAME`` prints
one in the behavior JSON schema, which ``check --input`` and
``simulate --input`` read back bit for bit.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .behavior import Behavior
from .locality import FreeSetId, complete_from_free_set


def pr_box() -> Behavior:
    """All eight cells of the first probability sum at one half."""
    return complete_from_free_set([0.5] * 8, FreeSetId.S1)


def mermin_box() -> Behavior:
    """No-signaling box with zeros at cells 4, 5, 9 and cell 13 at 0.09."""
    return Behavior(
        (
            0.25, 0.375, 0.375, 0.0,
            0.0, 0.625, 0.225, 0.15,
            0.0, 0.225, 0.625, 0.15,
            0.09, 0.135, 0.135, 0.64,
        )
    )


def kwiat_hardy_box() -> Behavior:
    """Deterministic signaling table: one unit cell per block."""
    return Behavior(
        (
            1.0, 0.0, 0.0, 0.0,
            1.0, 0.0, 0.0, 0.0,
            1.0, 0.0, 0.0, 0.0,
            0.0, 1.0, 0.0, 0.0,
        )
    )


def hardy_pattern_a_box() -> Behavior:
    """Completion with zeros at cells 6, 11, 13; cell 1 lands at 0.09."""
    values = {6: 0.0, 11: 0.0, 13: 0.0}
    free = FreeSetId.S1P.free_cells
    return complete_from_free_set([values.get(c, 0.164) for c in free], FreeSetId.S1P)


def hardy_pattern_b_box() -> Behavior:
    """Completion with zeros at cells 6, 9, 15; cell 1 lands at 0.09."""
    values = {6: 0.0, 9: 0.0, 15: 0.0}
    free = FreeSetId.S2P.free_cells
    return complete_from_free_set([values.get(c, 0.164) for c in free], FreeSetId.S2P)


# name -> (constructor, title, reference values frozen by the test suite
# and echoed by the CLI)
_BOXES: dict[str, tuple[Callable[[], Behavior], str, dict[str, float]]] = {
    "pr": (pr_box, "Popescu-Rohrlich box", {
        "sigma_1": 4.0,
        "ch_b1": 0.5,
        "max_signaling_residual": 0.0,
        "hardy_violations": 16,
    }),
    "mermin": (mermin_box, "no-signaling box with a three-zero witness at cell 13", {
        "sigma_1": 0.82,
        "sigma_1_prime": 3.18,
        "ch_b1_four_term": -1.09,
        "correlation_11": -0.5,
        "witness_family": 1,
        "witness_j": 13,
        "witness_pj": 0.09,
        "hardy_violations": 16,
    }),
    "kwiat_hardy": (kwiat_hardy_box, "deterministic signaling table", {
        "sigma_1": 4.0,
        "ch_b1_full": 1.0,
        "max_signaling_residual": 1.0,
    }),
    "hardy_pattern_a": (hardy_pattern_a_box, "three-zero completion, zeros at cells 6, 11, 13", {
        "witness_family": 2,
        "witness_j": 1,
        "witness_pj": 0.09,
        "hardy_violations": 16,
    }),
    "hardy_pattern_b": (hardy_pattern_b_box, "three-zero completion, zeros at cells 6, 9, 15", {
        "witness_family": 4,
        "witness_j": 1,
        "witness_pj": 0.09,
        "hardy_violations": 16,
    }),
}

BOX_NAMES: tuple[str, ...] = tuple(_BOXES)


class NamedBox(NamedTuple):
    name: str
    title: str
    behavior: Behavior
    expected: Mapping[str, float]


def available_boxes() -> tuple[str, ...]:
    return BOX_NAMES


def load_box(name: str) -> NamedBox:
    """Build a named box from its constructor."""
    if name not in _BOXES:
        raise KeyError(f"unknown box {name!r}; available: {', '.join(BOX_NAMES)}")
    constructor, title, expected = _BOXES[name]
    return NamedBox(
        name=name,
        title=title,
        behavior=constructor(),
        expected=MappingProxyType(expected),
    )
