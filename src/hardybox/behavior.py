"""Core representation of two-party, two-setting, two-outcome behaviors.

A *behavior* (also called a box) is the table of sixteen joint probabilities
produced when two separated parties, A and B, each choose one of two
measurement settings (a1/a2 for A, b1/b2 for B) and each obtain a dichotomic
outcome +1 or -1.

The sixteen cells are numbered 1..16 in a fixed convention used everywhere
in this package:

    cell  1..4    settings (a1, b1), outcomes (+,+), (+,-), (-,+), (-,-)
    cell  5..8    settings (a1, b2), same outcome order
    cell  9..12   settings (a2, b1), same outcome order
    cell 13..16   settings (a2, b2), same outcome order

so ``index = 4*(2*(settingA-1) + (settingB-1)) + offset`` with offset 1..4
running over (+,+), (+,-), (-,+), (-,-).  All public functions that accept a
cell index use this 1-based numbering; the underlying tuple is 0-based as
usual.

Nothing in this module assumes the probabilities are normalized or
non-negative: diagnostic predicates (`is_valid`, `is_normalized`,
`is_no_signaling`) report on those properties instead of enforcing them, so
that deliberately broken tables can be analyzed too.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from numbers import Integral
from pathlib import Path
from typing import Literal, NamedTuple

Outcome = Literal[1, -1]

#: Fixed outcome order within each setting block.
OUTCOME_ORDER: tuple[tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))

#: Default numeric tolerance for normalization / no-signaling predicates.
DEFAULT_TOL = 1e-9


class Party(enum.Enum):
    A = "A"
    B = "B"


def index_of(setting_a: int, setting_b: int, outcome_a: int, outcome_b: int) -> int:
    """Map (setting pair, outcome pair) to the 1-based cell index.

    ``setting_a`` and ``setting_b`` are 1 or 2; outcomes are +1 or -1.

    >>> index_of(1, 1, 1, 1)
    1
    >>> index_of(1, 2, -1, 1)
    7
    >>> index_of(2, 2, -1, -1)
    16
    """
    if setting_a not in (1, 2) or setting_b not in (1, 2):
        raise ValueError(f"settings must be 1 or 2, got ({setting_a!r}, {setting_b!r})")
    try:
        offset = OUTCOME_ORDER.index((outcome_a, outcome_b))
    except ValueError:
        raise ValueError(
            f"outcomes must be +1 or -1, got ({outcome_a!r}, {outcome_b!r})"
        ) from None
    return 4 * (2 * (setting_a - 1) + (setting_b - 1)) + offset + 1


def cell_position(index: int) -> int:
    """0-based position of cell ``index``; `ValueError` unless it is in 1..16."""
    if not 1 <= index <= 16:
        raise ValueError(f"cell index must be in 1..16, got {index!r}")
    return index - 1


def cell_of(index: int) -> tuple[int, int, int, int]:
    """Inverse of `index_of`: cell index -> (settingA, settingB, outcomeA, outcomeB)."""
    block, offset = divmod(cell_position(index), 4)
    outcome_a, outcome_b = OUTCOME_ORDER[offset]
    return block // 2 + 1, block % 2 + 1, outcome_a, outcome_b


@dataclass(frozen=True)
class Behavior:
    """Immutable table of the sixteen joint probabilities.

    Entries may be any finite reals; use the predicates below to test for
    validity, normalization and no-signaling.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(map(float, self.probs))
        if len(probs) != 16:
            raise ValueError(f"behavior needs 16 probabilities, got {len(probs)}")
        if not all(map(math.isfinite, probs)):
            raise ValueError("behavior entries must be finite")
        object.__setattr__(self, "probs", probs)

    def p(self, index: int) -> float:
        """Probability of cell ``index`` (1-based, see module docstring)."""
        return self.probs[cell_position(index)]

    def prob(self, setting_a: int, setting_b: int, outcome_a: int, outcome_b: int) -> float:
        return self.probs[index_of(setting_a, setting_b, outcome_a, outcome_b) - 1]

    def block(self, setting_a: int, setting_b: int) -> tuple[float, float, float, float]:
        """The four cells of one setting pair, in outcome order."""
        if setting_a not in (1, 2) or setting_b not in (1, 2):
            raise ValueError(f"settings must be 1 or 2, got ({setting_a!r}, {setting_b!r})")
        base = 4 * (2 * (setting_a - 1) + (setting_b - 1))
        return self.probs[base : base + 4]  # type: ignore[return-value]


def uniform_behavior() -> Behavior:
    """The fully mixed box: every cell 1/4."""
    return Behavior((0.25,) * 16)


def is_valid(b: Behavior) -> bool:
    """True when every entry lies in [0, 1] (exact comparison)."""
    return all(0.0 <= x <= 1.0 for x in b.probs)


def block_sums(b: Behavior) -> tuple[float, float, float, float]:
    return tuple(sum(b.block(j, k)) for j in (1, 2) for k in (1, 2))  # type: ignore[return-value]


def is_normalized(b: Behavior, tol: float = DEFAULT_TOL) -> bool:
    """True when each of the four setting blocks sums to 1 within ``tol``."""
    return all(abs(s - 1.0) <= tol for s in block_sums(b))


@dataclass(frozen=True)
class Marginals:
    """One-party marginal probabilities of outcome +1, per remote setting.

    ``p_a[j-1][k-1]`` is P(a_j = +1) computed from the block where B measured
    b_k; ``p_b[k-1][j-1]`` is P(b_k = +1) computed from the block where A
    measured a_j.  For a no-signaling box the two entries of each inner pair
    coincide.
    """

    p_a: tuple[tuple[float, float], tuple[float, float]]
    p_b: tuple[tuple[float, float], tuple[float, float]]


def marginals(b: Behavior) -> Marginals:
    """All eight one-party marginal sums for outcome +1 (both remote variants)."""
    p_a = tuple(
        tuple(b.prob(j, k, 1, 1) + b.prob(j, k, 1, -1) for k in (1, 2)) for j in (1, 2)
    )
    p_b = tuple(
        tuple(b.prob(j, k, 1, 1) + b.prob(j, k, -1, 1) for j in (1, 2)) for k in (1, 2)
    )
    return Marginals(p_a, p_b)  # type: ignore[arg-type]


class SignalingRow(NamedTuple):
    """Cells of one party's marginal under far setting 1 and far setting 2."""

    party: Party
    setting: int
    outcome: int
    far1: tuple[int, int]
    far2: tuple[int, int]


def _marginal_cells(near: int, setting: int, outcome: int, far_setting: int) -> tuple[int, int]:
    # cells where party ``near`` (0: A, 1: B) saw (setting, outcome), the other party far_setting
    return tuple(  # type: ignore[return-value]
        c for c in range(1, 17)
        if cell_of(c)[near::2] == (setting, outcome) and cell_of(c)[1 - near] == far_setting
    )


#: The eight no-signaling conditions, ordered A1+, A1-, A2+, A2-, B1+, B1-,
#: B2+, B2-: the marginal of (party, setting, outcome) summed over the cells
#: measured under far setting 1 equals the sum under far setting 2.  The
#: cells are derived from the cell numbering (`cell_of`).
SIGNALING_ROWS: tuple[SignalingRow, ...] = tuple(
    SignalingRow(party, s, o, _marginal_cells(near, s, o, 1), _marginal_cells(near, s, o, 2))
    for near, party in enumerate(Party)
    for s in (1, 2)
    for o in (1, -1)
)


def is_no_signaling(b: Behavior, tol: float = DEFAULT_TOL) -> bool:
    """True when every one-party marginal is independent of the remote setting.

    Checks all eight `SIGNALING_ROWS`, so the result does not rely on the box
    being normalized.
    """
    p = b.probs
    return all(
        abs((p[i - 1] + p[j - 1]) - (p[k - 1] + p[l - 1])) <= tol
        for *_, (i, j), (k, l) in SIGNALING_ROWS
    )


def correlation(b: Behavior, setting_a: int, setting_b: int) -> float:
    """Correlation coefficient c(a_j, b_k) = p(++) + p(--) - p(+-) - p(-+)."""
    pp, pm, mp, mm = b.block(setting_a, setting_b)
    return pp + mm - pm - mp


@dataclass(frozen=True)
class CorrelationVector:
    c11: float
    c12: float
    c21: float
    c22: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.c11, self.c12, self.c21, self.c22)


def correlation_vector(b: Behavior) -> CorrelationVector:
    return CorrelationVector(
        correlation(b, 1, 1),
        correlation(b, 1, 2),
        correlation(b, 2, 1),
        correlation(b, 2, 2),
    )


def as_int(value: object, lo: int, hi: float, what: str) -> int:
    """``int(value)``, for callers to go on with, if ``value`` is a Python or numpy
    integer (not a bool) in ``lo..hi``; else ``ValueError(f"{what}, got {value!r}")``."""
    if value.__class__ is int:  # the common case, already what callers go on with
        if lo <= value <= hi:
            return value
    elif isinstance(value, Integral) and not isinstance(value, bool) and lo <= int(value) <= hi:
        return int(value)
    raise ValueError(f"{what}, got {value!r}")


class SchemaError(ValueError):
    """A JSON document does not match the behavior schema."""

    def __init__(self, message: str, field_name: str):
        super().__init__(message)
        self.field_name = field_name


class ConvergenceError(RuntimeError):
    """A search did not reach the requested constraint tolerance.

    Raised by `hardybox.quantum`; defined here so that the command line can
    catch it without importing the searches."""


def to_json(value: object) -> object:
    """``value`` as JSON data: a record through its ``to_json_dict``, a tuple or
    list as an array, a complex number as ``[re, im]``, an enum as its value,
    and a NaN or infinite float as ``None``, since JSON has neither."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, complex):
        return to_json((value.real, value.imag))
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def json_text(value: object) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, built flat.

    For every acyclic value that call accepts this returns the same string,
    and for every value it refuses this raises the same exception type at
    the same first offending item: `ValueError` for a NaN or infinite float,
    `TypeError` for a value or key JSON has no form for (``np.bool_``,
    ``np.int64``, a set).  Keys are converted as json converts them.  Any
    indent turns json's C encoder off, and its pure-Python encoder nests a
    generator per container; here each container is one `str.join` of its
    items' texts, and a plain scalar's text is one lookup by exact type.
    """
    return _json_text(value, "\n")


def _finite_repr(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


#: the JSON text of a scalar of exactly these types; subclasses (an
#: ``IntEnum``, ``np.float64``) take `_json_text`'s isinstance path, which
#: writes them through their base type as json does
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _finite_repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_key(key: object) -> str:
    if isinstance(key, str):
        text = key
    elif isinstance(key, float):
        text = _finite_repr(key)
    elif isinstance(key, bool) or key is None:
        text = _SCALAR_TEXT[type(key)](key)
    elif isinstance(key, int):
        text = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(text)


def _json_text(value: object, newline: str) -> str:
    # ``newline`` is "\n" and the indentation of the line ``value`` starts on
    text_of = _SCALAR_TEXT.get
    text = text_of(value.__class__)
    if text is not None:
        return text(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [t(x) if (t := text_of(x.__class__)) else _json_text(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            (encode_basestring_ascii(k) if k.__class__ is str else _json_key(k))
            + ": "
            + (t(x) if (t := text_of(x.__class__)) else _json_text(x, inner))
            for k, x in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    for base in (str, int, float):  # a subclass; bool and None have none
        if isinstance(value, base):
            return _SCALAR_TEXT[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def record_to_json(record: object) -> dict:
    """A dataclass record as one key per field, in field order, each value `to_json`."""
    return {f.name: to_json(getattr(record, f.name)) for f in fields(record)}


def behavior_to_json_dict(b: Behavior, label: str | None = None) -> dict:
    doc: dict = {"probs": list(b.probs)}
    if label is not None:
        doc["label"] = label
    return doc


def check_cell_value(x: object, name: str, field_name: str) -> None:
    """`SchemaError` at ``field_name``, naming ``name``, unless the cell value
    ``x`` is a number (not a bool), finite and at most 1e300 in magnitude.

    Every quantity `check` prints, and every completed cell, sums at most 16
    cells with coefficients of magnitude at most 1, so it stays finite.
    """
    try:
        number = not isinstance(x, bool) and isinstance(x, (int, float))
        finite = number and math.isfinite(x) and abs(x) <= 1e300
    except OverflowError:  # JSON integers are unbounded
        raise SchemaError(
            f"'{name}' is an integer too large for a float", field_name=field_name
        ) from None
    if not finite:
        raise SchemaError(
            f"'{name}' must be a finite number of magnitude at most 1e300, got {x!r}",
            field_name=field_name,
        )


def behavior_from_json_dict(doc: object) -> tuple[Behavior, str | None]:
    """Parse ``{"probs": [16 numbers], "label": optional str}``.

    Raises `SchemaError` naming the offending field on any mismatch.
    """
    if not isinstance(doc, dict):
        raise SchemaError("behavior document must be a JSON object", field_name="$")
    if "probs" not in doc:
        raise SchemaError("missing required field 'probs'", field_name="probs")
    probs = doc["probs"]
    if not isinstance(probs, list) or len(probs) != 16:
        raise SchemaError("'probs' must be an array of 16 numbers", field_name="probs")
    for i, x in enumerate(probs):
        check_cell_value(x, f"probs[{i}]", field_name=f"probs[{i}]")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise SchemaError("'label' must be a string when present", field_name="label")
    unknown = set(doc) - {"probs", "label"}
    if unknown:
        name = sorted(unknown)[0]
        raise SchemaError(f"unknown field {name!r}", field_name=name)
    return Behavior(tuple(probs)), label


def load_behavior(path: str | Path) -> tuple[Behavior, str | None]:
    """Read a behavior JSON file; `SchemaError` on malformed content."""
    return behavior_from_json_dict(parse_json(Path(path).read_bytes()))


def parse_json(data: bytes) -> object:
    """Decode UTF-8 JSON, with `SchemaError` at ``$`` for any malformed document."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8: {exc}", field_name="$") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", field_name="$") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise SchemaError("not valid JSON: an integer has too many digits", field_name="$") from exc


def save_behavior(b: Behavior, path: str | Path, label: str | None = None) -> None:
    Path(path).write_text(json_text(behavior_to_json_dict(b, label)) + "\n", encoding="utf-8")
