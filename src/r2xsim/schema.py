"""Field bounds, document limits and the strict-document checker.

Each bound or set of choices is declared once, with ``bounded``, on the model
field it limits, with the default a document may omit. ``check_bounds`` holds
it in the constructor and ``_Checker.declared`` at a document's field path, in
the same words.
"""

from __future__ import annotations

import reprlib
import sys
from dataclasses import MISSING, field
from numbers import Integral
from typing import List, Optional, Sequence, Tuple

# Every dB field that enters an SNR sum (a shadowing sigma, a gain profile,
# a power, a noise floor or an SNR target) is at most this large in magnitude,
# so that every sum of them stays finite.
_MAX_DB = 10**4

# A robot id has at most this many digits, and no longer digit run is read as
# a number (in intent text or a method name), so int() never meets its digit
# limit.
_MAX_ID_DIGITS = 18

# Every per-step series is at most this long: a warehouse run's frames
# (a robot's shadowing, drawn as a run reads it, at most twice that plus 8),
# the mcs corridor's steps and cells and the followme frames (built before
# the first run of a seed). A warehouse world has at most this many cells,
# and a frame at most this many cell moves (frame_period_s / cell_traverse_s),
# so that a forecast frame's planner step stays a small integer and a move
# advances the clock; the bundled files need at most a few thousand cells.
_MAX_STEPS = 10**6

# At most this many retransmissions of one step (radio.max_retx) or attempts
# at one frame (followme.max_attempts); each attempt is one draw.
_MAX_RETRIES = 64

# Every payload (warehouse payloads, mcs payload_bytes, followme
# payload_bytes) is a positive integer of at most this many bytes, so that its
# bit count converts to a float; the bundled raw frame is 6,220,800 bytes.
_MAX_PAYLOAD_BYTES = 10**12
_PAYLOAD_BYTES = dict(lo=1, hi=_MAX_PAYLOAD_BYTES, integer=True)

# A BLER target (mcs bler_target, McsTable.cutoffs) is a probability strictly
# between 0 and 1.
_BLER_TARGET = dict(gt=0, lt=1)

# Each followme codec time (codec_s entries) and slot_s is at most this many
# seconds, and each throughput_curve point at least _MIN_THROUGHPUT_BPS, so
# that a frame's CTA, enc + attempts * (bits / throughput + slot_s) + dec, is
# below 6 * 10^14 s and the sum tail_stats takes over its frames stays finite.
# The same bound holds McsTable.slot_s (a section's radio.slot_s) and each
# LoopBudget time (a warehouse budget.*), so that an mcs trace's or a
# warehouse run's latency sum and a loop's total_s stay finite too.
_MAX_DELAY_S = 10**6
_MIN_THROUGHPUT_BPS = 1.0

# At most this many frames of a human's forecast (humans[].horizon_frames);
# every replan reserves each of them. The bundled files use 8 and 16.
_MAX_HORIZON_FRAMES = 1024

# At most this many worker processes for `r2xsim run --parallel`.
_MAX_PARALLEL = 64


def bounded(default=MISSING, **limits):
    """A dataclass field, with ``default``, whose value keeps ``limits``:
    ``lo`` (>=), ``gt`` (>), ``hi`` (<=), ``lt`` (<), ``integer`` or
    ``choices``. A field whose default is None may also be None."""
    return field(default=default, metadata=limits)


def _is_integer(v) -> bool:
    # An int first: the Integral test is a slower abstract-class lookup.
    return type(v) is int or isinstance(v, Integral) and not isinstance(v, bool)


def _is_choice(v, choice) -> bool:
    """``v == choice`` with equal types, element by element for a tuple, so
    that neither ``80.0`` nor ``True`` is taken for an integer choice."""
    if type(v) is not type(choice):
        return False
    if type(choice) is tuple:
        return len(v) == len(choice) and all(_is_choice(a, b) for a, b in zip(v, choice))
    return v == choice


def _broken(v, lo=None, gt=None, hi=None, lt=None, integer=False, choices=None) -> Optional[str]:
    """How ``v`` breaks the limits, as the end of "<value> ..."; None when it
    keeps them. NaN breaks every limit. A bound with ``lt`` is named whole,
    as an interval."""
    if choices is not None:
        return None if any(_is_choice(v, c) for c in choices) else f"is not one of {tuple(choices)}"
    if integer and not _is_integer(v):
        return "must be an integer"
    if lt is not None and not (v < lt and (lo is None or v >= lo) and (gt is None or v > gt)):
        return f"must be in [{lo}, {lt})" if gt is None else f"must be in ({gt}, {lt})"
    if lo is not None and not v >= lo:
        return f"must be >= {lo}"
    if gt is not None and not v > gt:
        return f"must be > {gt}"
    if hi is not None and not v <= hi:
        return f"must be <= {hi}"
    return None


def check_value(name: str, v, limits: dict) -> None:
    """Raise ValueError, as ``<name> <value> must be ...``, when ``v`` breaks
    ``limits``."""
    why = _broken(v, **limits)
    if why is not None:
        raise ValueError(f"{name} {_echo(v)} {why}")


def check_bounds(obj) -> None:
    """``check_value`` on each field of the dataclass ``obj`` that declares
    limits, in order; None passes where the declared default is None."""
    for f in type(obj).__dataclass_fields__.values():
        if f.metadata:
            v = getattr(obj, f.name)
            if v is not None or f.default is not None:
                check_value(f.name, v, f.metadata)


def _is_number(v) -> bool:
    """A JSON number, not a bool, that converts to a finite float.

    ``json.loads`` accepts ``NaN`` and ``Infinity`` and turns ``1e400`` into
    ``inf``; the magnitude bound rejects those and integers too large for a float.
    """
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# Error lines echo values through _echo, and correct_loop sends them back to the
# engine as its next prompt; reprlib elides long values without a full repr.
_ECHO = reprlib.Repr()
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 40
_ECHO_CHARS = 60


def _echo(value) -> str:
    """``repr(value)``, shortened to at most ``_ECHO_CHARS`` characters."""
    text = _ECHO.repr(value)
    return text if len(text) <= _ECHO_CHARS else text[: _ECHO_CHARS - 3] + "..."


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """``json.loads``'s ``object_pairs_hook``: the object as a dict, or a
    ValueError naming the first key written twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {_echo(key)}")
        out[key] = value
    return out


def _is_int_list(value, n: int) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == n and all(_is_integer(c) for c in value)


class _Checker:
    """Collects every error of a strict JSON document, each as
    ``"<field path>: <message>"``; used for configuration messages, scenario
    files and command-line lists."""

    def __init__(self) -> None:
        self.errors: List[str] = []

    def fail(self, path: str, msg: str) -> None:
        self.errors.append(f"{path}: {msg}")

    def obj(self, value, path: str, required: Sequence[str] = (), optional: Sequence[str] = ()) -> Optional[dict]:
        """``value`` when it is an object with every ``required`` key and no
        key outside ``required`` and ``optional``, else None."""
        if not isinstance(value, dict):
            self.fail(path, "must be an object")
            return None
        for key in value:
            if key not in required and key not in optional:
                self.fail(f"{path}.{str(key)[:_ECHO_CHARS]}", "unknown field")
        for key in required:
            if key not in value:
                self.fail(f"{path}.{key}", "required field missing")
        return value

    def one_of(self, value, path: str, choices: Sequence):
        """``value`` when it is one of ``choices``, else None; the error lists
        the choices in their own order."""
        why = _broken(value, choices=choices)
        if why is None:
            return value
        self.fail(path, f"{_echo(value)} {why}")
        return None

    def distinct(self, values: list, path: str, what: str) -> None:
        if len(set(values)) != len(values):
            self.fail(path, f"{what} must be distinct")

    def seeds(self, value, path: str) -> None:
        """The seeds of a file or a command line: distinct nonnegative integers."""
        if not isinstance(value, list) or not value or not all(_is_integer(s) and s >= 0 for s in value):
            self.fail(path, "must be a nonempty list of nonnegative integers")
        else:
            self.distinct(value, path, "seeds")

    def num(self, d: dict, path: str, key: str, default=None, **limits):
        """``d[key]`` when it keeps ``limits``, and is a finite number unless
        they are ``integer`` or ``choices``; ``default`` when it is absent or
        fails."""
        if key not in d:
            return default
        v = d[key]
        exact = limits.get("integer", False) or "choices" in limits
        why = _broken(v, **limits) if exact or _is_number(v) else "must be a finite number"
        if why is not None:
            self.fail(f"{path}.{key}", f"{_echo(v)} {why}")
            return default
        return v if exact else float(v)

    def declared(self, d: dict, path: str, model, name: str, key: Optional[str] = None):
        """``d[key]`` (``key`` defaults to ``name``) under the limits declared
        on the dataclass field ``model.name``; absent, the field's default."""
        f = model.__dataclass_fields__[name]
        return self.num(d, path, key or name, None if f.default is MISSING else f.default, **f.metadata)

    def cell(self, value, path: str) -> Optional[Tuple[int, int]]:
        if _is_int_list(value, 2):
            return (value[0], value[1])
        self.fail(path, f"{_echo(value)} must be an [x, y] integer pair")
        return None

    def rect(self, value, path: str) -> Optional[Tuple[int, int, int, int]]:
        if _is_int_list(value, 4) and value[0] <= value[2] and value[1] <= value[3]:
            return (value[0], value[1], value[2], value[3])
        self.fail(path, f"{_echo(value)} must be [x0, y0, x1, y1] integers with x0 <= x1 and y0 <= y1")
        return None

    def items(self, d: dict, path: str, key: str) -> list:
        """The optional list ``d[key]``; empty when it is absent or not a list."""
        v = d.get(key, [])
        if not isinstance(v, list):
            self.fail(f"{path}.{key}", "must be a list")
            return []
        return v

    def curve(self, d: dict, path: str, key: str, min_points: int = 2) -> Optional[List[Tuple[float, float]]]:
        raw = d.get(key)
        if not isinstance(raw, list) or len(raw) < min_points:
            self.fail(f"{path}.{key}", f"must be a list of at least {min_points} [x, y] pairs")
            return None
        pts = []
        for i, p in enumerate(raw):
            if not isinstance(p, (list, tuple)) or len(p) != 2 or not all(_is_number(c) for c in p):
                self.fail(f"{path}.{key}[{i}]", f"{_echo(p)} must be an [x, y] finite number pair")
                return None
            pts.append((float(p[0]), float(p[1])))
        xs = [p[0] for p in pts]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            self.fail(f"{path}.{key}", "x values must be strictly increasing")
            return None
        return pts
