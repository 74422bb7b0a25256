"""Pulse-schedule construction, validation, and compilation.

Schedules are timed lists of RF pulses, either broadband (all spins) or
plane-selective.  Generators here produce the WAHUHA homonuclear decoupling
cycle, Hadamard-scheduled selective pi-pulse decoupling, pairwise
recoupling, merged (interleaved) timelines, and a compiled CNOT.
"""

from __future__ import annotations

import functools
import json
import math
from typing import TYPE_CHECKING, NamedTuple, Union

from .constants import TWO_PI
from .errors import (Checked, ConfigError, SequenceValidationError,
                     canonical_json, finite_json_number, is_number)

if TYPE_CHECKING:
    from .spinsys import SpinSystem

__all__ = [
    "PulseEvent",
    "Sequence",
    "SignMatrix",
    "RecoupleResult",
    "wahuha",
    "hadamard_sign_matrix",
    "decoupling_schedule",
    "recouple",
    "interleave",
    "compile_cnot",
    "sequence_to_json",
    "sequence_from_json",
    "sequence_to_csv_rows",
    "MAX_SCHEDULE_EVENTS",
]

# Phase conventions (rad): 0 = x, pi/2 = y, pi = -x, 3*pi/2 = -y.
PHASE_X = 0.0
PHASE_Y = 0.5 * math.pi
PHASE_MX = math.pi
PHASE_MY = 1.5 * math.pi

Target = Union[str, int]

# Events of one interleaved schedule; `interleave`'s window scan keeps a
# 64-plane `schedule` at this cap to about a second.
MAX_SCHEDULE_EVENTS = 2560


class _Record:
    """Base of the two schedule records, which are not tuples: the fields
    are the __slots__, set once by __init__ before its check.  Equality,
    hash, repr, ``_asdict`` and ``_replace`` go by the fields, as a
    NamedTuple's do, and assignment is refused."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class PulseEvent(_Record):
    """One RF pulse.  duration 0 means instantaneous (ideal); target is
    "broadband" or a plane index."""

    __slots__ = ("t_start", "duration", "flip_angle", "phase", "target")

    def __init__(self, t_start: float, duration: float, flip_angle: float,
                 phase: float, target: Target):
        self._set(t_start, duration, flip_angle, phase, target)
        for name in ("t_start", "duration"):
            if not (math.isfinite(getattr(self, name))
                    and getattr(self, name) >= 0):
                raise ConfigError(f"{name} must be finite and non-negative")
        if not 0.0 < self.flip_angle <= TWO_PI:
            raise ConfigError("flip_angle must be in (0, 2*pi]")
        if not math.isfinite(self.phase):
            raise ConfigError("phase must be finite")
        if not (self.target == "broadband"
                or type(self.target) is int and self.target >= 0):
            raise ConfigError("target must be 'broadband' or a plane index")

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration


class Sequence(_Record):
    """Time-ordered pulse schedule over one cycle.

    No event may overlap an earlier one on its own plane or a broadband
    pulse, which acts on every plane; selective pulses on different planes
    may overlap."""

    __slots__ = ("events", "cycle_time", "label")

    def __init__(self, events: tuple[PulseEvent, ...], cycle_time: float,
                 label: str = ""):
        if not (math.isfinite(cycle_time) and cycle_time >= 0):
            raise ConfigError("cycle_time must be finite and non-negative")
        ordered = tuple(sorted(events, key=lambda e: e.t_start))
        self._set(ordered, cycle_time, label)
        offenders = []
        last_end: dict[Target, float] = {}
        for ev in ordered:
            shared = (last_end if ev.target == "broadband"
                      else (ev.target, "broadband"))
            prev = max((last_end[k] for k in shared if k in last_end),
                       default=0.0)
            if (ev.t_end > self.cycle_time * (1 + 1e-12) + 1e-300
                    or ev.t_start < prev - 1e-15):
                offenders.append(ev)
            last_end[ev.target] = max(last_end.get(ev.target, 0.0), ev.t_end)
        if offenders:
            raise SequenceValidationError(
                "sequence events overlap or run past cycle_time", offenders)

    def segments(self):
        """(t0, t1, event) pieces tiling the timeline in time order, event
        None for a free window.  An event that starts before the previous
        one ends, on any target, raises SequenceValidationError."""
        t = 0.0
        for ev in self.events:
            if ev.t_start < t:
                raise SequenceValidationError(
                    "events overlap on the schedule timeline", [ev])
            if ev.t_start > t:
                yield t, ev.t_start, None
            yield ev.t_start, ev.t_end, ev
            t = ev.t_end
        if self.cycle_time > t:
            yield t, self.cycle_time, None


class _SignMatrixFields(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class SignMatrix(Checked, _SignMatrixFields):
    """Rows of +-1 signs; one row per plane, one column per time slot."""

    # no __slots__: the cached scales keep their value in __dict__

    def _check(self):
        for row in self.rows:
            if len(row) != self.k:
                raise ConfigError("ragged sign matrix")
            if any(s not in (-1, 1) for s in row):
                raise ConfigError("sign matrix entries must be +-1")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @functools.cached_property
    def scales(self) -> tuple[tuple[float, ...], ...]:
        """n rows of the Gram matrix row_i . row_j / k: the fraction of the
        zz coupling between planes i and j surviving the schedule.  With m_i
        the bit mask of row i's -1 entries, row_i . row_j is the exact
        integer k - 2 popcount(m_i ^ m_j), so each entry is one correctly
        rounded division, the bits of numpy's a @ a.T / k."""
        masks = [sum(1 << c for c, s in enumerate(row) if s < 0)
                 for row in self.rows]
        return tuple(tuple((self.k - 2 * (mi ^ mj).bit_count()) / self.k
                           for mj in masks) for mi in masks)


class RecoupleResult(NamedTuple):
    matrix: SignMatrix
    degraded_pairs: tuple[tuple[int, int, float], ...]  # (i, j, scale)


def wahuha(tau: float, pulse_width: float = 0.0) -> Sequence:
    """The 4-pulse WAHUHA cycle over 6*tau.

    tau, (pi/2)_{-x}, tau, (pi/2)_y, 2*tau, (pi/2)_{-y}, tau, (pi/2)_x, tau;
    pulses broadband, centered on the nominal instants.
    """
    if tau <= 0:
        raise ConfigError("tau must be positive")
    if pulse_width < 0 or pulse_width >= tau:
        raise ConfigError("pulse_width must satisfy 0 <= width < tau")
    half = 0.5 * math.pi
    centers_phases = [
        (1.0 * tau, PHASE_MX),
        (2.0 * tau, PHASE_Y),
        (4.0 * tau, PHASE_MY),
        (5.0 * tau, PHASE_X),
    ]
    events = tuple(
        PulseEvent(t_start=c - pulse_width / 2, duration=pulse_width,
                   flip_angle=half, phase=ph, target="broadband")
        for c, ph in centers_phases
    )
    return Sequence(events, cycle_time=6.0 * tau, label="wahuha")


def hadamard_sign_matrix(n: int) -> SignMatrix:
    """First n rows of the Sylvester Hadamard matrix of order
    k = 2^ceil(log2(max(n, 2))): entry (i, j) is (-1)^popcount(i & j)."""
    if n < 1:
        raise ConfigError("n must be at least 1")
    k = 1 << max(1, math.ceil(math.log2(max(n, 2))))
    return SignMatrix(tuple(tuple(1 - 2 * ((i & j).bit_count() & 1)
                                  for j in range(k)) for i in range(n)))


def decoupling_schedule(m: SignMatrix, slot: float,
                        pi_width: float = 0.0) -> Sequence:
    """Selective pi pulses timed by the sign rows.

    Each plane starts in the +1 frame; a pi pulse is centered at every slot
    boundary where its row flips sign, plus a trailing reset pulse if the
    row ends at -1 so cycles compose.  cycle_time = k * slot.
    """
    if slot <= 0:
        raise ConfigError("slot must be positive")
    if pi_width < 0 or pi_width > slot / 4:
        raise ConfigError("pi_width must satisfy 0 <= width <= slot/4")
    k = m.k
    events = []
    for plane, row in enumerate(m.rows):
        # Sign changes along the row, padded with the +1 start and end frames.
        padded = (1, *row, 1)
        for col, (s0, s1) in enumerate(zip(padded, padded[1:])):
            if s0 == s1:
                continue
            t = col * slot
            t_start = t - pi_width if col == k else max(0.0, t - pi_width / 2)
            events.append(
                PulseEvent(t_start, pi_width, math.pi, PHASE_X, plane))
    return Sequence(tuple(events), cycle_time=k * slot,
                    label=f"hadamard-decoupling-k{k}")


def recouple(m: SignMatrix, pair: tuple[int, int]) -> RecoupleResult:
    """Recouple one plane pair by giving both planes identical sign rows.

    All other rows are left unchanged; any spectator pair whose scale
    becomes nonzero is reported rather than hidden (with distinct Hadamard
    rows elsewhere there are none).  ConfigError unless i and j are
    distinct planes of m.
    """
    i, j = pair
    if not (0 <= i < m.n and 0 <= j < m.n) or i == j:
        raise ConfigError(f"recouple pair {(i, j)} invalid for n={m.n}")
    rows = list(m.rows)
    rows[j] = rows[i]
    out = SignMatrix(tuple(rows))
    scales = out.scales
    degraded = tuple((p, q, scales[p][q]) for p in range(out.n)
                     for q in range(p + 1, out.n)
                     if scales[p][q] and (p, q) != (min(i, j), max(i, j)))
    return RecoupleResult(matrix=out, degraded_pairs=degraded)


def interleave(broadband: Sequence, selective: Sequence) -> Sequence:
    """Merge a selective schedule into repetitions of a broadband cycle.

    The broadband cycle is repeated to cover the selective cycle_time and
    each selective pulse is placed inside the nearest free-evolution window
    of the broadband timeline (shifted minimally if it straddles a broadband
    pulse).  Raises SequenceValidationError listing every selective event
    that cannot fit, and ConfigError past MAX_SCHEDULE_EVENTS events.
    """
    if broadband.cycle_time <= 0:
        raise ConfigError("broadband cycle_time must be positive")
    span = max(broadband.cycle_time, selective.cycle_time)
    cycles = span / broadband.cycle_time - 1e-12
    if not cycles <= MAX_SCHEDULE_EVENTS:  # inf too, which ceil cannot take
        raise ConfigError(f"interleaved schedule of {cycles:.3g} broadband "
                          f"cycles exceeds the cap of {MAX_SCHEDULE_EVENTS} "
                          f"events")
    reps = max(1, math.ceil(cycles))
    n = reps * len(broadband.events) + len(selective.events)
    if n > MAX_SCHEDULE_EVENTS:
        raise ConfigError(f"interleaved schedule of {n} events exceeds "
                          f"the cap of {MAX_SCHEDULE_EVENTS}")
    total = reps * broadband.cycle_time
    bb = Sequence(tuple(
        e._replace(t_start=e.t_start + r * broadband.cycle_time)
        for r in range(reps) for e in broadband.events), total)
    windows = [(a, b) for a, b, ev in bb.segments() if ev is None]
    min_window = min((b - a for a, b in windows), default=0.0)
    offenders = [ev for ev in selective.events if ev.duration >= min_window]
    if offenders:
        raise SequenceValidationError(
            f"selective pulse width >= smallest broadband window "
            f"({min_window:.3e} s)", offenders)
    placed = []
    last_end: dict[Target, float] = {}
    for ev in selective.events:
        lo = last_end.get(ev.target, 0.0)
        best = None
        for a, b in windows:
            start = min(max(ev.t_start, a, lo), b - ev.duration)
            if start + ev.duration > b:  # b - duration rounded up
                start = math.nextafter(start, -math.inf)
            if start < a or start < lo:
                continue
            shift = abs(start - ev.t_start)
            if best is None or shift < best[0]:
                best = (shift, start)
        if best is None:
            offenders.append(ev)
            continue
        new = ev._replace(t_start=best[1])
        placed.append(new)
        last_end[ev.target] = new.t_end
    if offenders:
        raise SequenceValidationError(
            "selective pulses do not fit the broadband free windows",
            offenders)
    return Sequence(bb.events + tuple(placed), cycle_time=total,
                    label=f"{broadband.label}+{selective.label}")


def _norm_flip(angle: float) -> float:
    """Map an angle to (0, 2*pi]; returns 0.0 for a no-op rotation."""
    a = angle % TWO_PI
    if a < 1e-15 or TWO_PI - a < 1e-15:
        return 0.0
    return a


def _z_rotation_events(plane: int, alpha: float, t: float) -> list[PulseEvent]:
    """Composite exp(+i*alpha*Iz) on a plane: X(pi/2), Y(alpha), X(-pi/2)."""
    a = _norm_flip(alpha)
    if a == 0.0:
        return []
    half = 0.5 * math.pi
    return [
        PulseEvent(t, 0.0, half, PHASE_X, plane),
        PulseEvent(t, 0.0, a, PHASE_Y, plane),
        PulseEvent(t, 0.0, half, PHASE_MX, plane),
    ]


def compile_cnot(sys: SpinSystem, control: int, target: int):
    """Compile a CNOT between adjacent planes.

    A free-evolution interval accrues a zz phase of pi from the plane-pair
    coupling; explicit z-rotation composites undo the offset precession and
    convert the controlled phase into a CNOT via target-plane pi/2
    rotations.  Returns (Sequence, perm), perm the ideal target as
    spinsys.cnot_permutation gives it: basis state k goes to perm[k].
    """
    from .spinsys import cnot_permutation

    if abs(control - target) != 1:
        raise ConfigError(
            "compile_cnot supports nearest-neighbor planes only")
    perm = cnot_permutation(sys, control, target)
    s1 = sys.spin_index(control, 0)
    s2 = sys.spin_index(target, 0)
    # adjacent planes, so the pair's coupling is zz
    J = next((c.coeff for c in sys.couplings if {c.i, c.j} == {s1, s2}),
             None)
    if J is None or J == 0.0:
        raise ConfigError("no zz coupling between the requested planes")
    t_evol = math.pi / abs(J)
    if not math.isfinite(t_evol):
        raise ConfigError(f"CNOT gate time pi/|J| is not finite "
                          f"(J = {J:.3e} rad/s)")
    s = 1.0 if J > 0 else -1.0
    half = 0.5 * math.pi
    events: list[PulseEvent] = [
        PulseEvent(0.0, 0.0, half, PHASE_MY, target),
    ]
    for p in range(sys.n_planes):
        alpha = sys.offsets[p] * t_evol
        if p == target:
            alpha += s * half
        elif p == control:
            # s*pi/2 closes the controlled phase; the extra -pi converts the
            # leftover conditional sign on the flip block into a global phase.
            alpha += s * half - math.pi
        if not math.isfinite(alpha):
            raise ConfigError(f"CNOT z rotation of plane {p} overflows: "
                              f"offset {sys.offsets[p]:.3e} rad/s times gate "
                              f"time pi/|J| = {t_evol:.3e} s")
        events.extend(_z_rotation_events(p, alpha, t_evol))
    events.append(PulseEvent(t_evol, 0.0, half, PHASE_Y, target))
    seq = Sequence(tuple(events), cycle_time=t_evol,
                   label=f"cnot-{control}-{target}")
    return seq, perm


# --- serialization ---------------------------------------------------------

SCHEDULE_SCHEMA_VERSION = 1


def sequence_to_json(seq: Sequence) -> str:
    """The schedule as canonical JSON text (errors.canonical_json)."""
    obj = {
        "schema_version": SCHEDULE_SCHEMA_VERSION,
        "label": seq.label,
        "cycle_time": seq.cycle_time,
        "events": [e._asdict() for e in seq.events],
    }
    return canonical_json(obj)


def _json_number(x) -> float:
    if not is_number(x):
        raise ConfigError(f"schedule number expected, got {x!r}")
    return float(x)


def sequence_from_json(text: str) -> Sequence:
    """Inverse of sequence_to_json; anything it would not write is a
    ConfigError."""
    try:
        obj = json.loads(text, parse_float=finite_json_number,
                         parse_constant=finite_json_number)
    except ValueError as exc:  # JSONDecodeError, or an int past 4300 digits
        raise ConfigError(f"invalid schedule JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("schedule JSON must be an object")
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEDULE_SCHEMA_VERSION:
        raise ConfigError("unsupported schedule schema_version")
    label = obj.get("label", "")
    if type(label) is not str:
        raise ConfigError("schedule label must be a string")
    try:
        events = tuple(PulseEvent(
            t_start=_json_number(e["t_start"]),
            duration=_json_number(e["duration"]),
            flip_angle=_json_number(e["flip_angle"]),
            phase=_json_number(e["phase"]),
            target=e["target"],
        ) for e in obj.get("events", []))
        cycle_time = _json_number(obj["cycle_time"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed schedule: {exc!r}") from None
    return Sequence(events, cycle_time=cycle_time, label=label)


def sequence_to_csv_rows(seq: Sequence) -> list[list]:
    """Timeline table: header, then one row of raw values per event."""
    rows = [["t_start_s", "duration_s", "flip_angle_rad", "phase_rad", "target"]]
    for ev in seq.events:
        rows.append([ev.t_start, ev.duration, ev.flip_angle, ev.phase,
                     str(ev.target)])
    return rows
