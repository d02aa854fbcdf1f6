"""Piecewise paths in the complex plane: lines, circular arcs, loops.

Paths are tuples of segments with exactly matching junctions.  Each segment
maps s in [0,1] (or an array of s) to a point and a velocity; the path also
offers a global arclength-proportional parametrization.  A path may be
flagged as starting or ending at a puncture (reg_start / reg_end), and the
adjacent segment must then be a straight line so the approach direction is
well defined.  Regularized integrals are anchored at a flagged start only;
``reverse`` turns a flagged end into one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, EndpointMismatchError, PoleProximityError

_JUNCTION_TOL = 1e-12


@dataclass(frozen=True)
class LineSegment:
    start: complex
    end: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", complex(self.start))
        object.__setattr__(self, "end", complex(self.end))
        if self.start == self.end:
            raise ConfigError("line segment has zero length")

    @property
    def length(self) -> float:
        return abs(self.end - self.start)

    def point(self, s: float) -> complex:
        return self.start + s * (self.end - self.start)

    def velocity(self, s: float) -> complex:
        return self.end - self.start

    def restrict(self, a: float, b: float) -> "LineSegment":
        return LineSegment(self.point(a), self.point(b))

    def reversed(self) -> "LineSegment":
        return LineSegment(self.end, self.start)


@dataclass(frozen=True)
class ArcSegment:
    """Circular arc, angles in radians; theta1 < theta0 runs clockwise."""

    center: complex
    radius: float
    theta0: float
    theta1: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", complex(self.center))
        if self.radius <= 0:
            raise ConfigError("arc radius must be positive")
        if self.theta0 == self.theta1:
            raise ConfigError("arc sweeps zero angle")

    @property
    def length(self) -> float:
        return self.radius * abs(self.theta1 - self.theta0)

    def _angle(self, s: float) -> float:
        return self.theta0 + s * (self.theta1 - self.theta0)

    def point(self, s: float) -> complex:
        return self.center + self.radius * np.exp(1j * self._angle(s))

    def velocity(self, s: float) -> complex:
        return 1j * (self.theta1 - self.theta0) * (self.point(s) - self.center)

    def restrict(self, a: float, b: float) -> "ArcSegment":
        return ArcSegment(self.center, self.radius, self._angle(a), self._angle(b))

    def reversed(self) -> "ArcSegment":
        return ArcSegment(self.center, self.radius, self.theta1, self.theta0)


Segment = Union[LineSegment, ArcSegment]


@dataclass(frozen=True)
class Path:
    """Chain of segments.  reg_start / reg_end hold the puncture index when
    the corresponding endpoint sits on a puncture.  Integrals are
    regularized at reg_start only; ``transport_series`` rejects a path with
    either flag set."""

    segments: tuple[Segment, ...]
    reg_start: int | None = None
    reg_end: int | None = None

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ConfigError("path needs at least one segment")
        for i in range(len(segs) - 1):
            a, b = segs[i].point(1.0), segs[i + 1].point(0.0)
            if abs(a - b) > _JUNCTION_TOL * max(1.0, abs(a)):
                raise EndpointMismatchError(
                    f"segments {i} and {i + 1} meet at {a} vs {b}"
                )
        if self.reg_start is not None and not isinstance(segs[0], LineSegment):
            raise ConfigError("a regularized start needs a straight first segment")
        if self.reg_end is not None and not isinstance(segs[-1], LineSegment):
            raise ConfigError("a regularized end needs a straight last segment")

    @property
    def start(self) -> complex:
        return self.segments[0].point(0.0)

    @property
    def end(self) -> complex:
        return self.segments[-1].point(1.0)

    @property
    def length(self) -> float:
        return sum(s.length for s in self.segments)

    def start_direction(self) -> complex:
        v = self.segments[0].velocity(0.0)
        return v / abs(v)

    def end_direction(self) -> complex:
        v = self.segments[-1].velocity(1.0)
        return v / abs(v)

    def _locate(self, t: float) -> tuple[Segment, float]:
        if not 0.0 <= t <= 1.0:
            raise ConfigError(f"path parameter {t} outside [0, 1]")
        total = self.length
        target = t * total
        acc = 0.0
        last = len(self.segments) - 1
        for i, seg in enumerate(self.segments):
            if target <= acc + seg.length or i == last:
                return seg, (target - acc) / seg.length
            acc += seg.length
        raise AssertionError("unreachable")

    def point(self, t: float) -> complex:
        seg, s = self._locate(t)
        return seg.point(min(max(s, 0.0), 1.0))

    def velocity(self, t: float) -> complex:
        """Derivative of point(t) in the global parametrization."""
        seg, s = self._locate(t)
        return seg.velocity(min(max(s, 0.0), 1.0)) * (self.length / seg.length)


def line_path(start: complex, end: complex, **flags) -> Path:
    return Path((LineSegment(start, end),), **flags)


def compose(first: Path, second: Path) -> Path:
    if first.reg_end is not None or second.reg_start is not None:
        raise ConfigError("cannot compose across a regularized endpoint")
    a, b = first.end, second.start
    if abs(a - b) > _JUNCTION_TOL * max(1.0, abs(a)):
        raise EndpointMismatchError(f"paths meet at {a} vs {b}")
    return Path(
        first.segments + second.segments,
        reg_start=first.reg_start,
        reg_end=second.reg_end,
    )


def reverse(path: Path) -> Path:
    segs = tuple(s.reversed() for s in reversed(path.segments))
    return Path(segs, reg_start=path.reg_end, reg_end=path.reg_start)


@dataclass(frozen=True)
class LoopSpec:
    """A based loop around one puncture: out along a radial line, around a
    circle ``winding`` times (negative = clockwise), and back."""

    puncture: int
    winding: int
    basepoint: complex
    radius: float | None = None


def loop_around(spec: LoopSpec, surface) -> Path:
    """The loop of ``spec`` on ``surface``.  Its circle must stay inside the
    clearance: the distance from the puncture to the nearest copy of any
    other puncture and, on a torus, to its own nearest copy, one shortest
    lattice vector away.  The default radius is the smaller of 0.4 of the
    clearance and half the distance to the basepoint."""
    if not 0 <= spec.puncture < surface.n_punctures:
        raise ConfigError(f"puncture index {spec.puncture} out of range")
    center = surface.punctures[spec.puncture]
    base = complex(spec.basepoint)
    off = base - center
    if off == 0:
        raise ConfigError("loop basepoint coincides with the puncture")

    clearance = surface.min_puncture_distance(center, exclude=(spec.puncture,))
    if surface.genus == 1:
        from .surfaces import _lattice_basis  # deferred: surfaces imports this module

        clearance = min(clearance, abs(_lattice_basis(surface.tau)[0]))

    if spec.radius is None:
        r = min(0.4 * clearance, 0.5 * abs(off))
    else:
        r = float(spec.radius)
        if r <= 0:
            raise ConfigError("loop radius must be positive")
        if r >= clearance:
            raise ConfigError(
                f"loop radius {r} reaches another puncture (clearance {clearance:.3g})"
            )
    if r >= abs(off):
        raise ConfigError("loop basepoint lies inside the loop radius")

    if spec.winding == 0:
        mid = center + 0.5 * off
        return Path((LineSegment(base, mid), LineSegment(mid, base)))

    phi = cmath.phase(off)
    arc = ArcSegment(center, r, phi, phi + 2 * math.pi * spec.winding)
    return Path(
        (
            LineSegment(base, arc.point(0.0)),
            arc,
            LineSegment(arc.point(1.0), base),
        )
    )


def _seg_log_var(seg: Segment, a: float, b: float, pole: complex, depth: int = 0) -> complex:
    za = seg.point(a) - pole
    zb = seg.point(b) - pole
    # A piece shorter than its distance to the pole stays inside a disc that
    # excludes the pole, so its true angle sweep is under pi and the
    # principal log is branch-safe.  The length bound is what rules out a
    # sub-arc that wraps a full turn (ratio near 1, log near 0).
    piece_len = seg.length * abs(b - a)
    if piece_len < abs(za):
        piece = cmath.log(zb / za)
        if abs(piece.imag) < 0.5 * math.pi:
            return piece
    if depth > 60:
        raise PoleProximityError(f"path passes too close to {pole} to track its angle")
    mid = 0.5 * (a + b)
    return _seg_log_var(seg, a, mid, pole, depth + 1) + _seg_log_var(
        seg, mid, b, pole, depth + 1
    )


def log_variation(path: Path, pole: complex) -> complex:
    """Continuous variation of log(z - pole) along the path.

    The real part is log|end - pole| - log|start - pole|; the imaginary part
    is the total angle swept around the pole.  An endpoint may sit exactly on
    the pole if the adjacent segment is a straight line; the divergent
    log-modulus of that endpoint is dropped (its angle is constant along the
    line, so nothing else changes).  Interior contact with the pole raises
    PoleProximityError.
    """
    pole = complex(pole)
    segs = path.segments
    total = 0j
    for i, seg in enumerate(segs):
        s0 = seg.point(0.0) - pole
        s1 = seg.point(1.0) - pole
        at_start = s0 == 0
        at_end = s1 == 0
        if at_start or at_end:
            if at_start and at_end:
                raise PoleProximityError("segment both starts and ends on the pole")
            if not isinstance(seg, LineSegment):
                raise ConfigError(
                    "only a straight segment may touch the pole at its endpoint"
                )
            if at_start and i != 0:
                raise PoleProximityError(f"path touches pole {pole} between segments")
            if at_end and i != len(segs) - 1:
                raise PoleProximityError(f"path touches pole {pole} between segments")
            total += math.log(abs(s1)) if at_start else -math.log(abs(s0))
            continue
        if segment_min_distance(seg, pole) == 0:
            raise PoleProximityError(f"path passes through the pole {pole}")
        total += _seg_log_var(seg, 0.0, 1.0, pole)
    return total


def segment_min_distance(seg: Segment, poles) -> np.ndarray:
    """Exact distance from the segment to each point of the array ``poles``."""
    q = np.asarray(poles, dtype=complex)
    if isinstance(seg, LineSegment):
        d = seg.end - seg.start
        v = q - seg.start
        return np.abs(v - np.minimum(np.maximum((v / d).real, 0.0), 1.0) * d)
    off = q - seg.center
    rho = np.abs(off)
    lo, hi = sorted((seg.theta0, seg.theta1))
    phi = np.angle(off)
    # the circle's point nearest q, on the ray from the centre through q, is on the arc
    crosses = (rho == 0) | (hi - lo >= 2 * math.pi)
    crosses |= phi + 2 * math.pi * np.ceil((lo - phi) / (2 * math.pi)) <= hi
    ends = np.minimum(np.abs(q - seg.point(0.0)), np.abs(q - seg.point(1.0)))
    return np.where(crosses, np.abs(rho - seg.radius), ends)


def segment_to_json(seg: Segment) -> dict:
    if isinstance(seg, LineSegment):
        return {
            "type": "line",
            "start": [seg.start.real, seg.start.imag],
            "end": [seg.end.real, seg.end.imag],
        }
    return {
        "type": "arc",
        "center": [seg.center.real, seg.center.imag],
        "radius": seg.radius,
        "theta0": seg.theta0,
        "theta1": seg.theta1,
    }


def segment_from_json(data: dict) -> Segment:
    kind = data.get("type")
    if kind == "line":
        s, e = data["start"], data["end"]
        return LineSegment(complex(*s), complex(*e))
    if kind == "arc":
        c = data["center"]
        return ArcSegment(complex(*c), data["radius"], data["theta0"], data["theta1"])
    raise ConfigError(f"unknown segment type {kind!r}")


def path_to_json(path: Path) -> dict:
    out: dict = {"segments": [segment_to_json(s) for s in path.segments]}
    if path.reg_start is not None:
        out["reg_start"] = path.reg_start
    if path.reg_end is not None:
        out["reg_end"] = path.reg_end
    return out


def path_from_json(data: dict) -> Path:
    try:
        segs = tuple(segment_from_json(s) for s in data["segments"])
    except (KeyError, TypeError) as e:
        raise ConfigError(f"bad path config: {e}") from e
    return Path(segs, reg_start=data.get("reg_start"), reg_end=data.get("reg_end"))
