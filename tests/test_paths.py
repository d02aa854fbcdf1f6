"""Segments, path composition, based loops, log variation."""

import cmath
import json
import math

import numpy as np
import pytest

from oracles import winding_number
from iterint.errors import ConfigError, EndpointMismatchError, PoleProximityError
from iterint.paths import (
    ArcSegment,
    LineSegment,
    LoopSpec,
    Path,
    compose,
    line_path,
    log_variation,
    loop_around,
    path_from_json,
    path_to_json,
    reverse,
    segment_from_json,
)
from iterint.surfaces import SurfaceConfig


class TestSegments:
    def test_line_basics(self):
        seg = LineSegment(1, 2 + 2j)
        assert seg.point(0) == 1 and seg.point(1) == 2 + 2j
        assert seg.point(0.5) == 1.5 + 1j
        assert seg.velocity(0.3) == 1 + 2j
        assert abs(seg.length - abs(1 + 2j)) < 1e-15
        assert seg.restrict(0.25, 0.75) == LineSegment(1.25 + 0.5j, 1.75 + 1.5j)
        assert seg.reversed() == LineSegment(2 + 2j, 1)
        with pytest.raises(ConfigError):
            LineSegment(1j, 1j)

    def test_arc_basics(self):
        seg = ArcSegment(1j, 2.0, 0.0, math.pi / 2)
        assert abs(seg.point(0) - (2 + 1j)) < 1e-15
        assert abs(seg.point(1) - 3j) < 1e-15
        assert abs(seg.length - math.pi) < 1e-15
        # velocity against finite differences
        h = 1e-6
        fd = (seg.point(0.4 + h) - seg.point(0.4 - h)) / (2 * h)
        assert abs(fd - seg.velocity(0.4)) < 1e-8
        rev = seg.reversed()
        assert abs(rev.point(0) - seg.point(1)) < 1e-15
        sub = seg.restrict(0.5, 1.0)
        assert abs(sub.point(0) - seg.point(0.5)) < 1e-15
        with pytest.raises(ConfigError):
            ArcSegment(0, -1.0, 0.0, 1.0)
        with pytest.raises(ConfigError):
            ArcSegment(0, 1.0, 0.3, 0.3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values(self, bad):
        with pytest.raises(ConfigError, match="line segment ends must be finite"):
            LineSegment(0, bad)
        with pytest.raises(ConfigError, match="line segment ends must be finite"):
            LineSegment(complex(1, bad), 0)
        for args in [(bad, 1.0, 0.0, 1.0), (0, bad, 0.0, 1.0), (0, 1.0, bad, 1.0), (0, 1.0, 0.0, bad)]:
            with pytest.raises(ConfigError, match="arc center, radius and angles must be finite"):
                ArcSegment(*args)


class TestPath:
    def test_chaining_validation(self):
        a = LineSegment(0, 1)
        b = LineSegment(1, 1 + 1j)
        Path((a, b))
        with pytest.raises(EndpointMismatchError):
            Path((a, LineSegment(1.001, 2)))
        with pytest.raises(ConfigError, match="at least one segment"):
            Path(())

    def test_global_parametrization(self):
        # quarter arc of length pi/2 then a line of length 1
        arc = ArcSegment(0, 1.0, 0.0, math.pi / 2)
        seg = LineSegment(1j, 2j)
        p = Path((arc, seg))
        assert abs(p.length - (math.pi / 2 + 1)) < 1e-15
        assert p.point(0) == arc.point(0)
        assert abs(p.point(1) - 2j) < 1e-15
        # junction sits at arclength fraction (pi/2)/(pi/2+1)
        tj = (math.pi / 2) / p.length
        assert abs(p.point(tj) - 1j) < 1e-12
        # global velocity: finite difference inside each segment
        for t in (0.2, 0.9):
            h = 1e-6
            fd = (p.point(t + h) - p.point(t - h)) / (2 * h)
            assert abs(fd - p.velocity(t)) < 1e-7
        with pytest.raises(ConfigError):
            p.point(1.5)

    def test_directions(self):
        p = line_path(0, 1 + 1j)
        d = (1 + 1j) / abs(1 + 1j)
        assert abs(p.start_direction() - d) < 1e-15
        assert abs(p.end_direction() - d) < 1e-15

    def test_reg_flags_need_lines(self):
        arc = ArcSegment(0, 1.0, 0.0, 1.0)
        with pytest.raises(ConfigError):
            Path((arc,), reg_start=0)
        with pytest.raises(ConfigError):
            Path((arc,), reg_end=0)
        p = line_path(0, 1, reg_start=0)
        assert p.reg_start == 0 and p.reg_end is None


class TestComposeReverse:
    def test_compose(self):
        p1 = line_path(0, 1)
        p2 = line_path(1, 1 + 1j)
        p = compose(p1, p2)
        assert len(p.segments) == 2 and p.end == 1 + 1j
        with pytest.raises(EndpointMismatchError):
            compose(p1, line_path(2, 3))

    def test_compose_keeps_outer_flags(self):
        p1 = line_path(0, 1, reg_start=0)
        p2 = line_path(1, 2, reg_end=1)
        p = compose(p1, p2)
        assert p.reg_start == 0 and p.reg_end == 1

    def test_compose_rejects_reg_junction(self):
        with pytest.raises(ConfigError):
            compose(line_path(0, 1, reg_end=1), line_path(1, 2))
        with pytest.raises(ConfigError):
            compose(line_path(0, 1), line_path(1, 2, reg_start=1))

    def test_reverse(self):
        arc = ArcSegment(0, 1.0, 0.0, math.pi / 2)
        p = Path((LineSegment(2, 1), arc), reg_start=3)
        r = reverse(p)
        assert r.reg_end == 3 and r.reg_start is None
        for t in (0.0, 0.3, 0.7, 1.0):
            assert abs(r.point(t) - p.point(1 - t)) < 1e-12


class TestLoops:
    def test_winding_matches_oracle(self):
        s = SurfaceConfig(0, (0, 1))
        for w in (2, -2, 1):
            loop = loop_around(LoopSpec(0, w, basepoint=0.4 + 0.1j), s)
            assert abs(loop.start - (0.4 + 0.1j)) < 1e-15
            assert loop.start == loop.end
            pts = [loop.point(t) for t in np.linspace(0, 1, 4001)]
            assert abs(winding_number(pts, 0) - w) < 1e-9

    def test_zero_winding_is_out_and_back(self):
        s = SurfaceConfig(0, (0, 1))
        loop = loop_around(LoopSpec(0, 0, basepoint=0.5), s)
        assert all(isinstance(seg, LineSegment) for seg in loop.segments)
        pts = [loop.point(t) for t in np.linspace(0, 1, 801)]
        assert abs(winding_number(pts, 0)) < 1e-9

    def test_radius_validation(self):
        s = SurfaceConfig(0, (0, 1))
        with pytest.raises(ConfigError):
            loop_around(LoopSpec(0, 1, basepoint=0.5, radius=2.0), s)  # hits P_1
        with pytest.raises(ConfigError):
            loop_around(LoopSpec(0, 1, basepoint=0.1, radius=0.3), s)  # base inside
        with pytest.raises(ConfigError):
            loop_around(LoopSpec(0, 1, basepoint=0), s)
        with pytest.raises(ConfigError):
            loop_around(LoopSpec(5, 1, basepoint=0.5), s)
        with pytest.raises(ConfigError, match="radius must be positive"):
            loop_around(LoopSpec(0, 1, basepoint=0.5, radius=-0.1), s)

    @pytest.mark.parametrize("winding", [0, 1])
    def test_non_finite_basepoint(self, winding):
        # the loop's own segments reject it
        s = SurfaceConfig(0, (0, 1))
        with pytest.raises(ConfigError, match="must be finite"):
            loop_around(LoopSpec(0, winding, basepoint=complex(math.nan, 0.1)), s)

    def test_default_radius_lattice_aware(self):
        # lone puncture on a torus: nearest pole copies are one cell away
        s = SurfaceConfig(1, (0,), tau=0.3 + 0.8j)
        loop = loop_around(LoopSpec(0, 1, basepoint=0.35), s)
        arc = loop.segments[1]
        assert isinstance(arc, ArcSegment)
        assert arc.radius < min(abs(0.3 + 0.8j), 1.0)
        # the shortest period of Z + (2.5+0.3i)Z is tau - 2, of length 0.583,
        # outside a 3x3 neighbourhood of 0 in the basis (1, tau)
        s = SurfaceConfig(1, (0,), tau=2.5 + 0.3j)
        with pytest.raises(ConfigError, match="clearance 0.583"):
            loop_around(LoopSpec(0, 1, basepoint=0.95, radius=0.9), s)
        loop = loop_around(LoopSpec(0, 1, basepoint=0.95), s)
        assert loop.segments[1].radius < abs(0.5 + 0.3j)


class TestLogVariation:
    def test_line_principal(self):
        p = line_path(1, 1 + 1j)
        assert abs(log_variation(p, 0) - cmath.log(1 + 1j)) < 1e-14

    def test_half_turn(self):
        p = Path((ArcSegment(0, 1.0, 0.0, math.pi),))
        v = log_variation(p, 0)
        assert abs(v - 1j * math.pi) < 1e-14

    def test_full_loops(self):
        s = SurfaceConfig(0, (0.3, 5))
        for w in (2, -1):
            loop = loop_around(LoopSpec(0, w, basepoint=1.0), s)
            v = log_variation(loop, 0.3)
            assert abs(v - 2j * math.pi * w) < 1e-12

    def test_from_pole_is_real_log(self):
        z = 0.6 * cmath.exp(0.7j)
        p = line_path(0, z)
        v = log_variation(p, 0)
        assert abs(v - math.log(0.6)) < 1e-14

    def test_into_pole(self):
        p = line_path(0.25, 1j * 0)  # shorthand: 0.25 -> 0
        v = log_variation(line_path(0.25, 0), 0)
        assert abs(v - (-math.log(0.25))) < 1e-14

    def test_angle_continues_past_detour(self):
        # straight out of the pole, then a quarter turn
        out = LineSegment(0, 1)
        arc = ArcSegment(0, 1.0, 0.0, math.pi / 2)
        v = log_variation(Path((out, arc)), 0)
        assert abs(v - 1j * math.pi / 2) < 1e-14

    def test_interior_contact_raises(self):
        with pytest.raises(PoleProximityError):
            log_variation(line_path(-1, 1), 0)
        mid = Path((LineSegment(1, 0), LineSegment(0, 1j)))
        with pytest.raises(PoleProximityError):
            log_variation(mid, 0)

    def test_arc_touching_pole_rejected(self):
        arc = ArcSegment(0, 1.0, 0.0, math.pi / 2)
        with pytest.raises(ConfigError):
            log_variation(Path((arc,)), arc.point(0))

    def test_closed_arc_on_pole_raises(self):
        # a full turn whose two ends round to the same point, the pole
        arc = ArcSegment(8 + 8j, 1.0, 0.0, 2 * math.pi)
        assert arc.point(0.0) == arc.point(1.0)
        with pytest.raises(PoleProximityError, match="both starts and ends"):
            log_variation(Path((arc,)), arc.point(0.0))


class TestSerialization:
    def test_roundtrip(self):
        arc = ArcSegment(0, 0.5, 0.1, -2.2)
        p = Path(
            (LineSegment(1 + 1j, arc.point(0)), arc, LineSegment(arc.point(1), 0.7)),
            reg_end=2,
        )
        data = json.loads(json.dumps(path_to_json(p)))
        assert path_from_json(data) == p

    def test_reg_flags_roundtrip(self):
        p = line_path(0, 1, reg_start=1)
        assert path_from_json(path_to_json(p)) == p

    def test_bad_segment(self):
        with pytest.raises(ConfigError):
            segment_from_json({"type": "spline"})
        with pytest.raises(ConfigError):
            path_from_json({})
        data = path_to_json(line_path(0, 1))
        for end, bad in (("reg_start", 0.0), ("reg_end", True), ("reg_start", "1")):
            with pytest.raises(ConfigError, match=f"{end} must be an integer"):
                path_from_json({**data, end: bad})
