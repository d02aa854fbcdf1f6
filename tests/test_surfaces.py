"""Theta functions, form bases, structure constants, Fay identity."""

import cmath
import json
import math
import random

import mpmath
import numpy as np
import pytest

from iterint.errors import (
    ConfigError,
    DecompositionUnavailableError,
    PoleProximityError,
)
from iterint.paths import ArcSegment, LineSegment
from iterint.surfaces import (
    FormBasis,
    FormSpec,
    SurfaceConfig,
    ThetaParams,
    basis_from_json,
    basis_to_json,
    complex_from_json,
    complex_to_json,
    _copies_inside,
    _form_values,
    _segment_distances,
    d2log_theta,
    dlog_theta,
    eval_form,
    fay_residual,
    form_from_json,
    lattice_distance,
    structure_constants,
    theta11,
    theta_c,
)
from iterint.variation import random_torus_basis

TAUS = (1j, 0.5 + 1j)


def mp_theta(z, tau, dps=30):
    """Independent reference: theta11(z) = -jtheta1(pi z, q), q = exp(pi i tau).
    jtheta1 carries mpmath's principal q^(1/4), which differs from theta11's
    exp(pi i tau/4) by a power of i once |Re tau| >= 1; the factor undoes it."""
    with mpmath.workdps(dps):
        tau = mpmath.mpc(tau)
        q = mpmath.exp(1j * mpmath.pi * tau)
        branch = mpmath.exp(1j * mpmath.pi * tau / 4) / mpmath.power(q, 0.25)
        return -complex(branch * mpmath.jtheta(1, mpmath.pi * mpmath.mpc(z), q))


def mp_log_derivatives(z, tau, dps=30):
    """(dlog theta11, d2log theta11) at z from mpmath's jtheta derivatives."""
    with mpmath.workdps(dps):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        u = mpmath.pi * mpmath.mpc(z)
        t0, t1, t2 = (mpmath.jtheta(1, u, q, r) for r in range(3))
        r1 = t1 / t0
        return complex(mpmath.pi * r1), complex(mpmath.pi ** 2 * (t2 / t0 - r1 * r1))


class TestTheta:
    def test_matches_reference_series(self):
        for tau in TAUS:
            p = ThetaParams(tau)
            for z in (0.31 + 0.17j, -0.2 + 0.05j, 0.45, 1.7 - 2.3j):
                ref = mp_theta(z, tau)
                assert abs(theta11(z, p) - ref) < 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("tau", (0.15j, 0.05j, 0.45 + 0.05j, 2.5 + 0.3j, -1.7 + 0.04j))
    def test_matches_reference_at_reduced_tau(self, tau):
        # a != 1 at each modulus, so the sum runs at t != tau and the factor
        # K exp(-pi i c z^2/a) of the modular transformation is what is pinned.
        # z/a lies cells away from 0 in the basis (1, t) at 0.8-0.6i
        p = ThetaParams(tau)
        assert p.a != 1
        for z in (0.31 + 0.17j, -0.2 + 0.05j, 0.45, 0.8 - 0.6j):
            ref = mp_theta(z, tau)
            assert abs(theta11(z, p) - ref) <= 1e-13 * abs(ref), z

    def test_frozen_value(self):
        p = ThetaParams(1j)
        assert abs(theta11(0.25, p) - (-0.64358976403858588409)) < 1e-15

    def test_odd_and_vanishing(self):
        p = ThetaParams(0.5 + 1j)
        z = 0.13 - 0.21j
        assert abs(theta11(z, p) + theta11(-z, p)) < 1e-15
        assert abs(theta11(0.0, p)) < 1e-15

    def test_quasi_periodicity(self):
        z = 0.31 + 0.17j
        for tau in TAUS:
            p = ThetaParams(tau)
            assert abs(theta11(z + 1, p) + theta11(z, p)) < 1e-13
            factor = -cmath.exp(-1j * math.pi * tau - 2j * math.pi * z)
            shifted = factor * theta11(z, p)
            assert abs(theta11(z + tau, p) - shifted) < 1e-13 * abs(shifted)
            # far cell: reduction, not raw summation, must carry the factor
            far = z + 3 - 2 * tau
            ref = mp_theta(far, tau)
            assert abs(theta11(far, p) - ref) < 1e-13 * abs(ref)

    def test_dlog_shifts(self):
        z = 0.23 + 0.11j
        for tau in TAUS:
            p = ThetaParams(tau)
            assert abs(dlog_theta(z + 1, p) - dlog_theta(z, p)) < 1e-12
            assert abs(dlog_theta(z + tau, p) - dlog_theta(z, p) + 2j * math.pi) < 1e-12
            assert abs(d2log_theta(z + tau, p) - d2log_theta(z, p)) < 1e-11
            assert abs(d2log_theta(z + 1, p) - d2log_theta(z, p)) < 1e-11

    def test_dlog_frozen_value(self):
        p = ThetaParams(0.5 + 1j)
        want = 1.4286429542675111949 - 2.0097742845069425779j
        assert abs(dlog_theta(0.31 + 0.17j, p) - want) < 1e-13

    def test_residue_one_at_lattice_points(self):
        # eps * (theta'/theta)(P + eps) -> 1 from four directions, at 0 and
        # 1+tau.  At the shifted point the -2*pi*i branch term contributes an
        # exact 2*pi*eps to the probe, so only O(eps) accuracy is available.
        for tau in TAUS:
            p = ThetaParams(tau)
            for base, tol in ((0.0, 1e-8), (1 + tau, 1e-4)):
                for direction in (1, -1, 1j, 0.5 + 0.5j):
                    eps = 1e-5 * direction / abs(direction)
                    probe = eps * dlog_theta(base + eps, p)
                    assert abs(probe - 1) < tol

    @pytest.mark.parametrize(
        "tau", (1j, 0.5 + 1j, 3 + 0.5j, -3 + 1.5j, 2.2 + 0.7j, -1.4 + 1.1j, 0.8 + 0.5j)
    )
    def test_log_derivatives_match_mpmath(self, tau):
        # |Re tau| up to 3 and Im tau in [0.5, 1.5], at points several cells out
        rng = np.random.default_rng(11)
        p = ThetaParams(tau)
        for _ in range(12):
            z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            if lattice_distance(z, tau) < 0.05:
                continue
            want1, want2 = mp_log_derivatives(z, tau)
            assert abs(dlog_theta(z, p) - want1) < 1e-13 * max(1.0, abs(want1))
            assert abs(d2log_theta(z, p) - want2) < 1e-12 * max(1.0, abs(want2))

    @pytest.mark.parametrize("tau", (1j, 0.5 + 1j, -2.5 + 0.6j, 0.15j))
    def test_array_call_matches_points(self, tau):
        rng = np.random.default_rng(2)
        p = ThetaParams(tau)
        z = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
        z[:2] = (0.004 + 0.003j, -0.002j)  # near the pole at 0
        for f, modulus in (
            (theta11, p),
            (dlog_theta, p),
            (d2log_theta, p),
            (lattice_distance, tau),
        ):
            got = f(z, modulus)
            want = np.array([f(x, modulus) for x in z])
            assert got.shape == z.shape
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), f.__name__

    def test_d2log_is_derivative_of_dlog(self):
        p = ThetaParams(1j)
        z = 0.17 + 0.29j
        h = 1e-6
        fd = (dlog_theta(z + h, p) - dlog_theta(z - h, p)) / (2 * h)
        assert abs(fd - d2log_theta(z, p)) < 1e-7

    def test_theta_c(self):
        # square lattice: theta'''(0)/theta'(0) = -3*pi
        assert abs(theta_c(ThetaParams(1j)) + 3 * math.pi) < 1e-12
        # a != 1 from 0.3+0.92i on: there the term -6 pi i c/a is pinned too
        for tau in TAUS + (0.3 + 0.92j, 0.15j, 0.45 + 0.05j):
            with mpmath.workdps(30):
                q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
                ref = complex(
                    mpmath.pi ** 2
                    * mpmath.jtheta(1, 0, q, derivative=3)
                    / mpmath.jtheta(1, 0, q, derivative=1)
                )
            assert abs(theta_c(ThetaParams(tau)) - ref) < 1e-14 * abs(ref), tau

    def test_pole_guard(self):
        p = ThetaParams(1j)
        with pytest.raises(PoleProximityError):
            dlog_theta(1 + 1j + 1e-15, p)
        with pytest.raises(ConfigError):
            ThetaParams(0.5)  # real modulus

    @pytest.mark.parametrize(
        "tau", (1j, 0.3j, 0.15j, 0.1j, 0.07j, 0.05j, 0.45 + 0.05j, 0.4 + 0.8j)
    )
    def test_dlog_near_pole_matches_mpmath(self, tau):
        # relative accuracy up to the pole: the paired sines carry no O(1)
        # terms that cancel where theta is O(w), and the sum runs at the
        # reduced modulus, so its conditioning does not grow as Im(tau) shrinks
        p = ThetaParams(tau)
        for r in (1e-6, 1e-4, 1e-2):
            for direction in (1, 1j, -1, cmath.exp(0.7j), cmath.exp(-2.1j), cmath.exp(2.9j)):
                w = r * direction
                want = mp_log_derivatives(w, tau, dps=40)[0]
                assert abs(dlog_theta(w, p) - want) <= 1e-14 * abs(want), w

    @pytest.mark.parametrize(
        "tau", (1j, 0.5 + 1j, 0.3 + 0.92j, 0.15j, 0.05j, 0.45 + 0.05j, -1.7 + 0.04j)
    )
    def test_dlog_modular_transformations(self, tau):
        # dlog theta(z|tau) = dlog theta(z|tau+1)
        #                   = dlog theta(z/tau | -1/tau)/tau - 2 pi i z/tau,
        # at moduli inside and outside the fundamental domain
        rng = np.random.default_rng(13)
        p, shifted, inverted = ThetaParams(tau), ThetaParams(tau + 1), ThetaParams(-1 / tau)
        z = rng.uniform(-1, 1, 60) + 1j * rng.uniform(-1, 1, 60)
        z = z[lattice_distance(z, tau) > 0.05 * abs(tau)]
        want = dlog_theta(z, p)
        assert np.all(np.abs(dlog_theta(z, shifted) - want) <= 1e-13 * np.abs(want))
        got = dlog_theta(z / tau, inverted) / tau - 2j * math.pi * z / tau
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_large_im_tau(self):
        # the sines stay finite: the truncation shrinks where Im(tau) is large
        for tau in (40j, 100j, 0.3 + 300j):
            p = ThetaParams(tau)
            z = 0.3 + 0.4 * tau
            want1, want2 = mp_log_derivatives(z, tau)
            assert abs(dlog_theta(z, p) - want1) < 1e-13 * max(1.0, abs(want1))
            assert abs(d2log_theta(z, p) - want2) < 1e-12 * max(1.0, abs(want2))
        with pytest.raises(ConfigError, match="too large"):
            ThetaParams(1000j)


class TestSurfaceConfig:
    def test_genus0_validation(self):
        SurfaceConfig(0, (0, 1, 1j))
        with pytest.raises(ConfigError):
            SurfaceConfig(0, (0, 1, 0))
        with pytest.raises(ConfigError):
            SurfaceConfig(0, (0, 1), tau=1j)
        with pytest.raises(ConfigError):
            SurfaceConfig(2, (0, 1))
        with pytest.raises(ConfigError):
            SurfaceConfig(0, ())

    def test_genus1_validation(self):
        SurfaceConfig(1, (0, 0.3), tau=1j)
        with pytest.raises(ConfigError):
            SurfaceConfig(1, (0, 0.3))
        with pytest.raises(ConfigError):
            SurfaceConfig(1, (0, 0.3), tau=0.5 - 1j)
        with pytest.raises(ConfigError):
            # distinct in C but equal mod lattice
            SurfaceConfig(1, (0.1, 1.1 + 1j), tau=1j)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, math.nan)])
    @pytest.mark.parametrize("genus", [0, 1])
    def test_non_finite_values(self, genus, bad):
        # json reads NaN and Infinity; a non-finite puncture or guard is a
        # configuration error, not a quadrature that stalls or a guard that
        # is silently off
        tau = 1j if genus else None
        with pytest.raises(ConfigError, match="punctures must be finite"):
            SurfaceConfig(genus, (0, bad), tau=tau)
        if not isinstance(bad, complex):
            with pytest.raises(ConfigError, match="pole_guard must be positive and finite"):
                SurfaceConfig(genus, (0, 0.3), tau=tau, pole_guard=bad)

    def test_lattice_distance_skew(self):
        tau = 0.5 + 1j
        # 0.75 + 0.5j is nearer to tau than to 0 or 1
        assert abs(lattice_distance(0.75 + 0.5j, tau) - abs(0.75 + 0.5j - tau)) < 1e-15
        assert abs(lattice_distance(7 + 0.1 - 3 * tau, tau) - 0.1) < 1e-12

    @pytest.mark.parametrize(
        "tau", (1.7 + 1j, 0.5 + 0.3j, -2.2 + 0.6j, 1 / 7 + 0.001j, 0.3 + 0.001j, -2.5 + 0.004j)
    )
    def test_lattice_distance_exact(self, tau):
        # against the nearest point of every lattice row the box reaches, in
        # extended precision: thousands of rows at small Im(tau)
        rng = np.random.default_rng(4)
        z = rng.uniform(-3, 3, 500) + 1j * rng.uniform(-3, 3, 500)
        re, im = z.real.astype(np.longdouble), z.imag.astype(np.longdouble)
        brute = np.full(z.shape, np.inf, dtype=np.longdouble)
        reach = int(4 / tau.imag)
        for n in range(-reach, reach + 1):
            x = re - n * np.longdouble(tau.real)
            brute = np.minimum(brute, np.hypot(x - np.rint(x), im - n * np.longdouble(tau.imag)))
        assert np.all(np.abs(lattice_distance(z, tau) - brute) < 1e-13)
        # the nearest lattice point is 1, outside a fixed 3x3 neighbourhood of
        # the reduced point 0.81 - 0.51j - 3 + tau
        assert abs(lattice_distance(0.81 - 0.51j, 1.7 + 1j) - abs(-0.19 - 0.51j)) < 1e-15

    def test_lattice_distance_tiny_im_tau(self):
        # Z + 1e-12i Z is dense along the lines Re z in Z; three rows still suffice
        z = np.array([0.3 + 0.2j, -0.45 + 7j, 2.05 - 1j])
        assert np.allclose(lattice_distance(z, 1e-12j), [0.3, 0.45, 0.05], atol=1e-12)
        # 1e-12i reduces to t = 1e12i, past the theta series' overflow cap
        s = SurfaceConfig(1, (0, 0.5, 0.25 + 0.1j), tau=1e-12j)
        with pytest.raises(ConfigError, match="too large .* reduced modulus t"):
            FormBasis.genus1(s)
        with pytest.raises(ConfigError):
            lattice_distance(0.1, 0.5)

    @pytest.mark.parametrize(
        "tau", (0.3 + 0.04j, 0.37 + 0.001j, 1.7 + 1j, 2.5 + 0.3j, -0.45 + 0.6j)
    )
    def test_segment_distances_match_sweep(self, tau):
        # against the minimum of lattice_distance over 20 001 points of each
        # segment: the distance is 1-Lipschitz along the segment, so the exact
        # value lies within half a point spacing below the sweep
        rng = np.random.default_rng(8)
        s = SurfaceConfig(1, (0, 0.5 + 0.5 * tau, 0.21 + 0.6 * tau), tau=tau)
        ends = rng.uniform(-1, 1.5, (5, 2)) + 1j * rng.uniform(-1, 1.5, (5, 2))
        segs = [LineSegment(*e) for e in ends]
        for _ in range(5):
            centre = complex(*rng.uniform(-0.5, 1, 2))
            segs.append(ArcSegment(centre, rng.uniform(0.05, 0.8), *rng.uniform(-7, 7, 2)))
        for seg in segs:
            pts = seg.point(np.linspace(0.0, 1.0, 20001))
            sweep = np.array([lattice_distance(pts - p, tau).min() for p in s.punctures])
            exact = _segment_distances(s, seg)
            assert np.all(exact <= sweep + 1e-12)
            assert np.all(exact >= sweep - 0.5 * seg.length / 20000 - 1e-12)

    @pytest.mark.parametrize("tau", (1j, 0.3 + 0.04j, 2.5 + 0.3j, -0.45 + 0.6j, 0.15j))
    def test_copies_inside_match_brute_force(self, tau):
        # against every copy P + m + n*tau with |m| <= 40, |n| <= 80, far
        # more than the triangles can reach at these moduli
        rng = np.random.default_rng(5)
        s = SurfaceConfig(1, (0, 0.5 + 0.5 * tau, 0.21 + 0.6 * tau), tau=tau)
        m, n = np.meshgrid(np.arange(-40, 41), np.arange(-80, 81))
        copies = np.array(s.punctures)[:, None, None] + m + n * tau
        found = 0
        for _ in range(8):
            z = rng.uniform(-1, 1.5, 3) + 1j * rng.uniform(-1, 1.5, 3)
            sides = np.array([((z[k - 2] - z[k - 1]).conjugate() * (copies - z[k - 1])).imag
                              for k in range(3)])
            inside = (sides > 0).all(axis=0) | (sides < 0).all(axis=0)
            want = {
                (p, round(c.real, 9), round(c.imag, 9))
                for p, c in zip(np.nonzero(inside)[0], copies[inside])
            }
            got = {(p, round(c.real, 9), round(c.imag, 9)) for p, c in _copies_inside(s, z)}
            assert got == want
            found += len(want)
        assert found

    def test_copies_inside_sphere(self):
        s = SurfaceConfig(0, (0, 1, 2j))
        assert _copies_inside(s, (-1 - 1j, 1 + 3j, 2.5 - 1j)) == [(0, 0j), (1, 1 + 0j)]
        # punctures on an edge or at a corner are not strictly inside
        assert _copies_inside(s, (-1, 2, 0.5 + 2j)) == []

    def test_puncture_distances(self):
        s = SurfaceConfig(1, (0, 0.3 + 0.4j), tau=1j)
        z = 1.05 + 1j  # one cell over from 0
        assert abs(s.min_puncture_distance(z, exclude=(1,)) - 0.05) < 1e-12
        assert abs(s.min_puncture_distance(z) - 0.05) < 1e-12
        # nearest copy of 0.3+0.4j is the one at 1.3+1.4j
        want = abs(z - (1.3 + 1.4j))
        assert abs(s.min_puncture_distance(z, exclude=(0,)) - want) < 1e-12


class TestFormBasis:
    def test_genus0_default(self):
        s = SurfaceConfig(0, (0, 1, 1j))
        b = FormBasis.genus0(s)
        assert b.n_forms == 3
        assert [f.pole for f in b.forms] == [0, 1, 2]
        assert b.residue(1, 1) == 1 and b.residue(1, 0) == 0
        assert b.singular_forms_at(2) == [2]

    def test_genus1_pairings(self):
        s = SurfaceConfig(1, (0, 0.3, 0.4j, 0.2 + 0.5j), tau=1j)
        star = FormBasis.genus1(s)
        assert star.forms[0].kind == "dz"
        assert [(f.k1, f.k2) for f in star.forms[1:]] == [(1, 0), (2, 0), (3, 0)]
        chain = FormBasis.genus1(s, pairing="chain")
        assert [(f.k1, f.k2) for f in chain.forms[1:]] == [(0, 1), (1, 2), (2, 3)]
        assert star.residue(1, 1) == 1 and star.residue(1, 0) == -1
        assert 1 in star.singular_forms_at(0)
        with pytest.raises(ConfigError):
            FormBasis.genus1(s, pairing="ring")

    def test_dependent_residues_rejected(self):
        s = SurfaceConfig(1, (0, 0.3, 0.4j), tau=1j)
        with pytest.raises(ConfigError):
            FormBasis(s, (FormSpec.dz(), FormSpec.elliptic_log(1, 0), FormSpec.elliptic_log(0, 1)))

    def test_cyclic_pole_pairs_rejected(self):
        # three pairs on four punctures are dependent when they close a cycle
        # (e_1 - e_0 + e_2 - e_1 + e_0 - e_2 = 0), and independent otherwise
        s = SurfaceConfig(1, (0, 0.3, 0.4j, 0.2 + 0.5j), tau=1j)

        def basis(pairs):
            elliptic = tuple(FormSpec.elliptic_log(a, b) for a, b in pairs)
            return FormBasis(s, (FormSpec.dz(),) + elliptic)

        with pytest.raises(ConfigError, match="dependent residue vectors"):
            basis([(1, 0), (2, 1), (0, 2)])
        for pairs in ([(1, 0), (2, 0), (3, 0)], [(0, 1), (1, 2), (2, 3)], [(1, 0), (3, 2), (0, 2)]):
            assert [(f.k1, f.k2) for f in basis(pairs).forms[1:]] == pairs
        assert FormBasis.genus1(s).n_forms == FormBasis.genus1(s, pairing="chain").n_forms == 4
        drawn = random_torus_basis(random.Random(3), 1j)
        assert [(f.k1, f.k2) for f in drawn.forms[1:]] == [(1, 0), (3, 2), (0, 2)]

    def test_shape_validation(self):
        s0 = SurfaceConfig(0, (0, 1))
        with pytest.raises(ConfigError):
            FormBasis(s0, (FormSpec.genus0_log(0),))  # missing a pole
        with pytest.raises(ConfigError):
            FormBasis(s0, (FormSpec.genus0_log(0), FormSpec.genus0_log(0)))
        s1 = SurfaceConfig(1, (0, 0.3), tau=1j)
        with pytest.raises(ConfigError):
            FormBasis(s1, (FormSpec.elliptic_log(1, 0),))  # no dz first

    def test_completion_lookup(self):
        s = SurfaceConfig(1, (0, 0.31 + 0.12j, -0.22 + 0.41j, 0.11 - 0.27j), tau=1j)
        b = FormBasis(
            s,
            (
                FormSpec.dz(),
                FormSpec.elliptic_log(1, 0),
                FormSpec.elliptic_log(3, 2),
                FormSpec.elliptic_log(0, 2),
            ),
        )
        assert b.completion_index(1, 2) == (3, 1)   # wants (0,2): present directly
        assert b.completion_index(2, 1) == (3, -1)  # wants (2,0): present reversed
        sparse = FormBasis(
            s,
            (
                FormSpec.dz(),
                FormSpec.elliptic_log(1, 0),
                FormSpec.elliptic_log(3, 2),
                FormSpec.elliptic_log(1, 3),
            ),
        )
        assert sparse.completion_index(1, 2) is None  # (0,2) absent

    def test_form_spec_validation(self):
        with pytest.raises(ConfigError):
            FormSpec.elliptic_log(2, 2)
        with pytest.raises(ConfigError):
            FormSpec("genus0_log")
        with pytest.raises(ConfigError):
            FormSpec("whatever")


class TestEvalForm:
    def test_genus0_values(self):
        s = SurfaceConfig(0, (0, 1))
        b = FormBasis.genus0(s)
        z = 0.3 + 0.4j
        assert abs(eval_form(b, 0, z) - 1 / z) < 1e-15
        assert abs(eval_form(b, 1, z) - 1 / (z - 1)) < 1e-15

    def test_genus0_guard(self):
        s = SurfaceConfig(0, (0, 1), pole_guard=1e-3)
        b = FormBasis.genus0(s)
        with pytest.raises(PoleProximityError):
            eval_form(b, 0, 1e-4)
        assert abs(eval_form(b, 0, 1e-4, guard=1e-5) - 1e4) < 1e-6

    def test_genus1_values(self):
        s = SurfaceConfig(1, (0, 0.3 + 0.1j), tau=1j)
        b = FormBasis.genus1(s)
        z = 0.1 - 0.2j
        assert eval_form(b, 0, z) == 1.0
        # residues of the difference form
        for idx, sign in ((1, 1), (0, -1)):
            eps = 1e-6
            val = eval_form(b, 1, s.punctures[idx] + eps, guard=1e-8)
            assert abs(eps * val - sign) < 1e-4
        # elliptic: genuinely doubly periodic
        v = eval_form(b, 1, z)
        assert abs(eval_form(b, 1, z + 1) - v) < 1e-12
        assert abs(eval_form(b, 1, z + 1j) - v) < 1e-12

    def test_genus1_guard_is_lattice_aware(self):
        s = SurfaceConfig(1, (0, 0.3), tau=1j, pole_guard=1e-3)
        b = FormBasis.genus1(s)
        with pytest.raises(PoleProximityError):
            eval_form(b, 1, 2 + 3j + 1e-4)  # near puncture 0 shifted by 2+3tau

    def test_array_values_match_points(self):
        s = SurfaceConfig(1, (0.0, 0.45, 0.25 + 0.35j), tau=0.3 + 1.1j)
        b = FormBasis.genus1(s)
        z = np.linspace(-0.3, 0.9, 16) - 0.2j
        got = _form_values(b, (0, 1, 2), z)
        want = np.array([[eval_form(b, k, x) for x in z] for k in (0, 1, 2)])
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("translate", (0, -1 + 3 * (0.3 + 1.1j)))
    def test_node_array_guard_names_puncture(self, translate):
        s = SurfaceConfig(1, (0.0, 0.45, 0.25 + 0.35j), tau=0.3 + 1.1j)
        b = FormBasis.genus1(s)
        z = np.linspace(-0.3, 0.9, 16) - 0.2j
        z[7] = s.punctures[2] + translate + 1e-7j
        with pytest.raises(PoleProximityError, match="puncture 2"):
            _form_values(b, (0, 1, 2), z)
        # at the exempt puncture only the floor below which nothing is computed applies
        assert np.all(np.isfinite(_form_values(b, (0, 1, 2), z, exempt=2)))

    def test_label_range(self):
        b = FormBasis.genus0(SurfaceConfig(0, (0, 1)))
        with pytest.raises(ConfigError):
            eval_form(b, 2, 0.5)


def _interior_points(rng, surface, count, min_dist=0.05):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        if surface.min_puncture_distance(z) >= min_dist:
            pts.append(z)
    return pts


class TestStructureConstants:
    def test_genus0_exact(self):
        b = FormBasis.genus0(SurfaceConfig(0, (0, 1)))
        sc = structure_constants(b, 0, 1)
        assert sc.coefficients == {0: -1 + 0j, 1: 1 + 0j}
        sc = structure_constants(b, 1, 0)
        assert sc.coefficients == {1: 1 + 0j, 0: -1 + 0j}

    def test_genus0_residual(self):
        rng = np.random.default_rng(3)
        pts = (0.0, 1.0, 0.4 + 0.9j, -1.2 + 0.3j)
        s = SurfaceConfig(0, pts)
        b = FormBasis.genus0(s)
        for a, bb in ((0, 2), (3, 1), (2, 3)):
            sc = structure_constants(b, a, bb)
            assert abs(sc.coefficients[a] - 1 / (pts[a] - pts[bb])) < 1e-15
            for z in _interior_points(rng, s, 10):
                assert abs(sc.residual(b, z)) < 1e-12

    @pytest.mark.parametrize("tau", TAUS)
    def test_genus1_residual(self, tau):
        rng = np.random.default_rng(5)
        s = SurfaceConfig(1, (0.0, 0.31 + 0.12j, -0.22 + 0.41j, 0.11 - 0.27j), tau=tau)
        b = FormBasis(
            s,
            (
                FormSpec.dz(),
                FormSpec.elliptic_log(1, 0),
                FormSpec.elliptic_log(3, 2),
                FormSpec.elliptic_log(0, 2),
            ),
        )
        for a, bb in ((1, 2), (2, 1)):
            sc = structure_constants(b, a, bb)
            assert set(sc.coefficients) == {0, 1, 2, 3}
            for z in _interior_points(rng, s, 25):
                assert abs(sc.residual(b, z)) < 1e-11

    def test_dz_products_trivial(self):
        s = SurfaceConfig(1, (0.0, 0.3, 0.4j), tau=1j)
        b = FormBasis.genus1(s)
        assert structure_constants(b, 0, 2).coefficients == {2: 1 + 0j}
        assert structure_constants(b, 1, 0).coefficients == {1: 1 + 0j}

    def test_shared_pole_unsupported(self):
        s = SurfaceConfig(1, (0.0, 0.3, 0.4j), tau=1j)
        b = FormBasis.genus1(s)  # star: all pairs share puncture 0
        with pytest.raises(DecompositionUnavailableError):
            structure_constants(b, 1, 2)

    def test_missing_completion(self):
        s = SurfaceConfig(1, (0.0, 0.31 + 0.12j, -0.22 + 0.41j, 0.11 - 0.27j), tau=1j)
        b = FormBasis(
            s,
            (
                FormSpec.dz(),
                FormSpec.elliptic_log(1, 0),
                FormSpec.elliptic_log(3, 2),
                FormSpec.elliptic_log(1, 3),
            ),
        )
        with pytest.raises(DecompositionUnavailableError):
            structure_constants(b, 1, 2)

    def test_same_label_rejected(self):
        b = FormBasis.genus0(SurfaceConfig(0, (0, 1)))
        with pytest.raises(DecompositionUnavailableError):
            structure_constants(b, 1, 1)


class TestFayIdentity:
    @pytest.mark.parametrize("tau", TAUS)
    def test_residual_vanishes(self, tau):
        rng = np.random.default_rng(7)
        p = ThetaParams(tau)
        checked = 0
        while checked < 50:
            z, pi_, pj_ = (
                complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
                for _ in range(3)
            )
            if min(abs(z - pi_), abs(z - pj_), abs(pi_ - pj_)) < 0.05:
                continue
            assert abs(fay_residual(z, pi_, pj_, p)) < 1e-12
            checked += 1


class TestSerialization:
    def test_complex_pairs(self):
        assert complex_to_json(1 - 2j) == [1.0, -2.0]
        assert complex_from_json([1.0, -2.0]) == 1 - 2j
        assert complex_from_json(3) == 3 + 0j

    def test_genus0_roundtrip(self):
        b = FormBasis.genus0(SurfaceConfig(0, (0, 1, 1j)))
        data = json.loads(json.dumps(basis_to_json(b)))
        assert basis_from_json(data) == b

    def test_genus1_roundtrip(self):
        s = SurfaceConfig(1, (0.0, 0.31 + 0.12j, -0.22 + 0.41j, 0.11 - 0.27j), tau=0.5 + 1j)
        b = FormBasis(
            s,
            (
                FormSpec.dz(),
                FormSpec.elliptic_log(1, 0),
                FormSpec.elliptic_log(3, 2),
                FormSpec.elliptic_log(0, 2),
            ),
        )
        data = json.loads(json.dumps(basis_to_json(b)))
        assert basis_from_json(data) == b

    def test_default_forms_from_pairing(self):
        data = {
            "genus": 1,
            "punctures": [[0, 0], [0.3, 0], [0, 0.4]],
            "tau": [0, 1],
            "pairing": "chain",
        }
        b = basis_from_json(data)
        assert [(f.k1, f.k2) for f in b.forms[1:]] == [(0, 1), (1, 2)]

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            form_from_json({"kind": "poles"})
        with pytest.raises(ConfigError):
            basis_from_json({"genus": 0})
