"""Punctured spheres and tori, their logarithmic 1-form bases, and theta machinery.

Genus 0: the surface is the Riemann sphere minus the listed finite punctures
and the implicit puncture at infinity; the basis has one form 1/(z - P_k) per
finite puncture, residue +1 at its pole.

Genus 1: the surface is C/(Z + tau*Z) minus the listed punctures (given as
representatives in C).  The basis is dz plus n-1 difference forms
dlog theta(z - P_k1) - dlog theta(z - P_k2) with residue +1 at P_k1 and -1 at
P_k2, built from the odd Jacobi theta function

    theta11(z|tau) = sum_n exp(pi*i*(n+1/2)^2*tau + 2*pi*i*(n+1/2)*(z+1/2))
                   = -2 sum_{n>=0} (-1)^n q^((n+1/2)^2) sin((2n+1)*pi*z),  q = exp(pi*i*tau),

the second line pairing the terms n and -1-n of the first.  Every sine is
O(z) where theta11 is, so theta11'/theta11 keeps its relative accuracy up to
the pole and needs no separate treatment there.

The sum only ever runs at the reduced modulus t of ``_lattice_basis``, where
Z + tau*Z = a*(Z + t*Z) and Im t >= sqrt(3)/2, over a fixed 7 pairs; theta11's
modular transformation (DLMF 20.7(viii)) carries each value back to tau.  So
the sum's conditioning does not grow as Im(tau) shrinks.  Every tau whose
reduced Im t is at most 382 is supported; the others lie close to a cusp
(tau = iy with y < 1/382, say) and raise ConfigError.

Every genus-1 value reads from one array evaluator: ``_reduce`` in the basis
(1, t), exact ``lattice_distance``, ``_theta_derivatives`` (the paired sum)
and ``_log_theta``.
Every question of which lattice copy of a puncture is near, at a point or
along a segment, is answered here from the reduced basis ``_lattice_basis``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DecompositionUnavailableError,
    PoleProximityError,
    _int_field,
)
from .paths import Segment, segment_min_distance
from .words import FormLabel

TWO_PI_I = 2j * math.pi


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(data) -> complex:
    if isinstance(data, (int, float)):
        return complex(data)
    re, im = data
    return complex(float(re), float(im))


_PAIRS = 7
_THETA_GUARD = 1e-13
_THETA_CACHE_SIZE = 64


@dataclass(frozen=True)
class ThetaParams:
    """Modulus tau of theta11 and the reduced modulus its sums run at.

    Every theta quantity is summed at t from ``_lattice_basis``, where
    Z + tau*Z = a*(Z + t*Z), a = c*tau + d and Im t >= sqrt(3)/2, and read
    back through theta11's modular transformation (DLMF 20.7(viii)):
    theta11(z|tau) = K exp(-pi*i*c*z^2/a) theta11(z/a|t).

    ``truncation`` is the number N of sine pairs (n = 0..N-1), 7 wherever
    Im t <= 29.4.  For arguments reduced to the fundamental cell pair n is
    below exp(-pi*Im(t)*((n+1/2)^2 - (n+1/2))), under 1e-57 from n = 7 on.
    The last sine grows to exp((2N-1)*pi*Im(t)/2), kept below exp(600) so
    that none overflows; that cap shrinks N for Im t > 29.4, where every
    term it drops is below exp(-81), and rejects Im t > 382: tau close to a
    cusp, such as 1e-12i, which reduces to t = 1e12i.
    """

    tau: complex
    a: complex = field(init=False)
    t: complex = field(init=False)
    c: int = field(init=False)
    truncation: int = field(init=False)

    def __post_init__(self) -> None:
        tau = complex(self.tau)
        a, t = _lattice_basis(tau)
        most = int((1200.0 / (math.pi * t.imag) + 1.0) / 2.0)
        if most < 1:
            raise ConfigError(
                f"Im(t) too large for reliable theta series at the reduced modulus "
                f"t = {t} of tau = {tau}"
            )
        derived = (tau, a, t, round(a.imag / tau.imag), min(_PAIRS, most))
        for name, value in zip(("tau", "a", "t", "c", "truncation"), derived):
            object.__setattr__(self, name, value)


@lru_cache(maxsize=_THETA_CACHE_SIZE)
def _pair_terms(p: ThetaParams) -> tuple[np.ndarray, np.ndarray]:
    """(k, c) with theta11^(d)(u|t) = sum_n c[d, n] * (sin, cos)[d % 2](k_n u)
    for d = 0..3: k_n = (2n+1) pi and c[d] = (-1)^(d//2) k^d w, where
    w_n = -2 (-1)^n q^((n+1/2)^2), q = exp(pi*i*t), n = 0..truncation-1."""
    n = np.arange(p.truncation)
    k = (2 * n + 1) * math.pi
    w = -2.0 * (-1.0) ** n * np.exp(1j * math.pi * p.t * (n + 0.5) ** 2)
    c = np.array([w, w * k, -w * k * k, -w * k * k * k])
    k.flags.writeable = c.flags.writeable = False  # shared by every caller
    return k, c


def _dedekind_sum(d: int, c: int) -> Fraction:
    """s(d, c) for coprime c > 0, by reciprocity:
    s(d, c) + s(c, d) = (d/c + c/d + 1/(c*d))/12 - 1/4."""
    total, sign, d = Fraction(0), 1, d % c
    while d:
        total += sign * (Fraction(d * d + c * c + 1, 12 * c * d) - Fraction(1, 4))
        sign, c, d = -sign, d, c % d
    return total


def _modular_factor(p: ThetaParams) -> complex:
    """K in theta11(z|tau) = K exp(-pi*i*c*z^2/a) theta11(z/a|t): with
    [[alpha, beta], [c, d]] taking tau to t, K = exp(-pi*i*beta/4) for c = 0
    and K = a / (eps^3 (-i*a)^(3/2)) for c > 0, where
    eps = exp(pi*i*((alpha + d)/(12c) - s(d, c))) is Dedekind eta's multiplier."""
    tau, a, t, c = p.tau, p.a, p.t, p.c
    alpha = round((t * a).imag / tau.imag)
    beta = round((t * a - alpha * tau).real)
    if c == 0:
        return cmath.exp(-0.25j * math.pi * beta)
    d = round((a - c * tau).real)
    phase = 3 * (Fraction(alpha + d, 12 * c) - _dedekind_sum(d, c)) % 2
    return a / (cmath.exp(1j * math.pi * float(phase)) * (-1j * a) ** 1.5)


def _like(z, values: np.ndarray):
    """``values`` in the shape of ``z``, or a Python number for a scalar z."""
    if np.ndim(z) == 0:
        return values.item()
    return values.reshape(np.shape(z))


@lru_cache(maxsize=_THETA_CACHE_SIZE)
def _lattice_basis(tau: complex) -> tuple[complex, complex]:
    """(a, t) with Z + tau*Z = a*(Z + t*Z), |Re t| <= 1/2 and |t| >= 1
    (Lagrange's reduction), so Im t >= sqrt(3)/2 at every tau.  The 1e-9
    margin keeps rounding from flipping a tie |Re t| = 1/2 back and forth.

    t = (alpha*tau + beta)/(c*tau + d) and a = c*tau + d for some
    [[alpha, beta], [c, d]] in SL2(Z), signed so that c > 0, or c = 0 and
    d = 1 (then a = 1 and t = tau + beta)."""
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise ConfigError(f"lattice Z + tau*Z needs a finite tau with Im(tau) > 0, got {tau}")
    a, b = 1 + 0j, tau
    while abs(b) < abs(a) or abs((b / a).real) > 0.5 + 1e-9:
        a, b = (b, a) if abs(b) < abs(a) else (a, b - round((b / a).real) * a)
    t = b / a if (b / a).imag > 0 else -b / a
    c = round(a.imag / tau.imag)
    return (-a if c < 0 or (c == 0 and a.real < 0) else a), t


def _reduce(u: np.ndarray, t: complex):
    """u = u0 + m + k*t elementwise, with u0 in the fundamental cell of
    Z + t*Z around 0."""
    k = np.rint(u.imag / t.imag)
    rest = u - k * t
    m = np.rint(rest.real)
    return rest - m, m, k


def _cell_distance(u0: np.ndarray, t: complex) -> np.ndarray:
    """Exact distance from the reduced u0 to Z + t*Z: the nearest lattice
    point lies in row -1, 0 or 1, at the nearest integer of that row."""
    near = u0[..., None] - np.array([-t, 0.0, t])
    return np.abs(near - np.rint(near.real)).min(axis=-1)


def lattice_distance(z, tau: complex):
    """Exact distance from z (a number or an array) to the lattice Z + tau*Z,
    read in the reduced basis a*(1, t)."""
    a, t = _lattice_basis(complex(tau))
    u0 = _reduce(np.asarray(z, dtype=complex) / a, t)[0]
    return _like(z, abs(a) * _cell_distance(u0, t))


def _copies_near(surface: "SurfaceConfig", c: complex, r: float) -> np.ndarray:
    """Copies of each puncture around c, one row per puncture, among them
    every copy within r of c and the nearest copy to any point within r of c.

    The copy at the nearest point of the nearest row of the reduced basis
    a*(1, t) is within d <= |a|*hypot(1, Im t)/2 of c, so the copies nearest
    to such a point lie within r + d of c.  A box of rows around c covers
    that disc; on a sphere each puncture is its only copy.
    """
    poles = np.array(surface.punctures)
    if surface.genus == 0:
        return poles[:, None, None]
    a, t = _lattice_basis(surface.tau)
    # in units of a: copies m + n*t of a puncture within r + d of w = (c - P)/a
    w = (c - poles) / a
    r = r / abs(a) + 0.5 * math.hypot(1.0, t.imag)
    kn, km = int(r / t.imag + 0.5), int(r + 0.5)
    n = np.rint(w.imag / t.imag)[:, None] + np.arange(-kn, kn + 1)
    m = np.rint((w[:, None] - n * t).real)[..., None] + np.arange(-km, km + 1)
    return poles[:, None, None] + a * (m + n[..., None] * t)


def _segment_distances(surface: "SurfaceConfig", seg: Segment) -> np.ndarray:
    """Exact distance from the segment (line or arc) to the nearest copy of
    each puncture, one entry per puncture: every point of the segment lies
    within half its length of its midpoint, which is on the segment."""
    copies = _copies_near(surface, seg.point(0.5), 0.5 * seg.length)
    return segment_min_distance(seg, copies).min(axis=(1, 2))


def _copies_inside(surface: "SurfaceConfig", corners) -> list[tuple[int, complex]]:
    """(puncture, copy) for every copy strictly inside the triangle with the
    given corners: strictly on the same side of all three edges."""
    z = np.array(corners, dtype=complex).reshape(3, 1, 1, 1)
    copies = _copies_near(surface, z.mean(), float(np.abs(z - z.mean()).max()))
    # the side of edge k (corner k to k + 1) a copy is on: Im(conj(edge) * (copy - corner))
    sides = ((np.roll(z, -1, axis=0) - z).conj() * (copies - z)).imag
    inside = (sides > 0).all(axis=0) | (sides < 0).all(axis=0)
    return [(int(p), complex(copies[p, i, k])) for p, i, k in zip(*np.nonzero(inside))]


def _theta_derivatives(z0: np.ndarray, p: ThetaParams, order: int) -> np.ndarray:
    """Rows 0..order (order <= 3): theta11( . |t) and its derivatives at the
    reduced 1-d z0, from one sine and one cosine over the (points x pairs)
    grid.  Each point sums its own terms, so no value depends on the others
    (a BLAS product's would)."""
    k, c = _pair_terms(p)
    x = z0[:, None] * k
    waves = (np.sin(x), np.cos(x))
    return np.array([(c[d] * waves[d % 2]).sum(axis=-1) for d in range(order + 1)])


def _check_poles(dist: np.ndarray, limits: np.ndarray, w: np.ndarray, names) -> None:
    """The one pole guard: raise PoleProximityError where the entry of row r
    of ``w`` lies within ``limits[r]`` of the pole ``names[r]``."""
    near = dist < limits[:, None]
    if near.any():
        r, c = np.argwhere(near)[0]
        raise PoleProximityError(f"within {limits[r]:.3g} of {names[r]} (offset {w[r, c]})")


def _log_theta(w: np.ndarray, p: ThetaParams, order: int = 1, guard=_THETA_GUARD, names=None):
    """Log-derivatives 1..order (order 1 or 2) of theta11 at every entry of
    the 2-d ``w``, one array each, behind the pole guard: ``guard`` is a
    number or one per row, ``names`` names each row's pole.

    With u = w/a = u0 + m + k*t, dlog theta(w|tau) is
    (dlog theta(u0|t) - 2*pi*i*k)/a - 2*pi*i*c*u, and d2log theta(w|tau) is
    d2log theta(u0|t)/a^2 - 2*pi*i*c/a."""
    limits = np.full(len(w), guard) if np.ndim(guard) == 0 else guard
    u = w / p.a
    u0, _, k = _reduce(u, p.t)
    dist = abs(p.a) * _cell_distance(u0, p.t)
    _check_poles(dist, limits, w, names or ["a lattice point"] * len(w))
    th = _theta_derivatives(u0.ravel(), p, order).reshape((order + 1,) + w.shape)
    ratio = th[1] / th[0]
    first = (ratio - TWO_PI_I * k) / p.a - TWO_PI_I * p.c * u
    if order == 1:
        return (first,)
    return first, (th[2] / th[0] - ratio * ratio) / p.a**2 - TWO_PI_I * p.c / p.a


def theta11(z, p: ThetaParams):
    """Odd Jacobi theta function with characteristic (1/2, 1/2)."""
    u = np.ravel(np.asarray(z, dtype=complex)) / p.a
    u0, m, k = _reduce(u, p.t)
    th = _theta_derivatives(u0, p, 0)[0]
    sign = np.where((m + k) % 2, -1.0, 1.0)
    gauss = np.exp(-1j * math.pi * (p.t * k * k + p.c * p.a * u * u) - TWO_PI_I * k * u0)
    return _like(z, _modular_factor(p) * sign * gauss * th)


def dlog_theta(z, p: ThetaParams):
    """theta11'/theta11.  Simple pole of residue 1 at every lattice point;
    periodic under z+1, drops 2*pi*i under z+tau."""
    return _like(z, _log_theta(np.asarray(z, dtype=complex).reshape(1, -1), p)[0][0])


def d2log_theta(z, p: ThetaParams):
    """Second log-derivative of theta11; doubly periodic."""
    return _like(z, _log_theta(np.asarray(z, dtype=complex).reshape(1, -1), p, 2)[1][0])


def theta_c(p: ThetaParams) -> complex:
    """theta11'''(0)/theta11'(0), the constant appearing in the Fay identity:
    theta_c(t)/a^2 - 6*pi*i*c/a at the reduced modulus."""
    c = _pair_terms(p)[1]
    return complex(c[3].sum() / c[1].sum() / p.a**2 - 3 * TWO_PI_I * p.c / p.a)


@dataclass(frozen=True)
class SurfaceConfig:
    """A punctured sphere (genus 0) or torus (genus 1).

    Genus 0 lists the finite punctures only; the point at infinity is an
    additional implicit puncture and carries no basis form.  Genus 1
    punctures are representatives in C of distinct points mod Z + tau*Z.
    """

    genus: int
    punctures: tuple[complex, ...]
    tau: complex | None = None
    pole_guard: float = 1e-6

    def __post_init__(self) -> None:
        if self.genus not in (0, 1):
            raise ConfigError(f"genus must be 0 or 1, got {self.genus}")
        pts = tuple(complex(p) for p in self.punctures)
        object.__setattr__(self, "punctures", pts)
        if not pts:
            raise ConfigError("need at least one puncture")
        if not all(map(cmath.isfinite, pts)):
            raise ConfigError(f"punctures must be finite, got {pts}")
        if not (math.isfinite(self.pole_guard) and self.pole_guard > 0):
            raise ConfigError(f"pole_guard must be positive and finite, got {self.pole_guard}")
        if self.genus == 0:
            if self.tau is not None:
                raise ConfigError("tau only applies to genus 1")
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if pts[i] == pts[j]:
                        raise ConfigError(f"punctures {i} and {j} coincide")
        else:
            if self.tau is None:
                raise ConfigError("genus 1 requires tau")
            tau = complex(self.tau)
            object.__setattr__(self, "tau", tau)
            if tau.imag <= 0:
                raise ConfigError("genus 1 requires Im(tau) > 0")
            i, j = np.triu_indices(len(pts), 1)
            close = lattice_distance(np.subtract.outer(pts, pts)[i, j], tau) < 1e-12
            if close.any():
                k = close.argmax()
                raise ConfigError(f"punctures {i[k]} and {j[k]} coincide modulo the lattice")

    @property
    def n_punctures(self) -> int:
        return len(self.punctures)

    def min_puncture_distance(self, z: complex, exclude: Iterable[int] = ()) -> float:
        """Distance from z to the nearest copy of any puncture not excluded."""
        skip = set(exclude)
        d = z - np.array([p for i, p in enumerate(self.punctures) if i not in skip], complex)
        dist = lattice_distance(d, self.tau) if self.genus == 1 else np.abs(d)
        return float(dist.min(initial=math.inf))


@dataclass(frozen=True)
class FormSpec:
    """One basis 1-form.

    kind "dz": the holomorphic form dz (genus 1 only).
    kind "genus0_log": dz/(z - P_pole).
    kind "elliptic_log": (dlog theta(z-P_k1) - dlog theta(z-P_k2)) dz.
    """

    kind: str
    pole: int | None = None
    k1: int | None = None
    k2: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "dz":
            if self.pole is not None or self.k1 is not None or self.k2 is not None:
                raise ConfigError("dz form carries no pole data")
        elif self.kind == "genus0_log":
            if self.pole is None or self.pole < 0:
                raise ConfigError("genus0_log needs a puncture index 'pole'")
        elif self.kind == "elliptic_log":
            if self.k1 is None or self.k2 is None:
                raise ConfigError("elliptic_log needs puncture indices k1, k2")
            if self.k1 == self.k2:
                raise ConfigError("elliptic_log pole indices must differ")
        else:
            raise ConfigError(f"unknown form kind {self.kind!r}")

    @classmethod
    def dz(cls) -> "FormSpec":
        return cls("dz")

    @classmethod
    def genus0_log(cls, pole: int) -> "FormSpec":
        return cls("genus0_log", pole=pole)

    @classmethod
    def elliptic_log(cls, k1: int, k2: int) -> "FormSpec":
        return cls("elliptic_log", k1=k1, k2=k2)

    def pole_indices(self) -> tuple[int, ...]:
        if self.kind == "genus0_log":
            return (self.pole,)
        if self.kind == "elliptic_log":
            return (self.k1, self.k2)
        return ()

    def residue_at(self, puncture: int) -> int:
        if self.kind == "genus0_log":
            return 1 if puncture == self.pole else 0
        if self.kind == "elliptic_log":
            if puncture == self.k1:
                return 1
            if puncture == self.k2:
                return -1
        return 0


@dataclass(frozen=True)
class FormBasis:
    """An ordered basis of logarithmic 1-forms on a punctured surface.
    ``theta`` is derived from the surface's tau (None at genus 0)."""

    surface: SurfaceConfig
    forms: tuple[FormSpec, ...]
    theta: ThetaParams | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        forms = tuple(self.forms)
        object.__setattr__(self, "forms", forms)
        s = self.surface
        n = s.n_punctures
        if s.genus == 0:
            if any(f.kind != "genus0_log" for f in forms):
                raise ConfigError("genus 0 basis must consist of genus0_log forms")
            if len(forms) != n:
                raise ConfigError(
                    f"genus 0 basis needs one form per finite puncture ({n}), got {len(forms)}"
                )
            poles = [f.pole for f in forms]
            if any(p >= n for p in poles) or len(set(poles)) != len(poles):
                raise ConfigError("genus 0 poles must be distinct valid puncture indices")
        else:
            if not forms or forms[0].kind != "dz":
                raise ConfigError("genus 1 basis must start with the dz form")
            rest = forms[1:]
            if any(f.kind != "elliptic_log" for f in rest):
                raise ConfigError("genus 1 basis forms after dz must be elliptic_log")
            if len(rest) != n - 1:
                raise ConfigError(
                    f"genus 1 basis needs {n - 1} elliptic forms for {n} punctures, got {len(rest)}"
                )
            for f in rest:
                if not (0 <= f.k1 < n and 0 <= f.k2 < n):
                    raise ConfigError(f"form pole indices {f.k1},{f.k2} out of range")
            # the residue vectors e_k1 - e_k2 are independent exactly when the
            # pole pairs, as edges between punctures, close no cycle
            root = list(range(n))

            def find(a: int) -> int:
                while root[a] != a:
                    a = root[a]
                return a

            for f in rest:
                a, b = find(f.k1), find(f.k2)
                if a == b:
                    raise ConfigError("elliptic forms have dependent residue vectors")
                root[a] = b
            object.__setattr__(self, "theta", ThetaParams(s.tau))

    @classmethod
    def genus0(cls, surface: SurfaceConfig) -> "FormBasis":
        return cls(surface, tuple(FormSpec.genus0_log(k) for k in range(surface.n_punctures)))

    @classmethod
    def genus1(cls, surface: SurfaceConfig, pairing: str = "star") -> "FormBasis":
        n = surface.n_punctures
        if pairing == "star":
            pairs = [(k, 0) for k in range(1, n)]
        elif pairing == "chain":
            pairs = [(k - 1, k) for k in range(1, n)]
        else:
            raise ConfigError(f"unknown pairing rule {pairing!r}")
        forms = (FormSpec.dz(),) + tuple(FormSpec.elliptic_log(a, b) for a, b in pairs)
        return cls(surface, forms)

    @property
    def n_forms(self) -> int:
        return len(self.forms)

    def residue(self, k: FormLabel, puncture: int) -> int:
        return self.forms[k].residue_at(puncture)

    def singular_forms_at(self, puncture: int) -> list[FormLabel]:
        return [k for k, f in enumerate(self.forms) if puncture in f.pole_indices()]

    def completion_index(self, a: FormLabel, b: FormLabel) -> tuple[FormLabel, int] | None:
        """Label whose form equals dlog theta(z-P_a2) - dlog theta(z-P_b2),
        together with an orientation sign; None when absent from the basis."""
        fa, fb = self.forms[a], self.forms[b]
        want = (fa.k2, fb.k2)
        for k, f in enumerate(self.forms):
            if f.kind != "elliptic_log":
                continue
            if (f.k1, f.k2) == want:
                return k, 1
            if (f.k1, f.k2) == (want[1], want[0]):
                return k, -1
        return None


def _form_values(
    basis: FormBasis,
    labels: Sequence[FormLabel],
    z: np.ndarray,
    guard: float | None = None,
    exempt: int | None = None,
) -> np.ndarray:
    """f_k at the points z (1-d), one row per label k.  Each puncture's pole
    term, 1/(z - P) or dlog theta11(z - P), is computed once for all points.
    A point within ``guard`` (default pole_guard) of a pole of these forms
    raises PoleProximityError; at ``exempt`` only the 1e-13 floor applies."""
    s = basis.surface
    forms = [basis.forms[k] for k in labels]
    poles = sorted({i for f in forms for i in f.pole_indices()})
    g = max(s.pole_guard if guard is None else guard, _THETA_GUARD)
    limits = np.array([_THETA_GUARD if i == exempt else g for i in poles])
    names = [f"puncture {i}" for i in poles]
    w = z - np.array([s.punctures[i] for i in poles], dtype=complex)[:, None]
    if s.genus == 1:
        terms = dict(zip(poles, _log_theta(w, basis.theta, 1, limits, names)[0]))
    else:
        _check_poles(np.abs(w), limits, w, names)
        terms = dict(zip(poles, 1.0 / w))
    ones = np.ones(z.shape, dtype=complex)
    rows = [
        ones if f.kind == "dz" else sum(f.residue_at(i) * terms[i] for i in f.pole_indices())
        for f in forms
    ]
    return np.array(rows, dtype=complex).reshape((len(rows),) + z.shape)


def eval_form(
    basis: FormBasis, k: FormLabel, z: complex, guard: float | None = None
) -> complex:
    """Coefficient function f_k with w_k = f_k(z) dz."""
    if not 0 <= k < basis.n_forms:
        raise ConfigError(f"form label {k} out of range")
    return _form_values(basis, (k,), np.array([complex(z)]), guard)[0, 0].item()


@dataclass(frozen=True)
class StructureConstants:
    """Coefficients of f_a * f_b = sum_i C^(i) f_i over the basis."""

    a: FormLabel
    b: FormLabel
    coefficients: dict[FormLabel, complex] = field(default_factory=dict)

    def residual(self, basis: FormBasis, z):
        """f_a f_b - sum_i C^(i) f_i at z, a number or an array of points."""
        labels = [self.a, self.b, *self.coefficients]
        vals = _form_values(basis, labels, np.ravel(np.asarray(z, dtype=complex)))
        rhs = sum(c * vals[2 + n] for n, c in enumerate(self.coefficients.values()))
        return _like(z, vals[0] * vals[1] - rhs)


def _fay_terms(args: np.ndarray, p: ThetaParams) -> tuple[np.ndarray, np.ndarray]:
    """F = dlog theta11 and G = (F^2 + F')/2 at every entry of the 2-d
    ``args``, the two functions the theta product identities are written in."""
    f, fp = _log_theta(args, p, 2)
    return f, 0.5 * (f * f + fp)


def structure_constants(basis: FormBasis, a: FormLabel, b: FormLabel) -> StructureConstants:
    """Decompose the pointwise product f_a*f_b back into the basis.

    Genus 0: partial fractions, C^(a) = 1/(P_a - P_b) = -C^(b).
    Genus 1: the four-term theta identity; requires disjoint pole pairs and
    the completion form with poles (a2, b2) present in the basis.  Products
    with the constant form dz are trivial.
    """
    if a == b:
        raise DecompositionUnavailableError("structure constants need distinct labels")
    n = basis.n_forms
    if not (0 <= a < n and 0 <= b < n):
        raise ConfigError(f"form labels ({a},{b}) out of range")
    s = basis.surface
    if s.genus == 0:
        pa = s.punctures[basis.forms[a].pole]
        pb = s.punctures[basis.forms[b].pole]
        c = 1.0 / (pa - pb)
        return StructureConstants(a, b, {a: c, b: -c})

    if basis.forms[a].kind == "dz":
        return StructureConstants(a, b, {b: 1.0 + 0j})
    if basis.forms[b].kind == "dz":
        return StructureConstants(a, b, {a: 1.0 + 0j})

    fa, fb = basis.forms[a], basis.forms[b]
    if set(fa.pole_indices()) & set(fb.pole_indices()):
        raise DecompositionUnavailableError(
            f"forms {a} and {b} share a pole; no basis decomposition of the product"
        )
    found = basis.completion_index(a, b)
    if found is None:
        raise DecompositionUnavailableError(
            f"basis lacks the completion form with poles ({fa.k2},{fb.k2})"
        )
    i_ab, sign = found

    pts = s.punctures
    a1, a2 = pts[fa.k1], pts[fa.k2]
    b1, b2 = pts[fb.k1], pts[fb.k2]
    args = np.array([[a1 - b1, a1 - b2, a2 - b1, a2 - b2, b1 - a1, b1 - a2]])
    f, g = (row[0].tolist() for row in _fay_terms(args, basis.theta))
    c0 = g[0] - g[1] - g[2] + g[3]
    ca = f[0] - f[1]
    cb = f[4] - f[5]
    ci = f[0] - f[1] - f[2] + f[3]

    coeffs: dict[FormLabel, complex] = {0: c0, a: ca, b: cb}
    coeffs[i_ab] = coeffs.get(i_ab, 0j) + sign * ci
    return StructureConstants(a, b, coeffs)


def fay_residual(z, p_i, p_j, p: ThetaParams):
    """Defect of the two-point theta product identity; zero when it holds.
    The three points may be numbers or arrays that broadcast together.

    With F = dlog theta11 and G(x) = (F(x)^2 + F'(x))/2:
      F(z-P_i)F(z-P_j) = F(z-P_i)F(P_i-P_j) + F(z-P_j)F(P_j-P_i)
                       + G(z-P_j) + G(z-P_i) + G(P_i-P_j) - theta_c/2.
    """
    z, p_i, p_j = np.broadcast_arrays(*(np.asarray(x, dtype=complex) for x in (z, p_i, p_j)))
    d = (p_i - p_j).ravel()
    f, g = _fay_terms(np.array([(z - p_i).ravel(), (z - p_j).ravel(), d, -d]), p)
    lhs = f[0] * f[1]
    rhs = f[0] * f[2] + f[1] * f[3] + g[1] + g[0] + g[2] - 0.5 * theta_c(p)
    return _like(z, lhs - rhs)


def form_to_json(f: FormSpec) -> dict:
    if f.kind == "dz":
        return {"kind": "dz"}
    if f.kind == "genus0_log":
        return {"kind": "genus0_log", "pole": f.pole}
    return {"kind": "elliptic_log", "k1": f.k1, "k2": f.k2}


def form_from_json(data: dict) -> FormSpec:
    kind = data.get("kind")
    if kind == "dz":
        return FormSpec.dz()
    if kind == "genus0_log":
        return FormSpec.genus0_log(_int_field(data["pole"], "pole"))
    if kind == "elliptic_log":
        return FormSpec.elliptic_log(_int_field(data["k1"], "k1"), _int_field(data["k2"], "k2"))
    raise ConfigError(f"unknown form kind {kind!r}")


def basis_to_json(basis: FormBasis) -> dict:
    s = basis.surface
    out = {
        "genus": s.genus,
        "punctures": [complex_to_json(p) for p in s.punctures],
        "forms": [form_to_json(f) for f in basis.forms],
    }
    if s.genus == 1:
        out["tau"] = complex_to_json(s.tau)
    if s.pole_guard != 1e-6:
        out["pole_guard"] = s.pole_guard
    return out


def basis_from_json(data: dict) -> FormBasis:
    try:
        genus = _int_field(data["genus"], "genus")
        punctures = tuple(complex_from_json(p) for p in data["punctures"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad surface config: {e}") from e
    tau = complex_from_json(data["tau"]) if data.get("tau") is not None else None
    guard = float(data.get("pole_guard", 1e-6))
    surface = SurfaceConfig(genus, punctures, tau, pole_guard=guard)
    if "forms" in data and data["forms"]:
        forms = tuple(form_from_json(f) for f in data["forms"])
        return FormBasis(surface, forms)
    if genus == 0:
        return FormBasis.genus0(surface)
    return FormBasis.genus1(surface, pairing=data.get("pairing", "star"))
