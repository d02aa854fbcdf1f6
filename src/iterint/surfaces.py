"""Punctured spheres and tori, their logarithmic 1-form bases, and theta machinery.

Genus 0: the surface is the Riemann sphere minus the listed finite punctures
and the implicit puncture at infinity; the basis has one form 1/(z - P_k) per
finite puncture, residue +1 at its pole.

Genus 1: the surface is C/(Z + tau*Z) minus the listed punctures (given as
representatives in C).  The basis is dz plus n-1 difference forms
dlog theta(z - P_k1) - dlog theta(z - P_k2) with residue +1 at P_k1 and -1 at
P_k2, built from the odd Jacobi theta function

    theta11(z) = sum_n exp(pi*i*(n+1/2)^2*tau + 2*pi*i*(n+1/2)*(z+1/2)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import (
    ConfigError,
    DecompositionUnavailableError,
    PoleProximityError,
)
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


@dataclass(frozen=True)
class ThetaParams:
    """Modulus and series truncation for theta11 evaluation.

    ``truncation`` is the index cutoff N (terms n = -N..N-1); when omitted it
    is chosen so the largest dropped term is below ``tail_bound`` for
    arguments reduced to the fundamental cell.
    """

    tau: complex
    truncation: int | None = None
    tail_bound: float = 1e-16

    def __post_init__(self) -> None:
        tau = complex(self.tau)
        object.__setattr__(self, "tau", tau)
        if tau.imag <= 0:
            raise ConfigError(f"theta modulus needs Im(tau) > 0, got {tau}")
        if self.truncation is None:
            object.__setattr__(self, "truncation", self._auto_truncation())
        elif self.truncation < 2:
            raise ConfigError("theta truncation must be at least 2")

    def _auto_truncation(self) -> int:
        # Dropped term with |Im z| <= Im(tau)/2 is bounded by
        # exp(-pi*Im(tau)*(q^2 - q)), q = N - 1/2.
        y = self.tau.imag
        for n in range(4, 201):
            q = n - 0.5
            if math.exp(-math.pi * y * (q * q - q)) < self.tail_bound * 1e-2:
                return n + 2
        raise ConfigError(f"Im(tau) = {y} too small for reliable theta series")


def _lattice_reduce(z: complex, tau: complex) -> tuple[complex, int, int]:
    """z = z0 + m + k*tau with z0 in (a neighbourhood of) the fundamental cell."""
    k = round(z.imag / tau.imag)
    rest = z - k * tau
    m = round(rest.real)
    return rest - m, m, k


def lattice_distance(z: complex, tau: complex) -> float:
    """Distance from z to the lattice Z + tau*Z."""
    z0, _, _ = _lattice_reduce(z, tau)
    best = abs(z0)
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            d = abs(z0 + a + b * tau)
            if d < best:
                best = d
    return best


def _theta_series(z0: complex, p: ThetaParams) -> tuple[complex, complex, complex]:
    """(theta, theta', theta'') at a reduced argument."""
    th = thp = thpp = 0j
    tau = p.tau
    for n in range(-p.truncation, p.truncation):
        half = n + 0.5
        t = cmath.exp(1j * math.pi * tau * half * half + TWO_PI_I * half * (z0 + 0.5))
        d = TWO_PI_I * half
        th += t
        thp += d * t
        thpp += d * d * t
    return th, thp, thpp


def _reduced(z: complex, p: ThetaParams, guard: float = 1e-13) -> tuple[complex, int, int]:
    z0, m, k = _lattice_reduce(complex(z), p.tau)
    if lattice_distance(complex(z), p.tau) < guard:
        raise PoleProximityError(
            f"argument {z} is within {guard} of a lattice point of theta11"
        )
    return z0, m, k


def theta11(z: complex, p: ThetaParams) -> complex:
    """Odd Jacobi theta function with characteristic (1/2, 1/2)."""
    z0, m, k = _lattice_reduce(complex(z), p.tau)
    th, _, _ = _theta_series(z0, p)
    sign = -1.0 if (m + k) % 2 else 1.0
    factor = sign * cmath.exp(-1j * math.pi * p.tau * k * k - TWO_PI_I * k * z0)
    return factor * th

def dlog_theta(z: complex, p: ThetaParams) -> complex:
    """theta11'/theta11.  Simple pole of residue 1 at every lattice point;
    periodic under z+1, drops 2*pi*i under z+tau."""
    z0, _, k = _reduced(z, p)
    th, thp, _ = _theta_series(z0, p)
    return thp / th - TWO_PI_I * k


@lru_cache(maxsize=None)
def _theta_odd_coeffs(p: ThetaParams) -> tuple[complex, complex, complex]:
    """(c3, c5, c7) in theta11(z) = theta11'(0) * (z + c3 z^3 + c5 z^5 + c7 z^7 + ...)."""
    d1 = d3 = d5 = d7 = 0j
    for n in range(-p.truncation, p.truncation):
        half = n + 0.5
        t = cmath.exp(1j * math.pi * p.tau * half * half + 1j * math.pi * half)
        d2 = -4.0 * math.pi * math.pi * half * half
        d1 += TWO_PI_I * half * t
        d3 += TWO_PI_I * half * d2 * t
        d5 += TWO_PI_I * half * d2 * d2 * t
        d7 += TWO_PI_I * half * d2 * d2 * d2 * t
    return d3 / (6.0 * d1), d5 / (120.0 * d1), d7 / (5040.0 * d1)


_SUB_SERIES_RADIUS = 0.01


def dlog_theta_sub(z: complex, p: ThetaParams) -> complex:
    """dlog_theta(z) - 1/z.  Near the origin the two terms cancel to O(z) and
    the direct difference loses precision; a short odd series is used there."""
    z = complex(z)
    z0, m, k = _lattice_reduce(z, p.tau)
    if m == 0 and k == 0 and abs(z0) < _SUB_SERIES_RADIUS:
        c3, c5, c7 = _theta_odd_coeffs(p)
        z2 = z0 * z0
        return z0 * (
            2.0 * c3
            + z2 * (4.0 * c5 - 2.0 * c3 * c3)
            + z2 * z2 * (6.0 * c7 - 6.0 * c3 * c5 + 2.0 * c3 ** 3)
        )
    return dlog_theta(z, p) - 1.0 / z


def d2log_theta(z: complex, p: ThetaParams) -> complex:
    """Second log-derivative of theta11; doubly periodic."""
    z0, _, _ = _reduced(z, p)
    th, thp, thpp = _theta_series(z0, p)
    r = thp / th
    return thpp / th - r * r


def theta_c(p: ThetaParams) -> complex:
    """theta11'''(0)/theta11'(0) = 6 c3, the constant appearing in the Fay identity."""
    return 6.0 * _theta_odd_coeffs(p)[0]


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
        if self.pole_guard <= 0:
            raise ConfigError("pole_guard must be positive")
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
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if lattice_distance(pts[i] - pts[j], tau) < 1e-12:
                        raise ConfigError(
                            f"punctures {i} and {j} coincide modulo the lattice"
                        )

    @property
    def n_punctures(self) -> int:
        return len(self.punctures)

    def distance_to_puncture(self, z: complex, idx: int) -> float:
        d = z - self.punctures[idx]
        if self.genus == 1:
            return lattice_distance(d, self.tau)
        return abs(d)

    def min_puncture_distance(self, z: complex, exclude: Iterable[int] = ()) -> float:
        skip = set(exclude)
        return min(
            (
                self.distance_to_puncture(z, i)
                for i in range(len(self.punctures))
                if i not in skip
            ),
            default=math.inf,
        )

    def puncture_copies_near(self, idx: int, points: Iterable[complex]) -> list[complex]:
        """The puncture itself (genus 0) or its lattice translates adjacent
        to each sample point (genus 1)."""
        pole = self.punctures[idx]
        if self.genus == 0:
            return [pole]
        out = {pole}
        for z in points:
            k = round((complex(z) - pole).imag / self.tau.imag)
            for n in (k - 1, k, k + 1):
                m0 = round((complex(z) - pole - n * self.tau).real)
                for m in (m0 - 1, m0, m0 + 1):
                    out.add(pole + m + n * self.tau)
        return sorted(out, key=lambda w: (w.real, w.imag))


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
    """An ordered basis of logarithmic 1-forms on a punctured surface."""

    surface: SurfaceConfig
    forms: tuple[FormSpec, ...]
    theta: ThetaParams | None = None

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
            if self.theta is not None:
                raise ConfigError("theta parameters only apply to genus 1")
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
            if rest:
                mat = np.zeros((len(rest), n))
                for r, f in enumerate(rest):
                    mat[r, f.k1] += 1.0
                    mat[r, f.k2] -= 1.0
                if np.linalg.matrix_rank(mat) != len(rest):
                    raise ConfigError("elliptic forms have dependent residue vectors")
            if self.theta is None:
                object.__setattr__(self, "theta", ThetaParams(s.tau))
            elif self.theta.tau != s.tau:
                raise ConfigError("theta modulus disagrees with surface tau")

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


def eval_form(
    basis: FormBasis, k: FormLabel, z: complex, guard: float | None = None
) -> complex:
    """Coefficient function f_k with w_k = f_k(z) dz."""
    if not 0 <= k < basis.n_forms:
        raise ConfigError(f"form label {k} out of range")
    z = complex(z)
    s = basis.surface
    g = s.pole_guard if guard is None else guard
    f = basis.forms[k]
    if f.kind == "dz":
        return 1.0 + 0j
    if f.kind == "genus0_log":
        d = z - s.punctures[f.pole]
        if abs(d) < g:
            raise PoleProximityError(
                f"evaluation {z} within {g} of puncture {f.pole}"
            )
        return 1.0 / d
    for idx in (f.k1, f.k2):
        if lattice_distance(z - s.punctures[idx], s.tau) < g:
            raise PoleProximityError(
                f"evaluation {z} within {g} of puncture {idx} (mod lattice)"
            )
    return dlog_theta(z - s.punctures[f.k1], basis.theta) - dlog_theta(
        z - s.punctures[f.k2], basis.theta
    )


@dataclass(frozen=True)
class StructureConstants:
    """Coefficients of f_a * f_b = sum_i C^(i) f_i over the basis."""

    a: FormLabel
    b: FormLabel
    coefficients: dict[FormLabel, complex] = field(default_factory=dict)

    def residual(self, basis: FormBasis, z: complex) -> complex:
        lhs = eval_form(basis, self.a, z) * eval_form(basis, self.b, z)
        rhs = sum(c * eval_form(basis, k, z) for k, c in self.coefficients.items())
        return lhs - rhs


def _fay_terms(p: ThetaParams):
    """F = dlog theta11 and G(x) = (F(x)^2 + F'(x))/2 at modulus p, the two
    functions the theta product identities are written in."""

    def F(x: complex) -> complex:
        return dlog_theta(x, p)

    def G(x: complex) -> complex:
        v = dlog_theta(x, p)
        return 0.5 * (v * v + d2log_theta(x, p))

    return F, G


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
    F, G = _fay_terms(basis.theta)
    c0 = G(a1 - b1) - G(a1 - b2) - G(a2 - b1) + G(a2 - b2)
    ca = F(a1 - b1) - F(a1 - b2)
    cb = F(b1 - a1) - F(b1 - a2)
    ci = F(a1 - b1) - F(a1 - b2) - F(a2 - b1) + F(a2 - b2)

    coeffs: dict[FormLabel, complex] = {0: c0, a: ca, b: cb}
    coeffs[i_ab] = coeffs.get(i_ab, 0j) + sign * ci
    return StructureConstants(a, b, coeffs)


def fay_residual(z: complex, p_i: complex, p_j: complex, p: ThetaParams) -> complex:
    """Defect of the two-point theta product identity; zero when it holds.

    With F = dlog theta11 and G(x) = (F(x)^2 + F'(x))/2:
      F(z-P_i)F(z-P_j) = F(z-P_i)F(P_i-P_j) + F(z-P_j)F(P_j-P_i)
                       + G(z-P_j) + G(z-P_i) + G(P_i-P_j) - theta_c/2.
    """
    zi = z - p_i
    zj = z - p_j
    d = p_i - p_j
    F, G = _fay_terms(p)
    lhs = F(zi) * F(zj)
    rhs = F(zi) * F(d) + F(zj) * F(-d) + G(zj) + G(zi) + G(d) - 0.5 * theta_c(p)
    return lhs - rhs


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
        return FormSpec.genus0_log(int(data["pole"]))
    if kind == "elliptic_log":
        return FormSpec.elliptic_log(int(data["k1"]), int(data["k2"]))
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
        genus = int(data["genus"])
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
