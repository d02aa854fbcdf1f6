"""Derivatives of iterated integrals in the puncture positions.

Moving a pole deforms the basis forms themselves.  Along a straight-line
path the derivative of Li_w collapses, after integration by parts, to a
combination of words one letter shorter: the moved letter fuses with each
neighbour and the pointwise product of the two coefficient functions expands
back over the basis.  Genus 0 moves the single pole of the letter; genus 1
moves both poles of the letter jointly.  Individual genus-1 pole derivatives
and derivatives at the first or last letter obey different formulas and are
not computed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .errors import (
    ConfigError,
    DecompositionUnavailableError,
    ToleranceError,
    VariationUnsupportedError,
)
from .paths import LineSegment, line_path
from .surfaces import (
    FormBasis,
    FormSpec,
    SurfaceConfig,
    _segment_distances,
    lattice_distance,
    structure_constants,
)
from .transport import iterated_integral
from .words import GeneralizedWord, Word

_CROSS_CHECK_TOL = 1e-12
# redraws before a random torus draw gives up; a modulus with Im tau about
# 0.7 still needs up to about 800 request draws
_MAX_DRAWS = 1000


@dataclass(frozen=True)
class VariationRequest:
    """A puncture-motion derivative of one iterated integral.

    ``position`` is the 1-based index of the moved letter in ``word``; the
    letters must be pairwise distinct basis labels and, on the torus, carry
    pairwise disjoint pole sets.  The integral runs along the straight line
    from ``base`` to ``z``.
    """

    basis: FormBasis
    word: Word
    position: int
    z: complex
    base: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "base", complex(self.base))
        ls = self.word.letters
        r = len(ls)
        n = self.basis.n_forms
        if any(not 0 <= a < n for a in ls):
            raise ConfigError("word uses letters outside the basis")
        if len(set(ls)) != r:
            raise ConfigError("variation formulas need pairwise distinct letters")
        if not 1 <= self.position <= r:
            raise ConfigError(f"position {self.position} outside the word")
        if self.position in (1, r):
            raise VariationUnsupportedError(
                "derivatives at the first or last letter are not implemented"
            )
        if not self.moving_punctures():
            raise VariationUnsupportedError("the moved letter has no poles to move")
        if self.basis.surface.genus == 1:
            pole_sets = [set(self.basis.forms[a].pole_indices()) for a in ls]
            for u in range(r):
                for v in range(u + 1, r):
                    if pole_sets[u] & pole_sets[v]:
                        raise DecompositionUnavailableError(
                            f"letters {ls[u]} and {ls[v]} share a pole; their "
                            "products leave the basis span"
                        )

    def moving_punctures(self) -> tuple[int, ...]:
        """Puncture indices shifted by the derivative (the moved letter's poles)."""
        return self.basis.forms[self.word[self.position - 1]].pole_indices()


def _fused_combination(req: VariationRequest) -> GeneralizedWord:
    """Both neighbour fusions of the moved letter, expanded over the basis."""
    ls = req.word.letters
    k = req.position - 1
    combo: dict[Word, complex] = {}

    def add(w: Word, c: complex) -> None:
        combo[w] = combo.get(w, 0j) + c

    for i, c in structure_constants(req.basis, ls[k], ls[k + 1]).coefficients.items():
        add(Word(ls[:k] + (i,) + ls[k + 2 :]), c)
    for i, c in structure_constants(req.basis, ls[k - 1], ls[k]).coefficients.items():
        add(Word(ls[: k - 1] + (i,) + ls[k + 1 :]), -c)
    return GeneralizedWord(combo)


def _three_term_combination(req: VariationRequest) -> GeneralizedWord:
    """Genus 0 fusion coefficients written out directly.

    Dropping the previous letter costs 1/(P_prev - P_k), dropping the next
    costs 1/(P_k - P_next), and dropping the moved letter itself costs minus
    the sum of the two.
    """
    ls = req.word.letters
    k = req.position - 1
    pts = req.basis.surface.punctures
    p_prev = pts[req.basis.forms[ls[k - 1]].pole]
    p_here = pts[req.basis.forms[ls[k]].pole]
    p_next = pts[req.basis.forms[ls[k + 1]].pole]
    c_prev = 1.0 / (p_prev - p_here)
    c_next = 1.0 / (p_here - p_next)
    return GeneralizedWord(
        {
            Word(ls[: k - 1] + ls[k:]): c_prev,
            Word(ls[: k + 1] + ls[k + 2 :]): c_next,
            Word(ls[:k] + ls[k + 1 :]): -(c_prev + c_next),
        }
    )


def genus0_variation_rhs(req: VariationRequest, *, tol: float = 1e-12) -> complex:
    """Derivative of Li_word in the pole position of the moved letter.

    The structure-constant sum and its explicit three-term form are both
    evaluated and must agree; a mismatch indicates a broken decomposition.
    """
    if req.basis.surface.genus != 0:
        raise ConfigError("genus 0 formula applied to a genus 1 basis")
    full = _fused_combination(req)
    simple = _three_term_combination(req)
    res = iterated_integral(line_path(req.base, req.z), (full, simple), req.basis, tol)
    v_full, v_simple = res.values
    if abs(v_full - v_simple) > _CROSS_CHECK_TOL * max(1.0, abs(v_full)):
        raise ToleranceError(
            f"structure-constant sum {v_full} and three-term form "
            f"{v_simple} disagree"
        )
    return v_full


def elliptic_variation_rhs(req: VariationRequest, *, tol: float = 1e-12) -> complex:
    """Joint derivative of Li_word in both pole positions of the moved letter."""
    if req.basis.surface.genus != 1:
        raise ConfigError("elliptic formula applied to a genus 0 basis")
    combo = _fused_combination(req)
    return iterated_integral(line_path(req.base, req.z), combo, req.basis, tol).value


def variation_rhs(req: VariationRequest, *, tol: float = 1e-12) -> complex:
    """Dispatch on the genus of the request's surface."""
    if req.basis.surface.genus == 0:
        return genus0_variation_rhs(req, tol=tol)
    return elliptic_variation_rhs(req, tol=tol)


def fd_variation(
    req: VariationRequest,
    h: float,
    *,
    puncture: int | None = None,
    tol: float = 1e-12,
) -> complex:
    """Central difference of the integral in the designated puncture position(s).

    The basis is rebuilt with the puncture(s) shifted by +-h and the word
    re-integrated along the same geometric line.  ``puncture`` overrides the
    default choice (the pole set of the moved letter) to probe dependence on
    any single puncture.
    """
    if not h > 0:
        raise ConfigError("step h must be positive")
    s = req.basis.surface
    moving = (puncture,) if puncture is not None else req.moving_punctures()
    if any(not 0 <= m < s.n_punctures for m in moving):
        raise ConfigError(f"puncture index {puncture} out of range")
    path = line_path(req.base, req.z)
    vals = []
    for sign in (1.0, -1.0):
        pts = tuple(
            p + sign * h if m in moving else p for m, p in enumerate(s.punctures)
        )
        shifted = replace(req.basis, surface=replace(s, punctures=pts))
        vals.append(iterated_integral(path, req.word, shifted, tol).value)
    return (vals[0] - vals[1]) / (2.0 * h)


def random_sphere_request(rng: random.Random) -> VariationRequest:
    """Four punctures in general position above the real axis, a straight
    path below it, and a random three-letter word moved at its middle."""
    while True:
        pts = [0.0 + 0j, 1.0 + 0j]
        for _ in range(2):
            pts.append(complex(rng.uniform(-1.5, 2.5), rng.uniform(0.4, 1.8)))
        if min(abs(a - b) for i, a in enumerate(pts) for b in pts[:i]) > 0.3:
            break
    basis = FormBasis.genus0(SurfaceConfig(0, tuple(pts)))
    letters = tuple(rng.sample(range(4), 3))
    base = complex(rng.uniform(-1.2, -0.2), rng.uniform(-1.3, -0.5))
    z = complex(rng.uniform(1.2, 2.2), rng.uniform(-1.3, -0.5))
    return VariationRequest(basis, Word(letters), 2, z, base)


def random_torus_basis(rng: random.Random, tau: complex) -> FormBasis:
    """Four punctures pairwise at least 0.3 apart mod the lattice, the first
    at 0, with the basis dz, (1,0), (3,2), (0,2) of pairwise-disjoint pole
    pairs; a draw that cannot place all four in 200 tries starts over, and
    after ``_MAX_DRAWS`` draws the modulus is rejected."""
    for _ in range(_MAX_DRAWS):
        pts = [0j]
        tries = 0
        while len(pts) < 4 and tries < 200:
            tries += 1
            cand = rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * tau
            if lattice_distance([cand - p for p in pts], tau).min() > 0.3:
                pts.append(cand)
        if len(pts) == 4:
            break
    else:
        raise ConfigError(
            f"no four punctures 0.3 apart found in {_MAX_DRAWS} draws at tau={tau}"
        )
    forms = (
        FormSpec.dz(),
        FormSpec.elliptic_log(1, 0),
        FormSpec.elliptic_log(3, 2),
        FormSpec.elliptic_log(0, 2),
    )
    return FormBasis(SurfaceConfig(1, tuple(pts), tau=tau), forms)


def random_torus_request(rng: random.Random, tau: complex = 1j) -> VariationRequest:
    """A random torus basis (``random_torus_basis``) and a straight path
    clearing every lattice copy of every puncture by at least 0.2 (exact
    segment distances from ``surfaces``); a basis with no such path in 40
    tries is redrawn, up to ``_MAX_DRAWS`` times."""
    for _ in range(_MAX_DRAWS):
        basis = random_torus_basis(rng, tau)
        for _ in range(40):
            base = complex(rng.uniform(-0.3, 0.0), rng.uniform(-0.45, -0.1))
            z = complex(rng.uniform(0.6, 1.0), rng.uniform(-0.45, -0.1))
            if _segment_distances(basis.surface, LineSegment(base, z)).min() >= 0.2:
                return VariationRequest(basis, Word((0, 1, 2)), 2, z, base)
    raise ConfigError(
        f"no path clearing every pole translate by 0.2 found in {_MAX_DRAWS} "
        f"draws at tau={tau}"
    )
