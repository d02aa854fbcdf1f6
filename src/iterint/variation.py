"""Derivatives of iterated integrals in the puncture positions.

Moving the poles of a letter k deforms its form f_k: at genus 0 the single
pole of f_k = 1/(z - P) moves, at genus 1 both poles of the elliptic form
move together.  Either way f_k changes by -f_k' per unit shift.  Let the
word w = (a_1 ... a_r) run from ``base`` to ``z``, so that a_1 sits at z,
and let f_k f_l = sum_i C^(i) f_i be the expansion of ``structure_constants``.
Integrating by parts at every occurrence of k, the derivative of Li_w is the
sum of

- -f_k(z) Li[a_2 ... a_r] if a_1 = k;
- +f_k(base) Li[a_1 ... a_(r-1)] if a_r = k;
- +C^(i) Li[w with the pair replaced by i] for each adjacent pair (k, l),
  l != k;
- the same term with a minus sign for each adjacent pair (l, k).

The two terms of an adjacent pair (k, k) cancel.  Moving the form dz raises
VariationUnsupportedError.  When another letter of the word has a pole of k,
moving those punctures deforms that letter too, and the request raises
DecompositionUnavailableError; so does a product whose expansion needs a
form the basis lacks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .errors import (
    ConfigError,
    DecompositionUnavailableError,
    VariationUnsupportedError,
)
from .paths import LineSegment, line_path
from .surfaces import (
    FormBasis,
    FormSpec,
    SurfaceConfig,
    _segment_distances,
    eval_form,
    lattice_distance,
    structure_constants,
)
from .transport import _requested, iterated_integral
from .words import GeneralizedWord, Word

# redraws before a random torus draw gives up; a modulus with Im tau about
# 0.7 still needs up to about 800 request draws
_MAX_DRAWS = 1000


@dataclass(frozen=True)
class VariationRequest:
    """A puncture-motion derivative of one iterated integral.

    ``position`` is the 1-based index in ``word`` of the moved letter; every
    occurrence of that letter moves, wherever it stands.  The integral runs
    along the straight line from ``base`` to ``z``.  Letters outside the
    basis and positions outside the word raise ConfigError, moving dz raises
    VariationUnsupportedError, and another letter with a pole of the moved
    letter raises DecompositionUnavailableError.
    """

    basis: FormBasis
    word: Word
    position: int
    z: complex
    base: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "base", complex(self.base))
        _requested(self.basis, None, [self.word])  # the letter check
        ls = self.word.letters
        if not 1 <= self.position <= len(ls):
            raise ConfigError(f"position {self.position} outside the word")
        moving = set(self.moving_punctures())
        if not moving:
            raise VariationUnsupportedError("the moved letter has no poles to move")
        k = ls[self.position - 1]
        for a in ls:
            if a != k and moving & set(self.basis.forms[a].pole_indices()):
                raise DecompositionUnavailableError(
                    f"letter {a} shares a pole with the moved letter {k}, so "
                    "moving it deforms both"
                )

    def moving_punctures(self) -> tuple[int, ...]:
        """Puncture indices shifted by the derivative (the moved letter's poles)."""
        return self.basis.forms[self.word[self.position - 1]].pole_indices()


def _derivative_combination(req: VariationRequest) -> GeneralizedWord:
    """The derivative of Li_word as a combination of words one letter
    shorter, by the formula of the module docstring."""
    ls = req.word.letters
    k = ls[req.position - 1]
    combo: dict[Word, complex] = {}

    def add(letters: tuple[int, ...], c: complex) -> None:
        w = Word(letters)
        combo[w] = combo.get(w, 0j) + c

    if ls[0] == k:
        add(ls[1:], -eval_form(req.basis, k, req.z))
    if ls[-1] == k:
        add(ls[:-1], eval_form(req.basis, k, req.base))
    for n, (a, b) in enumerate(zip(ls, ls[1:])):
        if (a == k) != (b == k):
            for i, c in structure_constants(req.basis, a, b).coefficients.items():
                add(ls[:n] + (i,) + ls[n + 2 :], c if a == k else -c)
    return GeneralizedWord(combo)


def variation_rhs(req: VariationRequest, *, tol: float = 1e-12) -> complex:
    """Derivative of Li_word in the poles of the moved letter."""
    combo = _derivative_combination(req)
    return iterated_integral(line_path(req.base, req.z), combo, req.basis, tol).value


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
    at 0, with the basis dz, (1,0), (3,2), (0,2) (letters 0 to 3).  The pole
    pairs (1,0) and (3,2) are disjoint, but (0,2) shares puncture 0 with
    (1,0) and puncture 2 with (3,2); the word (0, 1, 2) that
    ``random_torus_request`` draws, with letter 1 moved, avoids every shared
    pole.  A draw that cannot place all four in 200 tries starts over, and
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
