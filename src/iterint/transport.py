"""Parallel transport of the generating series of iterated integrals.

Along a path gamma the truncated series L solves

    dL/dt = (sum_k g_k(t) x_k) L,    L(start) = 1,

where g_k(t) = f_k(gamma(t)) gamma'(t) is the pullback of the k-th basis
form and the x_k are noncommuting letters.  The coefficient of the word
(a_1, ..., a_r) in L is the iterated integral with a_1 outermost:

    d/dz L[(a_1, ..., a_r)] = f_{a_1}(z) * L[(a_2, ..., a_r)](z),

so the first stored letter differentiates at the moving endpoint and the
last stored letter is integrated first, at the path start.  Anchor on the
sphere with punctures (0, 1): the coefficient of (0, 1) along a path from 0
to z is -Li_2(z), and running over word length gives the depth-n zeta
values with n-1 leading 0 letters.

Composition: if a path runs alpha then beta, the total series is the
series product T_beta * T_alpha (later piece on the left).

Each segment is integrated on 16 Gauss-Legendre nodes with a spectral
integration matrix, nested over word length, and bisected adaptively until
direct and composed evaluations agree to tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, PoleProximityError, ToleranceError
from .paths import Path, Segment, segment_min_distance
from .surfaces import FormBasis, eval_form
from .words import EMPTY_WORD, GeneralizedWord, Word

_N_NODES = 16
_MAX_LEVEL = 30


def _build_quadrature() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [0,1], the end-row (plain weights), and the integration
    matrix Q with Q[q, p] = integral of the p-th Lagrange basis polynomial
    from 0 to node q (exact: degree-15 integrands, 16-point rows)."""
    x, w = np.polynomial.legendre.leggauss(_N_NODES)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w

    def lagrange(p: int, t: float) -> float:
        out = 1.0
        for r in range(_N_NODES):
            if r != p:
                out *= (t - nodes[r]) / (nodes[p] - nodes[r])
        return out

    q = np.zeros((_N_NODES, _N_NODES))
    for row in range(_N_NODES):
        upper = nodes[row]
        inner = upper * nodes
        for p in range(_N_NODES):
            q[row, p] = upper * sum(
                weights[i] * lagrange(p, inner[i]) for i in range(_N_NODES)
            )
    return nodes, weights, q


_NODES, _END_ROW, _INT_MATRIX = _build_quadrature()


def all_words(alphabet: Sequence[int], depth: int) -> list[Word]:
    """Every word over the alphabet up to the given length, shortest first."""
    if depth < 0:
        raise ConfigError("depth must be nonnegative")
    out = [EMPTY_WORD]
    layer = [EMPTY_WORD]
    for _ in range(depth):
        layer = [Word((a,) + w.letters) for w in layer for a in alphabet]
        out.extend(layer)
    return out


def _sorted_words(words: Iterable[Word]) -> list[Word]:
    return sorted(set(words) | {EMPTY_WORD}, key=lambda w: (len(w), w.letters))


def factor_closure(words: Iterable[Word]) -> list[Word]:
    """All contiguous subwords, shortest first; what a series product needs."""
    out = set()
    for w in words:
        ls = w.letters
        for i in range(len(ls) + 1):
            for j in range(i, len(ls) + 1):
                out.add(Word(ls[i:j]))
    return _sorted_words(out)


def tail_closure(words: Iterable[Word]) -> list[Word]:
    """All trailing subwords, shortest first; what a nested solve needs."""
    out = set()
    for w in words:
        for i in range(len(w) + 1):
            out.add(Word(w.letters[i:]))
    return _sorted_words(out)


class NcSeries:
    """Truncated series in noncommuting letters with explicit word support.

    Coefficients exist only for words in the support; missing words are
    undefined, not zero, so partially supported series stay honest under
    products.
    """

    __slots__ = ("coeffs", "depth")

    def __init__(self, coeffs: dict[Word, complex], depth: int):
        self.coeffs = dict(coeffs)
        self.depth = depth

    @classmethod
    def identity(cls, support: Iterable[Word], depth: int) -> "NcSeries":
        coeffs = {w: 0j for w in support}
        coeffs[EMPTY_WORD] = 1.0 + 0j
        return cls(coeffs, depth)

    @property
    def support(self) -> set[Word]:
        return set(self.coeffs)

    def coefficient(self, w) -> complex:
        if isinstance(w, GeneralizedWord):
            return sum(c * self.coefficient(v) for v, c in w.items())
        if w not in self.coeffs:
            raise KeyError(f"word {w} outside series support")
        return self.coeffs[w]

    def product(self, other: "NcSeries") -> "NcSeries":
        """Concatenation product self * other (self applied after other).

        A word survives when every split u|v has u in self's support and v
        in other's; with factor-closed supports nothing is lost.
        """
        depth = min(self.depth, other.depth)
        out: dict[Word, complex] = {}
        for w in set(self.coeffs) | set(other.coeffs):
            if len(w) > depth:
                continue
            total = 0j
            ok = True
            ls = w.letters
            for i in range(len(ls) + 1):
                cu = self.coeffs.get(Word(ls[:i]))
                cv = other.coeffs.get(Word(ls[i:]))
                if cu is None or cv is None:
                    ok = False
                    break
                total += cu * cv
            if ok:
                out[w] = total
        return NcSeries(out, depth)

    def invert(self) -> "NcSeries":
        c0 = self.coeffs.get(EMPTY_WORD)
        if c0 is None or c0 == 0:
            raise ConfigError("cannot invert a series with no constant term")
        nilpotent = NcSeries(
            {w: (-c / c0 if not w.is_empty else 0j) for w, c in self.coeffs.items()},
            self.depth,
        )
        acc = NcSeries.identity(self.coeffs, self.depth)
        power = NcSeries.identity(self.coeffs, self.depth)
        for _ in range(self.depth):
            power = power.product(nilpotent)
            acc = _series_add(acc, power)
        return NcSeries({w: c / c0 for w, c in acc.coeffs.items()}, self.depth)

    def max_abs_diff(self, other: "NcSeries", words: Iterable[Word] | None = None) -> float:
        keys = set(self.coeffs) & set(other.coeffs)
        if words is not None:
            keys &= set(words)
        if not keys:
            return math.inf
        return max(abs(self.coeffs[w] - other.coeffs[w]) for w in keys)

    def __repr__(self) -> str:
        return f"NcSeries({len(self.coeffs)} words, depth={self.depth})"


def _series_add(a: NcSeries, b: NcSeries) -> NcSeries:
    out = dict(a.coeffs)
    for w, c in b.coeffs.items():
        if w in out:
            out[w] = out[w] + c
    return NcSeries(out, min(a.depth, b.depth))


def compose_series(after: NcSeries, before: NcSeries) -> NcSeries:
    """Series of a concatenated path: ``before`` runs first."""
    return after.product(before)


def _node_values(
    basis: FormBasis,
    seg: Segment,
    labels: Sequence[int],
    exempt: int | None,
) -> dict[int, np.ndarray]:
    surface = basis.surface
    points = [seg.point(t) for t in _NODES]
    velocities = [seg.velocity(t) for t in _NODES]
    for z in points:
        for p in range(surface.n_punctures):
            if p == exempt:
                continue
            if surface.distance_to_puncture(z, p) < surface.pole_guard:
                raise PoleProximityError(
                    f"quadrature node {z} within {surface.pole_guard} of puncture {p}"
                )
    out: dict[int, np.ndarray] = {}
    for k in labels:
        out[k] = np.array(
            [eval_form(basis, k, z, guard=0.0) * v for z, v in zip(points, velocities)]
        )
    return out


def _solve_segment(
    basis: FormBasis,
    seg: Segment,
    words: Sequence[Word],
    exempt: int | None,
) -> NcSeries:
    """One Gauss-Legendre sweep: nested quadrature over word length."""
    labels = sorted({w[0] for w in words if not w.is_empty})
    g = _node_values(basis, seg, labels, exempt)
    ones = np.ones(_N_NODES, dtype=complex)
    nodewise: dict[Word, np.ndarray] = {EMPTY_WORD: ones}
    coeffs: dict[Word, complex] = {EMPTY_WORD: 1.0 + 0j}
    for w in words:
        if w.is_empty:
            continue
        integrand = g[w[0]] * nodewise[Word(w.letters[1:])]
        nodewise[w] = _INT_MATRIX @ integrand
        coeffs[w] = complex(_END_ROW @ integrand)
    return NcSeries(coeffs, max(len(w) for w in words))


def _adaptive_segment(
    basis: FormBasis,
    seg: Segment,
    a: float,
    b: float,
    words_full: Sequence[Word],
    zero_words: Sequence[Word] | None,
    exempt: int | None,
    tol: float,
    level: int,
    force_levels: int,
) -> tuple[NcSeries, float]:
    # Pieces touching the segment start use the restricted word set; the
    # puncture exemption applies to the whole segment, whose early pieces
    # are legitimately close to a regularized start.
    words = zero_words if (a == 0.0 and zero_words is not None) else words_full
    mid = 0.5 * (a + b)
    direct = _solve_segment(basis, seg.restrict(a, b), words, exempt)
    left = _solve_segment(basis, seg.restrict(a, mid), words, exempt)
    right = _solve_segment(basis, seg.restrict(mid, b), words_full, exempt)
    composed = right.product(left)
    diff = direct.max_abs_diff(composed, words)
    # Below the rounding floor of the coefficients themselves nothing can be
    # gained by splitting; accept and report the residual honestly.
    scale = max((abs(c) for c in direct.coeffs.values()), default=0.0)
    floor = 64.0 * np.finfo(float).eps * scale
    if (diff < tol or diff < floor) and level >= force_levels:
        return composed, diff
    if level >= _MAX_LEVEL:
        raise ToleranceError(
            f"segment refinement stalled at level {level} (residual {diff:.3g}, tol {tol:.3g})"
        )
    # A 0.6 child factor keeps the split budget near tol while still
    # terminating when the residual is noise that scales with piece length.
    left, err_l = _adaptive_segment(
        basis, seg, a, mid, words_full, zero_words, exempt, 0.6 * tol, level + 1, force_levels
    )
    right, err_r = _adaptive_segment(
        basis, seg, mid, b, words_full, None, exempt, 0.6 * tol, level + 1, force_levels
    )
    return right.product(left), err_l + err_r


def segment_transport(
    basis: FormBasis,
    seg: Segment,
    words_full: Sequence[Word],
    *,
    zero_words: Sequence[Word] | None = None,
    exempt: int | None = None,
    tol: float = 1e-12,
    force_levels: int = 0,
) -> tuple[NcSeries, float]:
    """Transport along one segment.

    ``words_full`` must be factor-closed.  When ``zero_words`` is given, the
    pieces touching the segment start are solved on that (tail-closed) set
    instead; with ``exempt`` set, the start may sit on that puncture and its
    guard is waived there.  Returns the series and an error estimate.
    """
    _check_clearance(basis, seg, exempt)
    return _adaptive_segment(
        basis, seg, 0.0, 1.0, list(words_full), zero_words, exempt, tol, 0, force_levels
    )


def _check_clearance(basis: FormBasis, seg: Segment, exempt: int | None) -> None:
    """Geometric pre-flight: reject a segment that passes within the pole
    guard of any puncture.  Node distances alone can miss an exact hit when
    symmetric quadrature errors cancel."""
    surface = basis.surface
    samples = [seg.point(t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    for p in range(surface.n_punctures):
        if p == exempt:
            continue
        gap = min(
            segment_min_distance(seg, copy)
            for copy in surface.puncture_copies_near(p, samples)
        )
        if gap < surface.pole_guard:
            raise PoleProximityError(
                f"segment passes within {gap:.3g} of puncture {p} (guard {surface.pole_guard})"
            )


@dataclass(frozen=True)
class TransportResult:
    series: NcSeries
    error: float


def transport_series(
    path: Path,
    basis: FormBasis,
    *,
    depth: int | None = None,
    words: Iterable[Word] | None = None,
    tol: float = 1e-12,
    force_levels: int = 0,
) -> TransportResult:
    """Series of all requested iterated integrals along the path.

    Exactly one of ``depth`` (all words up to that length) or ``words``
    must be given.  The path must stay clear of punctures and carry no
    regularization flags; regularized transport lives elsewhere.
    """
    if path.reg_start is not None or path.reg_end is not None:
        raise ConfigError("transport_series expects an unregularized path")
    if (depth is None) == (words is None):
        raise ConfigError("give exactly one of depth= or words=")
    if depth is not None:
        wordlist = all_words(range(basis.n_forms), depth)
    else:
        wordlist = factor_closure(words)
        for w in wordlist:
            if any(k >= basis.n_forms for k in w.letters):
                raise ConfigError(f"word {w} uses letters outside the basis")
    if tol <= 0:
        raise ConfigError("tol must be positive")

    seg_tol = tol / len(path.segments)
    total: NcSeries | None = None
    err = 0.0
    for seg in path.segments:
        piece, piece_err = segment_transport(
            basis, seg, wordlist, tol=seg_tol, force_levels=force_levels
        )
        err += piece_err
        total = piece if total is None else piece.product(total)
    return TransportResult(total, err)


@dataclass(frozen=True)
class IntegralResult:
    """Iterated integrals of the requested (generalized) words on one path."""

    words: tuple
    values: tuple[complex, ...]
    error: float
    path_id: str

    @property
    def value(self) -> complex:
        if len(self.values) != 1:
            raise ConfigError("value is only defined for a single-word request")
        return self.values[0]


def iterated_integral(
    path: Path,
    words,
    basis: FormBasis,
    tol: float = 1e-12,
) -> IntegralResult:
    """Evaluate one or several words (or generalized words) along a path."""
    single = isinstance(words, (Word, GeneralizedWord))
    requested = (words,) if single else tuple(words)
    plain: set[Word] = set()
    for item in requested:
        if isinstance(item, Word):
            plain.add(item)
        elif isinstance(item, GeneralizedWord):
            plain.update(w for w, _ in item.items())
        else:
            raise ConfigError(f"cannot integrate object of type {type(item).__name__}")
    if not plain:
        return IntegralResult(requested, (0j,) * len(requested), 0.0, path.content_id())
    result = transport_series(path, basis, words=plain, tol=tol)
    values = tuple(result.series.coefficient(item) for item in requested)
    return IntegralResult(requested, values, result.error, path.content_id())
