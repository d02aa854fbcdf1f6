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

Every word set is listed in one order, the order of :func:`all_words`:
shortest first, then by the reversed letters, so that the first letter
varies fastest.  A series is a complex array over a support, an interned
tuple of words in that order (``_Support``), so each word set has one
support; ``coeffs``, the word -> coefficient mapping, is derived from it on
first access and iterates in that order.  Every plan is compiled once and
cached on the supports themselves, compared by identity, so a warm request
hashes no word.  A product compiles its pair of supports into a split plan,
the support positions of u and v and the row of the word for every split
u|v of every computable word, and the support of the result (one of the
factors' own when the surviving words are theirs); it gathers and
multiplies all splits at once and sums each row's terms in the order a
scalar loop would.  The inverse runs a plan of the same splits, one word
length at a time.

Each segment is integrated on 16 Gauss-Legendre nodes (a literal table)
with a spectral integration matrix, nested over word length, and bisected
adaptively until direct and composed evaluations agree to tolerance; a child
piece reuses its parent's solve of it as its own direct evaluation.  A
support is compiled once into a solve plan (memoized in a bounded cache, and
looked up once per segment): its first letters and, for each word length,
the rows of the words' first letters and of their tails in the previous
length.  A solve then runs one gathered product of forms and tail
integrals, one product with the integration matrix and one with the end row
per word length.  The same bisection serves the regularized line integral,
whose pieces are depth-one series.  The forms at all nodes of a piece come
from one call of the array evaluator in ``surfaces`` (``_form_values``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, PoleProximityError, ToleranceError
from .paths import Path, Segment
from .surfaces import FormBasis, _form_values, _segment_distances
from .words import EMPTY_WORD, GeneralizedWord, Word

_N_NODES = 16
_MAX_LEVEL = 30
_PLAN_CACHE_SIZE = 32


# The 16-point Gauss-Legendre rule on [0, 1] as (node, weight) pairs:
# 0.5 * (x + 1) and 0.5 * w for numpy's leggauss(16) nodes x and weights w,
# written exactly, so that numpy.polynomial need not be imported.
_GAUSS_LEGENDRE_16 = (
    ("0x1.5b4f66ca1e080p-8", "0x1.bcddab4b7c228p-7"),
    ("0x1.c60a99e906500p-6", "0x1.fdfb1a2c1261ep-6"),
    ("0x1.132ff2bac6df4p-4", "0x1.85c4ee79cc24bp-5"),
    ("0x1.f4ee8896e3654p-4", "0x1.fe7af2bad3878p-5"),
    ("0x1.874b732542e90p-3", "0x1.325f61bca3cbep-4"),
    ("0x1.157ed32de2c47p-2", "0x1.5a6ebbb5a7600p-4"),
    ("0x1.6fd1a8cdee642p-2", "0x1.75f8c77e0c011p-4"),
    ("0x1.cf5a853312ac1p-2", "0x1.83feae80e4e01p-4"),
    ("0x1.1852bd6676aa0p-1", "0x1.83feae80e4e01p-4"),
    ("0x1.48172b9908cdfp-1", "0x1.75f8c77e0c011p-4"),
    ("0x1.754096690e9dcp-1", "0x1.5a6ebbb5a7600p-4"),
    ("0x1.9e2d2336af45cp-1", "0x1.325f61bca3cbep-4"),
    ("0x1.c1622eed23936p-1", "0x1.fe7af2bad3878p-5"),
    ("0x1.dd9a01a8a7242p-1", "0x1.85c4ee79cc24bp-5"),
    ("0x1.f1cfab30b7cd8p-1", "0x1.fdfb1a2c1261ep-6"),
    ("0x1.fd4961326bc3fp-1", "0x1.bcddab4b7c228p-7"),
)


def _build_quadrature() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [0,1], the end-row (plain weights), and the integration
    matrix Q with Q[q, p] = integral of the p-th Lagrange basis polynomial
    from 0 to node q (exact: degree-15 integrands, 16-point rows), as
    nodes[q] * sum_i weights[i] * l_p(nodes[q] * nodes[i]) over all (q, i, p)
    at once, in the order of a scalar loop: r ascending in l_p, then i."""
    nodes = np.array([float.fromhex(x) for x, _ in _GAUSS_LEGENDRE_16])
    weights = np.array([float.fromhex(w) for _, w in _GAUSS_LEGENDRE_16])
    inner = nodes[:, None, None] * nodes[None, :, None]
    lagrange = np.ones((_N_NODES, _N_NODES, _N_NODES))
    for r in range(_N_NODES):
        others = np.arange(_N_NODES) != r
        lagrange[..., others] *= (inner - nodes[r]) / (nodes[others] - nodes[r])
    q = sum(weights[i] * lagrange[:, i, :] for i in range(_N_NODES))
    return nodes, weights, nodes[:, None] * q


_NODES, _END_ROW, _INT_MATRIX = _build_quadrature()


def _order(letters: tuple) -> tuple:
    """The one word order: shortest first, then by the reversed letters, so
    that the first letter varies fastest: (), 0, 1, 00, 10, 01, 11."""
    return len(letters), letters[::-1]


def all_words(alphabet: Sequence[int], depth: int) -> list[Word]:
    """Every word over the alphabet up to the given length, in word order.

    Repeated calls return new lists of the same ``Word`` objects.
    """
    return list(_all_words(tuple(sorted(set(alphabet))), depth).words)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _all_words(alphabet: tuple[int, ...], depth: int) -> _Support:
    """:func:`all_words` over a sorted alphabet as one support, so that a
    request for every word up to a depth reaches its cached plans without
    hashing a word."""
    if depth < 0:
        raise ConfigError("depth must be nonnegative")
    out = [EMPTY_WORD]
    layer = [EMPTY_WORD]
    for _ in range(depth):
        layer = [Word((a,) + w.letters) for w in layer for a in alphabet]
        out.extend(layer)
    return _intern(tuple(out))


def _sorted_words(letters: set[tuple], known: dict[tuple, Word]) -> list[Word]:
    """The words of ``letters`` and the empty word in word order; the
    ``Word`` objects of ``known`` are reused."""
    letters.add(())
    return [known[t] if t in known else Word(t) for t in sorted(letters, key=_order)]


def factor_closure(words: Iterable[Word]) -> list[Word]:
    """All contiguous subwords, in word order; what a series product needs.

    Every subword is reached from a longer one by dropping its first or its
    last letter, and a subword is split further only when first seen.
    """
    known = {w.letters: w for w in words}
    out = set(known)
    stack = list(known)
    while stack:
        ls = stack.pop()
        head, tail = ls[:-1], ls[1:]
        if head not in out:
            out.add(head)
            stack.append(head)
        if tail not in out:
            out.add(tail)
            stack.append(tail)
    return _sorted_words(out, known)


def tail_closure(words: Iterable[Word]) -> list[Word]:
    """All trailing subwords, in word order; what a nested solve needs."""
    known = {w.letters: w for w in words}
    out = set(known)
    for ls in known:
        tail = ls[1:]
        while tail not in out:  # a tail already present brings its own tails
            out.add(tail)
            tail = tail[1:]
    return _sorted_words(out, known)


class _Support:
    """The words of a series, in order; hashed and compared by identity.

    Plans are cached on supports, so a series computed on a plan's support
    reaches the next plan without hashing a word.  ``position`` (word to
    index) is built on first use.
    """

    __slots__ = ("words", "_position")

    def __init__(self, words: tuple[Word, ...]):
        self.words = words
        self._position: dict[Word, int] | None = None

    def __len__(self) -> int:
        return len(self.words)

    @property
    def position(self) -> dict[Word, int]:
        if self._position is None:
            self._position = {w: k for k, w in enumerate(self.words)}
        return self._position


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _intern(words: tuple[Word, ...]) -> _Support:
    """The support of a word tuple, one object while it stays cached."""
    return _Support(words)


def _support_of(words: Iterable[Word]) -> _Support:
    """The support of a word set: its distinct words in word order."""
    return _intern(tuple(sorted(set(words), key=lambda w: _order(w.letters))))


class _SplitPlan(NamedTuple):
    """Every split u|v of the words a product of two supports can compute.

    ``support`` holds the surviving words in word order, as the left
    support lists them; ``index`` is each one's position in the left
    support.  ``left``, ``right`` and ``row`` hold, for every split, the
    support positions of u and v and the position of its word in
    ``support``; the splits of one word are stored together, u shortest
    first.
    """

    support: _Support
    index: np.ndarray
    left: np.ndarray
    right: np.ndarray
    row: np.ndarray


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _split_plan(left_support: _Support, right_support: _Support, depth: int) -> _SplitPlan:
    """Compile the product of two supports up to depth.

    A word survives when every split u|v has u in the left support and v in
    the right one; the splits at u = () and u = w put it in both.  When the
    survivors are all of one factor's words, the result keeps that factor's
    support.
    """
    lpos = {w.letters: k for k, w in enumerate(left_support.words)}
    rpos = {w.letters: k for k, w in enumerate(right_support.words)}
    kept = []
    for k, w in enumerate(left_support.words):
        ls = w.letters
        n = len(ls)
        if n > depth:
            continue
        us = [lpos.get(ls[:i]) for i in range(n + 1)]
        vs = [rpos.get(ls[i:]) for i in range(n + 1)]
        if None not in us and None not in vs:
            kept.append((k, w, us, vs))
    words = tuple(w for _, w, _, _ in kept)
    index = [k for k, _, _, _ in kept]
    left = [u for _, _, us, _ in kept for u in us]
    right = [v for _, _, _, vs in kept for v in vs]
    row = [r for r, (_, _, us, _) in enumerate(kept) for _ in us]
    arrays = [np.array(a, dtype=np.intp) for a in (index, left, right, row)]
    for a in arrays:
        a.flags.writeable = False
    return _SplitPlan(_reuse(words, left_support, right_support), *arrays)


def _reuse(words: tuple[Word, ...], *candidates: _Support) -> _Support:
    """The first candidate that holds exactly ``words``, else their interned support."""
    for support in candidates:
        if support.words == words:
            return support
    return _intern(words)


class _InversePlan(NamedTuple):
    """The inverse of a support, compiled from its split plan with itself.

    ``empty`` is the empty word's position in the support, None when it is
    missing.  ``levels`` has one (positions, u, v, row) per word length 1,
    2, ... over the words whose every split u|v, u != w, has u defined:
    their positions in the support, and for each of those splits the
    positions of u and v and its word's row in ``positions``.  ``index``
    holds the positions of the words that keep a coefficient, the words of
    ``support``.
    """

    support: _Support
    empty: int | None
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    index: np.ndarray


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _inverse_plan(support: _Support, depth: int) -> _InversePlan:
    plan = _split_plan(support, support, depth)
    # the empty word, when present, is the first survivor; without it none survive
    empty = int(plan.index[0]) if len(plan.index) else None
    defined = np.zeros(len(support), dtype=bool)
    defined[plan.index[:1]] = True
    lengths = np.array([len(w) for w in plan.support.words], dtype=np.intp)
    # every split but each word's last, u = w
    proper = np.flatnonzero(plan.row[1:] == plan.row[:-1])
    proper_length = lengths[plan.row[proper]]
    levels = []
    for n in sorted(set(lengths[1:].tolist())):
        split = proper[proper_length == n]
        u, v, row = plan.left[split], plan.right[split], plan.row[split]
        ok = lengths == n
        ok[row[~defined[u]]] = False
        keep = ok[row]
        pos = plan.index[ok]
        levels.append((pos, u[keep], v[keep], (np.cumsum(ok) - 1)[row[keep]]))
        defined[pos] = True
    ok = defined[plan.index]
    words = tuple(compress(plan.support.words, ok))
    return _InversePlan(_reuse(words, support), empty, tuple(levels), plan.index[ok])


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise complex product in separate real operations.

    numpy's complex multiply fuses multiply-adds on CPUs that have them, so
    its last bits would depend on the machine and differ from Python's.
    """
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _row_sums(row: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """The sum of the complex ``terms`` of each row 0, ..., n - 1.

    ``np.bincount`` adds a row's terms one after another in array order,
    starting from +0.0, as a scalar loop would.  numpy's reductions,
    ``np.add.reduceat`` among them, sum pairwise, so a coefficient would
    change in its last bits with the number of its terms.
    """
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(row, terms.real, n)
    out.imag = np.bincount(row, terms.imag, n)
    return out


class NcSeries:
    """Truncated series in noncommuting letters with explicit word support.

    A series is a read-only complex ``values`` array over ``support``, an
    interned tuple of words in word order.  Coefficients exist only for
    words in the support; missing words are undefined, not zero, so
    partially supported series stay honest under products.  The constructor
    copies the mapping it is given into the array, in word order whatever
    the mapping's order; ``coeffs`` is a read-only mapping from word to
    coefficient, in word order, built on first access.
    """

    __slots__ = ("support", "values", "depth", "_coeffs")

    def __init__(self, coeffs: Mapping[Word, complex], depth: int):
        support = _support_of(coeffs)
        values = np.fromiter((coeffs[w] for w in support.words), dtype=complex, count=len(support))
        self._assign(support, values, depth)

    @classmethod
    def _of(cls, support: _Support, values: np.ndarray, depth: int) -> "NcSeries":
        """A series on a compiled support; it takes ``values`` over."""
        series = cls.__new__(cls)
        series._assign(support, values, depth)
        return series

    def _assign(self, support: _Support, values: np.ndarray, depth: int) -> None:
        values.flags.writeable = False
        self.support = support
        self.values = values
        self.depth = depth
        self._coeffs = None

    @classmethod
    def identity(cls, support: Iterable[Word], depth: int) -> "NcSeries":
        coeffs = {w: 0j for w in support}
        coeffs[EMPTY_WORD] = 1.0 + 0j
        return cls(coeffs, depth)

    @property
    def coeffs(self) -> Mapping[Word, complex]:
        if self._coeffs is None:
            self._coeffs = MappingProxyType(dict(zip(self.support.words, self.values.tolist())))
        return self._coeffs

    def coefficient(self, w) -> complex:
        if isinstance(w, GeneralizedWord):
            return sum((c * self.coefficient(v) for v, c in w.items()), 0j)
        k = self.support.position.get(w)
        if k is None:
            raise KeyError(f"word {w} outside series support")
        return self.values.item(k)

    def product(self, other: "NcSeries") -> "NcSeries":
        """Concatenation product self * other (self applied after other).

        A word survives when every split u|v has u in self's support and v
        in other's; with factor-closed supports nothing is lost.
        """
        depth = min(self.depth, other.depth)
        plan = _split_plan(self.support, other.support, depth)
        terms = _mul(self.values[plan.left], other.values[plan.right])
        return NcSeries._of(plan.support, _row_sums(plan.row, terms, len(plan.support)), depth)

    def invert(self) -> "NcSeries":
        """Inverse series, one word length at a time: L^-1[()] = 1/c0 and

            L^-1[w] = -(1/c0) * sum over splits u|v = w, u != w, of L^-1[u] L[v].

        This holds for any series with c0 != 0.  A word up to the depth keeps
        a coefficient only when all its contiguous subwords are in the
        support; the others are undefined and dropped.
        """
        plan = _inverse_plan(self.support, self.depth)
        c0 = None if plan.empty is None else self.values.item(plan.empty)
        if c0 is None or c0 == 0:
            raise ConfigError("cannot invert a series with no constant term")
        c = self.values
        inv = np.zeros(len(self.support), dtype=complex)
        inv[plan.empty] = 1.0 / c0
        for pos, u, v, row in plan.levels:
            inv[pos] = -_row_sums(row, _mul(inv[u], c[v]), len(pos)) / c0
        return NcSeries._of(plan.support, inv[plan.index], self.depth)

    def max_abs_diff(self, other: "NcSeries", words: Iterable[Word] | None = None) -> float:
        """Largest |difference| over the words both supports (and ``words``,
        if given) hold; inf when there are none."""
        if words is None and self.support.words == other.support.words:
            diff = self.values - other.values
        else:
            keys = set(self.coeffs) & set(other.coeffs)
            if words is not None:
                keys &= set(words)
            diff = np.array([self.coeffs[w] - other.coeffs[w] for w in keys], dtype=complex)
        return float(np.abs(diff).max()) if diff.size else math.inf

    def __repr__(self) -> str:
        return f"NcSeries({len(self.support)} words, depth={self.depth})"


def compose_series(after: NcSeries, before: NcSeries) -> NcSeries:
    """Series of a concatenated path: ``before`` runs first."""
    return after.product(before)


@dataclass(frozen=True, eq=False)
class _SolvePlan:
    """A solve's word support compiled into one gather per word length.

    ``support`` holds the words, the empty word first; ``len()`` counts them.
    ``labels`` are the sorted first letters, the rows of the form values.
    ``levels`` has one (positions, first, tail) per word length 1, 2, ...:
    the words' positions in ``support``, their first letters' rows in
    ``labels`` and their tails' rows in the previous length.
    """

    support: _Support
    labels: tuple[int, ...]
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return len(self.support)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _solve_plan(support: _Support) -> _SolvePlan:
    """Compile a tail-closed support, the empty word first, for ``_solve_segment``."""
    words = support.words
    labels = sorted({w[0] for w in words[1:]})
    label_row = {a: k for k, a in enumerate(labels)}
    by_length: dict[int, list] = {}
    for pos, w in enumerate(words[1:], 1):
        by_length.setdefault(len(w), []).append((pos, w.letters))
    levels = []
    rows = {(): 0}
    for n in range(1, max(by_length, default=0) + 1):
        group = by_length.get(n, [])
        for _, ls in group:
            if ls[1:] not in rows:
                raise ConfigError(
                    f"word support is not tail-closed: it holds {Word(ls)} "
                    f"but not its tail {Word(ls[1:])}"
                )
        level = (
            [pos for pos, _ in group],
            [label_row[ls[0]] for _, ls in group],
            [rows[ls[1:]] for _, ls in group],
        )
        levels.append(tuple(np.array(a, dtype=np.intp) for a in level))
        rows = {ls: k for k, (_, ls) in enumerate(group)}
    return _SolvePlan(support, tuple(labels), tuple(levels))


def _solve_segment(
    basis: FormBasis,
    seg: Segment,
    words: _SolvePlan,
    exempt: int | None,
) -> NcSeries:
    """One Gauss-Legendre sweep: nested quadrature, one product per word length.

    The integrand of a word at the nodes is its first letter's pulled-back
    form times its tail's nodewise integral; ``words`` is the compiled plan
    of the support (``_solve_plan``).
    """
    # the pulled-back forms f_k(seg(t)) seg'(t) at all nodes, in one evaluation
    g = _form_values(basis, words.labels, seg.point(_NODES), exempt=exempt)
    g *= seg.velocity(_NODES)
    coeffs = np.empty(len(words), dtype=complex)
    coeffs[0] = 1.0
    nodewise = np.ones((1, _N_NODES), dtype=complex)
    for pos, first, tail in words.levels:
        integrand = g[first] * nodewise[tail]
        coeffs[pos] = integrand @ _END_ROW
        nodewise = integrand @ _INT_MATRIX.T
    return NcSeries._of(words.support, coeffs, len(words.levels))


def _check_tol(tol: float) -> None:
    """Raise ConfigError unless the tolerance is positive and finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be positive and finite, got {tol}")


def _adaptive_segment(
    solve: Callable[[float, float], NcSeries],
    a: float,
    b: float,
    tol: float,
    level: int,
    direct: NcSeries | None = None,
) -> tuple[NcSeries, float]:
    """Bisect [a, b] until the solve of the piece agrees with its two halves.

    ``solve(a, b)`` returns the series of the piece [a, b] of the segment;
    ``direct`` is the parent's solve of this very piece, when there is one.
    Returns the composed series and an error estimate.  Every quadrature
    runs here, so this is where every tolerance is checked.
    """
    _check_tol(tol)
    mid = 0.5 * (a + b)
    if direct is None:
        direct = solve(a, b)
    left = solve(a, mid)
    right = solve(mid, b)
    composed = right.product(left)
    diff = direct.max_abs_diff(composed)
    # Below the rounding floor of the coefficients themselves nothing can be
    # gained by splitting; accept, and report no less than the floor, which
    # the composed value can still be off by.
    scale = float(np.abs(direct.values).max(initial=0.0))
    floor = 64.0 * np.finfo(float).eps * scale
    if diff < tol or diff < floor:
        return composed, float(max(diff, floor))
    if level >= _MAX_LEVEL:
        raise ToleranceError(
            f"segment refinement stalled at level {level} (residual {diff:.3g}, tol {tol:.3g})"
        )
    # A 0.6 child factor keeps the split budget near tol while still
    # terminating when the residual is noise that scales with piece length.
    left, err_l = _adaptive_segment(solve, a, mid, 0.6 * tol, level + 1, direct=left)
    right, err_r = _adaptive_segment(solve, mid, b, 0.6 * tol, level + 1, direct=right)
    return right.product(left), err_l + err_r


def segment_transport(
    basis: FormBasis,
    seg: Segment,
    words_full: Sequence[Word],
    *,
    zero_words: Sequence[Word] | None = None,
    exempt: int | None = None,
    tol: float = 1e-12,
) -> tuple[NcSeries, float]:
    """Transport along one segment.

    ``words_full`` must be factor-closed.  When ``zero_words`` is given, the
    pieces touching the segment start are solved on that (tail-closed) set
    instead; with ``exempt`` set, the start may sit on that puncture and its
    guard is waived there.  Returns the series and an error estimate.
    """
    full = _solve_plan(_support_of([EMPTY_WORD, *words_full]))
    start = full if zero_words is None else _solve_plan(_support_of([EMPTY_WORD, *zero_words]))
    return _transport_segment(basis, seg, full, start, exempt, tol)


def _transport_segment(
    basis: FormBasis,
    seg: Segment,
    full: _SolvePlan,
    start: _SolvePlan,
    exempt: int | None,
    tol: float,
) -> tuple[NcSeries, float]:
    """``segment_transport`` on compiled plans; ``start`` serves the pieces
    that touch the segment start."""
    _check_clearance(basis, seg, exempt)

    # The puncture exemption applies to the whole segment, whose early
    # pieces are legitimately close to a regularized start.
    def solve(a: float, b: float) -> NcSeries:
        return _solve_segment(basis, seg.restrict(a, b), start if a == 0.0 else full, exempt)

    return _adaptive_segment(solve, 0.0, 1.0, tol, 0)


def _check_clearance(basis: FormBasis, seg: Segment, exempt: int | None) -> None:
    """Geometric pre-flight: reject a segment that passes within the pole
    guard of any copy of a puncture, by the exact segment distances of
    ``surfaces._segment_distances``.  Node distances alone can miss an exact
    hit when symmetric quadrature errors cancel."""
    surface = basis.surface
    for p, gap in enumerate(_segment_distances(surface, seg)):
        if p != exempt and gap < surface.pole_guard:
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
        plan = _solve_plan(_all_words(tuple(range(basis.n_forms)), depth))
    else:
        wordlist = factor_closure(words)
        for w in wordlist:
            if any(k >= basis.n_forms for k in w.letters):
                raise ConfigError(f"word {w} uses letters outside the basis")
        plan = _solve_plan(_intern(tuple(wordlist)))

    seg_tol = tol / len(path.segments)
    total: NcSeries | None = None
    err = 0.0
    for seg in path.segments:
        piece, piece_err = _transport_segment(basis, seg, plan, plan, None, seg_tol)
        err += piece_err
        total = piece if total is None else piece.product(total)
    return TransportResult(total, err)


@dataclass(frozen=True)
class IntegralResult:
    """Iterated integrals of the requested (generalized) words on one path."""

    words: tuple
    values: tuple[complex, ...]
    error: float

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
    _check_tol(tol)  # before the shortcut that runs no quadrature
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
        return IntegralResult(requested, (0j,) * len(requested), 0.0)
    result = transport_series(path, basis, words=plain, tol=tol)
    values = tuple(result.series.coefficient(item) for item in requested)
    return IntegralResult(requested, values, result.error)
