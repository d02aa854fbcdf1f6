"""Regularized transport from punctures, zeta values, associators, monodromy.

A path that starts on a puncture has divergent iterated integrals whenever
the innermost form is the one with a pole there.  The finite part kept here
is the epsilon-limit of the integral from a point at distance epsilon after
subtracting a_k log(epsilon); words are reduced to that single scalar by the
shuffle decomposition.  On the segment that starts at the puncture

    V    transports the words not ending in the distinguished letter
         (their innermost integrals converge),
    lam  is the regularized line integral of the distinguished form,

and every requested word is assembled as  sum_i lam^i/i! * V[w(i)].  The
support of a request, ``words=`` in any order or ``depth=`` (every word up
to the depth), is compiled once per distinguished letter into an assembly
plan (memoized in a bounded cache): the solve plan of V's set, used at the
start, and of the factor-closed set transported after it, the support of
the assembled series (the requested words and their tails), and every
word's decomposition as flat (word, power, column of V, multiplicity)
arrays.  The decompositions take no shuffle: part i of w is the expansion
of w minus j^i over the words not ending in j, found by a recursion in
exact integers whose memo lives for one compile.  Assembly is one gather
and one sum of each word's terms, by the row sums the series product uses,
and its ``error`` includes eps times the sum of the terms' moduli; later
segments multiply the assembled series by their transports.

Limits toward a second puncture are taken on a geometric radius ladder: the
values carry powers of log r whose coefficients are recovered by weighted
least squares, the constant term being the multiple zeta value.  Words that
begin with the singular letter of the target are first rewritten, through
the mirror-image shuffle decomposition, in terms of words that do not; this
keeps every fit free of log powers in its leading column, which is what
makes the 1e-8 targets reachable in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import (
    ConfigError,
    ConventionError,
    EndpointMismatchError,
    FitError,
    MissingLabelError,
    NotGoodPunctureError,
)
from .paths import (
    LineSegment,
    LoopSpec,
    Path,
    Segment,
    line_path,
    log_variation,
    loop_around,
)
from .surfaces import (
    FormBasis,
    _form_values,
    eval_form,
)
from .transport import (
    NcSeries,
    _END_ROW,
    _NODES,
    _PLAN_CACHE_SIZE,
    _SolvePlan,
    _Support,
    _adaptive_segment,
    _all_words,
    _check_tol,
    _requested,
    _row_sums,
    _solve_plan,
    _transport_segment,
    factor_closure,
    tail_closure,
    transport_series,
)
from .words import (
    GeneralizedWord,
    Word,
    _as_gw,
    _expansion,
    decompose_leading,
    word,
)

_START_TOL = 1e-12
_LADDER_RATIO = 0.05
_LADDER_RUNGS = 14
_GUARD_MARGIN = 3.0
# highest power of r/r0 in the ladder fit (``_ladder_fit``'s q_max)
_ANALYTIC_DEGREE = 3
# where on the line from P_j to P_i the associator is probed, as fractions
_PROBE_FRACTIONS = (0.5, 0.3)
# largest disagreement between associator probes before a ConventionError
_CONSISTENCY_TOL = 1e-6


@dataclass(frozen=True)
class GoodPunctureCtx:
    """A puncture at which exactly one basis form has a (simple) pole, with
    residue 1; regularization is only defined at such punctures."""

    puncture: int
    form_label: int
    residue_probe: complex


def _puncture(basis: FormBasis, j: int) -> complex:
    """The position of puncture ``j``; ConfigError when there is no such
    puncture."""
    if not 0 <= j < basis.surface.n_punctures:
        raise ConfigError(f"puncture index {j} out of range")
    return basis.surface.punctures[j]


def good_puncture_ctx(basis: FormBasis, j: int) -> GoodPunctureCtx:
    p = _puncture(basis, j)
    singular = basis.singular_forms_at(j)
    if len(singular) != 1:
        raise NotGoodPunctureError(
            f"puncture {j} appears in {len(singular)} basis forms; need exactly one"
        )
    label = singular[0]
    if basis.residue(label, j) != 1:
        raise NotGoodPunctureError(
            f"form {label} has residue {basis.residue(label, j)} at puncture {j}, need +1"
        )
    eps = 1e-5
    probe_pt = p + eps * complex(0.6, 0.8)
    probe = eps * complex(0.6, 0.8) * eval_form(basis, label, probe_pt, guard=0.0)
    if abs(probe - 1.0) > 1e-3:
        raise NotGoodPunctureError(
            f"numeric residue probe {probe} at puncture {j} is not 1"
        )
    return GoodPunctureCtx(j, label, probe)


def _puncture_at(basis: FormBasis, z: complex, hint: int | None) -> int:
    if hint is not None:
        p = _puncture(basis, hint)
        if abs(z - p) > _START_TOL:
            raise EndpointMismatchError(f"path start {z} is not puncture {hint} ({p})")
        return hint
    for idx, p in enumerate(basis.surface.punctures):
        if abs(z - p) <= _START_TOL:
            return idx
    raise EndpointMismatchError(f"path start {z} does not sit on a puncture")


# ---------------------------------------------------------------------------
# regularized line integral


@dataclass(frozen=True)
class RegularizedValue:
    """Finite part of a line integral from a puncture.

    ``log_coefficient`` is the residue a_k of the form at the start puncture
    (the coefficient of the subtracted a_k log(epsilon)); zero for forms
    regular there.  ``direction`` is the unit start direction of the path.
    """

    value: complex
    log_coefficient: complex
    direction: complex
    error: float


def _subtracted_integrand(basis: FormBasis, k: int, j: int):
    """f_k(z) - res_j(f_k)/(z - P_j) at arrays of points.  Both terms keep
    their relative accuracy up to P_j, so the difference is taken directly.

    Returns None when the difference vanishes identically.
    """
    f = basis.forms[k]
    if f.kind == "genus0_log" and f.pole == j:
        return None
    res, pole = f.residue_at(j), basis.surface.punctures[j]
    return lambda z: _form_values(basis, (k,), z, exempt=j)[0] - res / (z - pole)


def reg_line_integral(
    path: Path, k: int, basis: FormBasis, *, tol: float = 1e-12
) -> RegularizedValue:
    """Regularized integral of form ``k`` along a path starting on a puncture.

    The local residue part a_k dz/(z - P_j) integrates in closed form (its
    epsilon-limit is the log variation along the path); the remainder is
    analytic at the start and integrates numerically.
    """
    if not 0 <= k < basis.n_forms:
        raise ConfigError(f"form label {k} out of range")
    _check_tol(tol)  # a form with no analytic remainder runs no quadrature
    j = _puncture_at(basis, path.start, path.reg_start)
    res = basis.residue(k, j)
    integrand = _subtracted_integrand(basis, k, j)
    total = 0j
    err = 0.0
    if integrand is not None:
        seg_tol = tol / len(path.segments)
        support = _all_words((k,), 1)  # () and (k,)
        for seg in path.segments:
            # a piece is the depth-one series {(): 1, (k): its integral}, so
            # the bisection's products add the pieces' integrals
            def solve(a: float, b: float, seg=seg) -> NcSeries:
                piece = seg.restrict(a, b)
                vals = integrand(piece.point(_NODES)) * piece.velocity(_NODES)
                return NcSeries._of(support, np.array([1.0, _END_ROW @ vals], dtype=complex), 1)

            series, piece_err = _adaptive_segment(solve, 0.0, 1.0, seg_tol, 0)
            total += series.coefficient(support.words[1])
            err += piece_err
    if res:
        total += res * log_variation(path, basis.surface.punctures[j])
    return RegularizedValue(total, complex(res), path.start_direction(), err)


# ---------------------------------------------------------------------------
# regularized transport


@dataclass(frozen=True, eq=False)
class _AssemblyPlan:
    """A request, ``words=`` or ``depth=`` alike, compiled for assembly at one
    distinguished letter.

    ``support`` holds the requested words and their tails, the empty word
    among them, in word order, as ``full_plan``'s words are listed, so a
    transport on ``full_plan`` times the series keeps this support, and
    every ``extend`` reuses one split plan.  ``v_plan`` solves the tail
    closure of the words the decompositions' parts use (none of which ends
    in the letter), the set the start piece is solved on; ``full_plan`` the
    factor closure of the requested words, those words and the letter, the
    set every other piece is solved on.  Each word's decomposition is
    flattened into terms, grouped by word and ordered by power and then by
    letters: ``row`` (position in ``support``), ``power``, ``column``
    (position in ``v_plan``'s support) and ``multiplicity``; ``_row_sums``
    adds each row's terms in that order.  ``depth`` is the longest
    requested length.
    """

    support: _Support
    depth: int
    v_plan: _SolvePlan
    full_plan: _SolvePlan
    row: np.ndarray
    power: np.ndarray
    column: np.ndarray
    multiplicity: np.ndarray

    def assemble(self, v: NcSeries, lam: complex) -> tuple[NcSeries, float]:
        """The regularized series on ``support``, every word being
        sum_i lam^i/i! * V[w(i)] over its compiled decomposition, with ``v``
        (V) on the support of ``v_plan``; and the estimate of the sums'
        rounding, eps times the sum of the moduli of the terms."""
        assert v.support is self.v_plan.support
        lam_powers = np.array([lam ** i / math.factorial(i) for i in range(self.depth + 1)])
        terms = v.values[self.column] * self.multiplicity * lam_powers[self.power]
        values = _row_sums(self.row, terms, len(self.support))
        rounding = float(np.finfo(float).eps * np.abs(terms).sum())
        return NcSeries._of(self.support, values, self.depth), rounding


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _assembly_plan(requested: _Support, kj: int) -> _AssemblyPlan:
    """Compile the support of the requested words for assembly at the letter
    ``kj``.

    A support is hashed by identity, so that a warm request hashes no word;
    a ``depth=`` request passes the support of every word up to its depth
    that ``_all_words`` keeps, which is tail-closed and so is the plan's
    support too.  Part i of a word is the
    :func:`~iterint.words._expansion` of the word minus kj^i; the expansions
    of one compile share one memo, dropped with the compile.  The parts of
    the tails' decompositions are tails of the requested words' parts, so
    adding the tails changes neither solve plan.
    """
    support = tail_closure(requested.words)
    word_of = {"".join(map(chr, w.letters)): w for w in support.words}
    j = chr(kj)
    memo: dict = {}
    # every term of every word's decomposition: row, power, part, multiplicity
    row, power, parts, multiplicity = [], [], [], []
    for r, s in enumerate(word_of):
        for i in range(len(s) - len(s.rstrip(j)) + 1):
            expansion = _expansion(s[: len(s) - i], j, memo)
            row += [r] * len(expansion)
            power += [i] * len(expansion)
            parts += expansion
            multiplicity += expansion.values()
    part_words = [word_of[u] if u in word_of else Word(tuple(map(ord, u))) for u in set(parts)]
    v_plan = _solve_plan(tail_closure(part_words))
    full_plan = _solve_plan(factor_closure([*requested.words, *part_words, word(kj)]))
    column_of = {"".join(map(chr, w.letters)): c for c, w in enumerate(v_plan.support.words)}
    return _AssemblyPlan(
        support,
        max((len(w) for w in requested.words), default=0),
        v_plan,
        full_plan,
        np.array(row, dtype=np.intp),
        np.array(power, dtype=np.intp),
        np.array([column_of[u] for u in parts], dtype=np.intp),
        np.array(multiplicity, dtype=float),
    )


class RegularizedTransport:
    """Iterated integrals along a path whose start sits on a good puncture.

    The series is assembled once, on the segment that starts at the
    puncture; past it the series solves the plain transport equation, so
    each later segment (:meth:`extend`) multiplies it by its transport.
    :meth:`value` and :meth:`series` read the requested words and their
    tails, the empty word among them; any other word raises
    :class:`MissingLabelError`.  :attr:`error` adds the quadrature estimates
    and the estimate of the assembly's rounding.
    """

    def __init__(
        self,
        basis: FormBasis,
        ctx: GoodPunctureCtx,
        plan: _AssemblyPlan,
        series: NcSeries,
        end: complex,
        error: float,
        tol: float,
    ):
        self.basis = basis
        self.ctx = ctx
        self._plan = plan
        self._series = series
        self._end = end
        self._error = error
        self._tol = tol

    @classmethod
    def along(
        cls,
        path: Path,
        basis: FormBasis,
        *,
        depth: int | None = None,
        words: Iterable | None = None,
        puncture: int | None = None,
        tol: float = 1e-12,
    ) -> "RegularizedTransport":
        """The regularized transport of every word up to ``depth``, or of
        ``words`` (words, letter sequences or generalized words), from the
        puncture the path starts on."""
        requested = _requested(basis, depth, words)
        j = _puncture_at(basis, path.start, path.reg_start if puncture is None else puncture)
        ctx = good_puncture_ctx(basis, j)
        plan = _assembly_plan(requested, ctx.form_label)

        segs = path.segments
        seg_tol = tol / len(segs)
        v, err = _transport_segment(basis, segs[0], plan.full_plan, plan.v_plan, j, seg_tol)
        reg = reg_line_integral(Path((segs[0],)), ctx.form_label, basis, tol=seg_tol)
        series, rounding = plan.assemble(v, reg.value)
        out = cls(basis, ctx, plan, series, segs[0].point(1.0), err + reg.error + rounding, tol)
        for seg in segs[1:]:
            out.extend(seg, tol=seg_tol)
        return out

    def extend(self, seg: Segment, *, tol: float | None = None) -> None:
        """Transport across one more segment chained to the current end."""
        if abs(seg.point(0.0) - self._end) > _START_TOL:
            raise EndpointMismatchError(
                f"segment starts at {seg.point(0.0)}, transport ends at {self._end}"
            )
        full = self._plan.full_plan
        t, err = _transport_segment(
            self.basis, seg, full, full, None, tol if tol is not None else self._tol
        )
        self._series = t.product(self._series)
        self._end = seg.point(1.0)
        self._error += err

    @property
    def error(self) -> float:
        return self._error

    def value(self, w) -> complex:
        """Regularized iterated integral of a word or generalized word."""
        try:
            return self._series.coefficient(_as_gw(w))
        except KeyError as e:
            raise MissingLabelError(e.args[0]) from None

    def series(self) -> NcSeries:
        """The requested words and their tails as a series."""
        return self._series


def reg_iterated(path: Path, w, basis: FormBasis, *, tol: float = 1e-12) -> complex:
    """Regularized iterated integral of ``w`` along a path from a good puncture."""
    gw = _as_gw(w)
    return RegularizedTransport.along(path, basis, words=[gw], tol=tol).value(gw)


# ---------------------------------------------------------------------------
# asymptotic limits at a second puncture


@dataclass(frozen=True)
class AsymptoticExpansion:
    """Limit expansion  Li(z) = sum_t a_t log^t r + o(1)  as z -> P_target
    along the recorded direction, r = |z - P_target|."""

    target: int
    base: int
    word: GeneralizedWord
    coefficients: tuple[complex, ...]
    error: float
    direction: complex

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _ladder_radii(r0: float, n_pts: int, floor: float) -> list[float]:
    """Geometric half-ladder r0 * 2^-m; finer half-steps are appended when
    more points are needed, coarser ones as a last resort."""
    exponents = [float(m) for m in range(_LADDER_RUNGS)]
    exponents += [_LADDER_RUNGS - 0.5 - k for k in range(_LADDER_RUNGS - 1)]
    radii = []
    for m in exponents:
        r = r0 * 2.0 ** -m
        if r > floor:
            radii.append(r)
        if len(radii) == n_pts:
            return sorted(radii, reverse=True)
    raise FitError(
        f"only {len(radii)} ladder points clear the pole guard, need {n_pts}; "
        "punctures too close for the requested word"
    )


def _ladder_fit(
    radii: np.ndarray, values: np.ndarray, r0: float, q_max: int, t1: int
) -> tuple[complex, float]:
    """Constant term of  y = a0 + sum_q (r/r0)^q * P_q(log r),  deg P_q <= t1.

    Weighted toward the fine end; the error estimate combines the residual
    with the shift seen when the two coarsest rungs are dropped.
    """
    x = np.log(radii)
    cols = [np.ones_like(x, dtype=complex)]
    for q in range(1, q_max + 1):
        base = (radii / r0) ** q
        for s in range(t1 + 1):
            cols.append(base * x ** s)
    a = np.column_stack(cols)
    wts = (r0 / radii) ** 2
    aw = a * wts[:, None]
    yw = values * wts
    coef, *_ = np.linalg.lstsq(aw, yw, rcond=None)
    trimmed, *_ = np.linalg.lstsq(aw[2:], yw[2:], rcond=None)
    # first-order noise propagation to the constant term, plus the shift
    # seen when the two coarsest rungs (the truncation-dominated ones) drop
    resid = aw @ coef - yw
    dof = max(1, len(yw) - aw.shape[1])
    sigma = math.sqrt(float((np.abs(resid) ** 2).sum()) / dof)
    gain = float(np.linalg.norm(np.linalg.pinv(aw)[0]))
    err = abs(coef[0] - trimmed[0]) + sigma * gain
    return complex(coef[0]), float(err)


def asymptotic_expansion(
    basis: FormBasis,
    i: int,
    j: int,
    w,
    *,
    tol: float = 1e-12,
) -> AsymptoticExpansion:
    """Expansion of the regularized integral from P_j as the end approaches P_i.

    Words beginning with the distinguished letter of P_i are rewritten by the
    leading-side shuffle decomposition, so every fitted quantity tends to a
    plain limit; log powers re-enter only through the exactly transported
    depth-one integral.
    """
    if i == j:
        raise ConfigError("target and base punctures must differ")
    _check_tol(tol)  # the zero word runs no quadrature
    ctx_i = good_puncture_ctx(basis, i)
    good_puncture_ctx(basis, j)
    gw = _as_gw(w)
    if gw.is_zero:
        return AsymptoticExpansion(i, j, gw, (0j,), 0.0, 1.0 + 0j)

    ki = ctx_i.form_label
    parts = decompose_leading(gw, ki)
    t1 = gw.max_length()
    p_i = basis.surface.punctures[i]
    p_j = basis.surface.punctures[j]
    direction = (p_j - p_i) / abs(p_j - p_i)
    r0 = _LADDER_RATIO * abs(p_j - p_i)

    n_unknowns = 1 + _ANALYTIC_DEGREE * (t1 + 1)
    n_pts = max(_LADDER_RUNGS, n_unknowns + 4)
    radii = _ladder_radii(r0, n_pts, _GUARD_MARGIN * basis.surface.pole_guard)
    points = [p_i + r * direction for r in radii]

    rt = RegularizedTransport.along(
        line_path(p_j, points[0]),
        basis,
        words=[word(ki), *(g for _, g in parts)],
        puncture=j,
        tol=tol,
    )
    u_vals = [rt.value(word(ki))]
    part_vals: dict[int, list[complex]] = {s: [rt.value(g)] for s, g in parts}
    for prev, nxt in zip(points, points[1:]):
        rt.extend(LineSegment(prev, nxt))
        u_vals.append(rt.value(word(ki)))
        for s, g in parts:
            part_vals[s].append(rt.value(g))

    rs = np.array(radii)
    log_r = np.log(rs)
    c_const, c_err = _ladder_fit(
        rs, np.array(u_vals, dtype=complex) - log_r, r0, _ANALYTIC_DEGREE, 1
    )
    fitted = {
        s: _ladder_fit(rs, np.array(vals, dtype=complex), r0, _ANALYTIC_DEGREE, t1)
        for s, vals in part_vals.items()
    }

    t0 = max(fitted)
    coeffs = []
    for t in range(t0 + 1):
        total = 0j
        for s, (a_s, _) in fitted.items():
            if s >= t:
                total += (
                    c_const ** (s - t)
                    / (math.factorial(t) * math.factorial(s - t))
                    * a_s
                )
        coeffs.append(total)

    bound = abs(c_const) + c_err
    err = rt.error
    for s, (a_s, e_s) in fitted.items():
        err += bound ** s / math.factorial(s) * e_s
        if s >= 1:
            err += s * bound ** (s - 1) / math.factorial(s) * abs(a_s) * c_err
    return AsymptoticExpansion(i, j, gw, tuple(coeffs), err, direction)


def mzv(basis: FormBasis, i: int, j: int, w, *, tol: float = 1e-12) -> complex:
    """Constant term of the asymptotic expansion: the multiple zeta value."""
    return asymptotic_expansion(basis, i, j, w, tol=tol).coefficients[0]


def zeta_word(n: int) -> GeneralizedWord:
    """Generalized word whose mzv on the sphere {0, 1} with i=1, j=0 is zeta(n).

    The minus sign compensates the orientation of the transport convention
    (the plain word evaluates to -Li_n at the endpoint).
    """
    if not isinstance(n, int) or n < 2:
        raise ConfigError("zeta(n) needs an integer n >= 2")
    return GeneralizedWord({Word((0,) * (n - 1) + (1,)): -1})


# ---------------------------------------------------------------------------
# associator and monodromy


@dataclass(frozen=True)
class AssociatorSeries:
    """The change-of-basepoint series  L_i(z)^{-1} L_j(z),  z-independent."""

    i: int
    j: int
    series: NcSeries
    probe_residual: float
    error: float


def associator(
    basis: FormBasis,
    i: int,
    j: int,
    *,
    depth: int,
    tol: float = 1e-12,
) -> AssociatorSeries:
    """Associator between the regularized transports based at P_i and P_j.

    Computed at the two probe points P_j + f (P_i - P_j), f = 0.5 and 0.3,
    on the connecting line; disagreement between them signals a convention
    or depth error and raises.
    """
    if i == j:
        raise ConfigError("associator needs two distinct punctures")
    p_i = _puncture(basis, i)
    p_j = _puncture(basis, j)
    results = []
    errors = []
    for f in _PROBE_FRACTIONS:
        z = p_j + f * (p_i - p_j)
        l_i = RegularizedTransport.along(
            line_path(p_i, z), basis, depth=depth, puncture=i, tol=tol
        )
        l_j = RegularizedTransport.along(
            line_path(p_j, z), basis, depth=depth, puncture=j, tol=tol
        )
        results.append(l_i.series().invert().product(l_j.series()))
        errors.append(l_i.error + l_j.error)
    residual = max(results[0].max_abs_diff(r) for r in results[1:])
    if residual > _CONSISTENCY_TOL:
        raise ConventionError(
            f"associator probes disagree by {residual:.3g} "
            f"(tolerance {_CONSISTENCY_TOL:.3g})"
        )
    return AssociatorSeries(i, j, results[0], residual, max(errors) + residual)


def monodromy(
    basis: FormBasis,
    loop: LoopSpec,
    j: int,
    *,
    depth: int,
    tol: float = 1e-12,
) -> NcSeries:
    """Analytic continuation of the regularized transport L_j around a loop.

    Returns the continued series at the loop basepoint: the loop transport
    composed with L_j(basepoint).  Regularized values depend on the approach
    direction at P_j (the leg here is the straight line from P_j); to compare
    against an associator, place the basepoint on the segment between the two
    punctures so the directions agree with its convention.
    """
    p_j = _puncture(basis, j)
    circuit = loop_around(loop, basis.surface)
    l_j = RegularizedTransport.along(
        line_path(p_j, loop.basepoint),
        basis,
        depth=depth,
        puncture=j,
        tol=tol,
    )
    around = transport_series(circuit, basis, depth=depth, tol=tol)
    return around.series.product(l_j.series())
