"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written with different algorithms from the
package code: shuffles by explicit position choice, zeta by Euler-Maclaurin
summation, winding numbers by dense midpoint quadrature, series products and
inverses on plain dicts (the inverse by its sum over compositions), the
nested segment solve one word at a time in plain Python sums, the genus-0
puncture derivative by its three-term partial fractions.  The
integration matrix is the one exception: its scalar loop is the very
arithmetic the package vectorizes, so the two must agree bit for bit.
"""

from __future__ import annotations

import cmath
from itertools import combinations


def brute_shuffle(a: tuple, b: tuple) -> dict[tuple, int]:
    """All interleavings of a and b by choosing the positions of a's letters."""
    n = len(a) + len(b)
    acc: dict[tuple, int] = {}
    for pos in combinations(range(n), len(a)):
        out = [None] * n
        for p, letter in zip(pos, a):
            out[p] = letter
        it = iter(b)
        for i in range(n):
            if out[i] is None:
                out[i] = next(it)
        key = tuple(out)
        acc[key] = acc.get(key, 0) + 1
    return acc


def ref_product(left: dict, right: dict, depth: int) -> dict:
    """Series product on dicts keyed by letter tuples, splits in order.

    A word up to ``depth`` is kept when every split u|v has u in ``left``
    and v in ``right``; the kept words come shortest first, in ``left``'s
    order within a length.
    """
    out = {}
    for w in sorted(left, key=len):
        if len(w) > depth:
            continue
        splits = [(left.get(w[:i]), right.get(w[i:])) for i in range(len(w) + 1)]
        if all(u is not None and v is not None for u, v in splits):
            out[w] = sum(u * v for u, v in splits)
    return out


def _compositions(w: tuple):
    """Every cut of w into nonempty consecutive pieces."""
    if not w:
        yield ()
        return
    for i in range(1, len(w) + 1):
        for rest in _compositions(w[i:]):
            yield (w[:i],) + rest


def ref_inverse(series: dict, depth: int) -> dict:
    """Inverse on a dict keyed by letter tuples, by the explicit sum

        L^-1[w] = sum over w = f_1 ... f_k, f_i nonempty, of
                  (-1)^k L[f_1] ... L[f_k] / c0^(k+1).

    A word up to ``depth`` is kept when every contiguous subword of it is in
    the support; otherwise some term is unknown.  The kept words come
    shortest first, in the series' order within a length.
    """
    c0 = series[()]
    out = {}
    for w in sorted(series, key=len):
        n = len(w)
        if n > depth:
            continue
        if any(w[i:j] not in series for i in range(n) for j in range(i + 1, n + 1)):
            continue
        total = 0
        for pieces in _compositions(w):
            term = (-1) ** len(pieces) / c0 ** (len(pieces) + 1)
            for f in pieces:
                term *= series[f]
            total += term
        out[w] = total
    return out


def ref_nested_solve(forms: dict, int_matrix, end_row, words) -> dict:
    """Iterated integrals of tail-closed words (letter tuples) on one piece.

    ``forms[a]`` holds the pulled-back form of letter a at the quadrature
    nodes.  Word by word, shortest first: the integrand of (a, *tail) is
    forms[a] times the nodewise integral of the tail, its coefficient is the
    end row applied to the integrand and its own nodewise integral the
    integration matrix applied to it.
    """
    n = len(end_row)
    nodewise = {(): [1.0] * n}
    out = {(): 1.0 + 0j}
    for w in sorted(set(words) - {()}, key=len):
        integrand = [f * t for f, t in zip(forms[w[0]], nodewise[w[1:]])]
        nodewise[w] = [sum(q * x for q, x in zip(row, integrand)) for row in int_matrix]
        out[w] = sum(e * x for e, x in zip(end_row, integrand))
    return out


def ref_integration_matrix(nodes, weights) -> list[list[float]]:
    """Q[q][p] = integral from 0 to nodes[q] of the p-th Lagrange basis
    polynomial, by the quadrature rule itself on [0, nodes[q]], one Lagrange
    product at a time in plain Python."""
    n = len(nodes)

    def lagrange(p: int, t: float) -> float:
        out = 1.0
        for r in range(n):
            if r != p:
                out *= (t - nodes[r]) / (nodes[p] - nodes[r])
        return out

    return [
        [
            upper * sum(weights[i] * lagrange(p, upper * nodes[i]) for i in range(n))
            for p in range(n)
        ]
        for upper in nodes
    ]


# Bernoulli numbers B_2, B_4, B_6 for the Euler-Maclaurin tail.
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0)


def zeta_em(s: int, cutoff: int = 50) -> float:
    """zeta(s) for integer s >= 2 via partial sum plus Euler-Maclaurin tail."""
    if s < 2:
        raise ValueError("need s >= 2")
    total = sum(k ** (-float(s)) for k in range(1, cutoff + 1))
    m = float(cutoff)
    total += m ** (1 - s) / (s - 1)
    total -= 0.5 * m ** (-s)
    # B_{2k}/(2k)! * s(s+1)...(s+2k-2) * m^{-s-2k+1}
    fact = 1.0
    rising = 1.0
    for k, b in enumerate(_BERNOULLI, start=1):
        fact *= (2 * k - 1) * (2 * k)
        rising = 1.0
        for l in range(2 * k - 1):
            rising *= s + l
        total += b / fact * rising * m ** (-s - 2 * k + 1)
    return total


def winding_number(points: list[complex], center: complex) -> float:
    """Total argument change / 2pi along a densely sampled closed polyline."""
    total = 0.0
    for p, q in zip(points, points[1:]):
        total += cmath.phase((q - center) / (p - center))
    return total / (2.0 * cmath.pi)


def three_term_variation(poles: list[complex], letters: tuple, k: int) -> dict[tuple, complex]:
    """Genus-0 derivative of Li_letters in the pole of the interior letter
    ``letters[k]`` (0-based, pairwise distinct letters; ``poles[a]`` is the
    pole of letter a), its fusion coefficients written out directly.

    Dropping the previous letter costs 1/(P_prev - P_k), dropping the next
    costs 1/(P_k - P_next), and dropping the moved letter itself costs minus
    the sum of the two.
    """
    p_prev, p_here, p_next = (poles[a] for a in letters[k - 1 : k + 2])
    c_prev = 1.0 / (p_prev - p_here)
    c_next = 1.0 / (p_here - p_next)
    return {
        letters[: k - 1] + letters[k:]: c_prev,
        letters[: k + 1] + letters[k + 2 :]: c_next,
        letters[:k] + letters[k + 1 :]: -(c_prev + c_next),
    }


def central_difference(f, x: float, h: float):
    return (f(x + h) - f(x - h)) / (2.0 * h)
