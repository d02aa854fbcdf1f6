"""Quadrature engine, noncommutative series, path transport."""

import cmath
import itertools
import math
import random

import mpmath
import numpy as np
import pytest

from iterint.errors import ConfigError, PoleProximityError, ToleranceError
from iterint.paths import (
    ArcSegment,
    LineSegment,
    LoopSpec,
    Path,
    line_path,
    loop_around,
    reverse,
)
from iterint.surfaces import FormBasis, SurfaceConfig, _form_values
from iterint.transport import (
    IntegralResult,
    NcSeries,
    all_words,
    compose_series,
    factor_closure,
    iterated_integral,
    segment_transport,
    tail_closure,
    transport_series,
)
import iterint.transport as transport_mod
from iterint.words import EMPTY_WORD, GeneralizedWord, Word, shuffle, word

from oracles import (
    leggauss_rule,
    ref_integration_matrix,
    ref_inverse,
    ref_nested_solve,
    ref_product,
)

# frozen references (20-digit evaluations of the classical polylogarithm)
LI2_06 = 0.72758630771633338951
LI3_06 = 0.65600251363298068323


@pytest.fixture(scope="module")
def sphere01():
    s = SurfaceConfig(0, (0, 1))
    return s, FormBasis.genus0(s)


class TestQuadrature:
    def test_integrates_polynomials_exactly(self):
        nodes = transport_mod._NODES
        q = transport_mod._INT_MATRIX
        e = transport_mod._END_ROW
        for d in range(16):
            vals = nodes ** d
            want = nodes ** (d + 1) / (d + 1)
            assert np.max(np.abs(q @ vals - want)) < 1e-15
            assert abs(e @ vals - 1.0 / (d + 1)) < 1e-15

    def test_integration_matrix_equals_scalar_loop(self):
        nodes = transport_mod._NODES.tolist()
        weights = transport_mod._END_ROW.tolist()
        want = ref_integration_matrix(nodes, weights)
        assert transport_mod._INT_MATRIX.tolist() == want

    def test_literal_rule_equals_leggauss(self):
        nodes, weights = leggauss_rule(16)
        assert np.array_equal(transport_mod._NODES, nodes)
        assert np.array_equal(transport_mod._END_ROW, weights)
        want = np.array(ref_integration_matrix(nodes.tolist(), weights.tolist()))
        assert np.array_equal(transport_mod._INT_MATRIX, want)


class TestWordSets:
    def test_all_words(self):
        ws = all_words(range(2), 3)
        assert len(ws) == 15
        assert ws[0] is EMPTY_WORD
        assert all(len(a) <= len(b) for a, b in zip(ws, ws[1:]))
        with pytest.raises(ConfigError):
            all_words(range(2), -1)

    def test_factor_closure(self):
        ws = factor_closure([word(0, 1, 2)]).words
        assert set(ws) == {
            EMPTY_WORD,
            word(0), word(1), word(2),
            word(0, 1), word(1, 2),
            word(0, 1, 2),
        }

    def test_tail_closure(self):
        ws = tail_closure([word(0, 1, 2)]).words
        assert set(ws) == {EMPTY_WORD, word(2), word(1, 2), word(0, 1, 2)}


class TestNcSeries:
    def test_identity_and_coefficient(self):
        support = all_words(range(2), 2)
        e = NcSeries.identity(support, 2)
        assert e.coefficient(EMPTY_WORD) == 1
        assert e.coefficient(word(0, 1)) == 0
        with pytest.raises(KeyError):
            e.coefficient(word(0, 0, 0))

    def test_generalized_word_coefficient(self):
        s = NcSeries({EMPTY_WORD: 1, word(0): 2.0, word(1): 3.0}, 1)
        gw = GeneralizedWord.of(word(0), 2) - GeneralizedWord.of(word(1))
        assert s.coefficient(gw) == 1.0
        zero = s.coefficient(GeneralizedWord({}))
        assert zero == 0 and type(zero) is complex

    def test_product_concatenation(self):
        support = all_words(range(2), 2)
        a_coeffs = {w: 0j for w in support}
        b_coeffs = {w: 0j for w in support}
        a_coeffs[EMPTY_WORD] = 1.0
        b_coeffs[EMPTY_WORD] = 1.0
        a_coeffs[word(0)] = 2.0
        b_coeffs[word(1)] = 3.0
        a, b = NcSeries(a_coeffs, 2), NcSeries(b_coeffs, 2)
        p = a.product(b)
        assert p.coefficient(word(0, 1)) == 6.0
        assert p.coefficient(word(1, 0)) == 0.0
        assert p.coefficient(word(0)) == 2.0 and p.coefficient(word(1)) == 3.0

    def test_product_drops_uncomputable_words(self):
        # right factor lacks the suffix (0): the word (1, 0) must vanish
        # from the result, not silently become zero
        left = NcSeries({EMPTY_WORD: 1, word(1): 2.0, word(1, 0): 0.5}, 2)
        right = NcSeries({EMPTY_WORD: 1, word(1): 1.0}, 2)
        p = left.product(right)
        assert word(1) in p.coeffs
        assert word(1, 0) not in p.coeffs

    def test_invert(self):
        support = all_words(range(2), 3)
        rng = np.random.default_rng(0)
        coeffs = {w: complex(rng.normal(), rng.normal()) for w in support}
        coeffs[EMPTY_WORD] = 1.0 + 0j
        s = NcSeries(coeffs, 3)
        both = s.product(s.invert())
        assert abs(both.coefficient(EMPTY_WORD) - 1) < 1e-14
        nonzero = max(abs(both.coefficient(w)) for w in support if not w.is_empty)
        assert nonzero < 1e-13

    def test_invert_drops_words_of_missing_factors(self):
        # (0) and (1) are not in the support: the (0, 1) coefficient of the
        # inverse is -2 if they are zero and something else otherwise
        inv = NcSeries({EMPTY_WORD: 1, word(0, 1): 2}, 2).invert()
        assert inv.coeffs == {EMPTY_WORD: 1}

    def test_supports_of_products_and_inverses(self):
        # a product or inverse keeps a factor's support object when it keeps
        # all of that factor's words, and gets a support of its own otherwise
        s = NcSeries({w: 0.5j for w in all_words(range(2), 3)}, 3)
        assert s.product(s).support is s.support
        assert s.invert().support is s.support
        assert NcSeries(dict(s.coeffs), 3).support is s.support
        left = NcSeries({EMPTY_WORD: 1, word(0): 2.0, word(1): 3.0, word(0, 1): 4.0}, 2)
        right = NcSeries({EMPTY_WORD: 1, word(0): 5.0, word(0, 1): 6.0}, 2)
        p = left.product(right)
        assert p.support is not left.support and p.support is not right.support
        assert p.coeffs == {EMPTY_WORD: 1, word(0): 7.0}
        assert p.product(left).coeffs == {EMPTY_WORD: 1, word(0): 9.0}
        # (0, 1) needs (1), which the right factor does not hold
        assert list(right.invert().coeffs) == [EMPTY_WORD, word(0)]
        # the same words in another order are one support
        u = NcSeries({word(0): 2.0, EMPTY_WORD: 1}, 1)
        for v in (u.product(u), u.invert()):
            assert v.support is u.support
            assert list(v.coeffs) == [EMPTY_WORD, word(0)]
        assert u.product(u).coeffs == {EMPTY_WORD: 1, word(0): 4.0}

    @pytest.mark.parametrize("seed", range(12))
    def test_product_and_invert_match_reference(self, seed):
        # random supports: mismatched between the factors, rarely
        # factor-closed, sometimes without the empty word, with exact zeros
        # of either sign; then the cases interned supports add: a product as
        # the next factor, a series rebuilt from an equal dict, equal words
        # on distinct supports, and a factor-closed sub-support
        rng = random.Random(seed)
        letters = rng.choice((2, 3))

        def coefficient():
            if rng.random() < 0.5:
                return complex(*[rng.choice((0.0, -0.0))] * 2)
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

        def draw():
            depth = rng.randint(2, 4)
            coeffs = {}
            for w in all_words(range(letters), depth):
                if rng.random() < (0.9 if w.is_empty else 0.75):
                    coeffs[w] = coefficient()
            if EMPTY_WORD in coeffs:
                coeffs[EMPTY_WORD] += 2.0
            return NcSeries(coeffs, depth)

        def plain(s):
            return {w.letters: c for w, c in s.coeffs.items()}

        def bits(z):
            # the value and the sign of each part, so that 0.0 != -0.0
            return [(x, math.copysign(1.0, x)) for x in (z.real, z.imag)]

        def check_product(x, y):
            series = x.product(y)
            got = plain(series)
            want = ref_product(plain(x), plain(y), min(x.depth, y.depth))
            assert list(got) == list(want)
            # the same splits summed in the same order from +0.0, so the
            # same bits, down to the sign of a zero sum
            assert all(bits(got[w]) == bits(want[w]) for w in want)
            return series

        def check_invert(x):
            if EMPTY_WORD not in x.coeffs:
                with pytest.raises(ConfigError):
                    x.invert()
                return
            got = plain(x.invert())
            want = ref_inverse(plain(x), x.depth)
            assert list(got) == list(want)
            assert all(abs(got[w] - want[w]) < 1e-12 for w in want)

        a, b = draw(), draw()
        ab = check_product(a, b)
        check_invert(a)
        c = draw()
        for x, y in ((ab, c), (c, ab), (ab, ab)):
            check_product(x, y)
        check_invert(ab)
        twin = NcSeries(dict(a.coeffs), a.depth)
        check_product(twin, b)
        check_product(a, twin)
        reordered = NcSeries(dict(rng.sample(list(a.coeffs.items()), len(a.coeffs))), a.depth)
        check_product(reordered, reordered)
        check_product(reordered, a)
        check_invert(reordered)
        # a word's sum does not depend on the other words of the support
        words = all_words(range(letters), 4)
        full_x, full_y = (NcSeries({w: coefficient() for w in words}, 4) for _ in range(2))
        sub = factor_closure(rng.sample(words, 4)).words
        sub_x, sub_y = (NcSeries({w: s.coeffs[w] for w in sub}, 4) for s in (full_x, full_y))
        full, restricted = plain(full_x.product(full_y)), plain(check_product(sub_x, sub_y))
        assert all(bits(c) == bits(full[w]) for w, c in restricted.items())
        # the same words have the one support
        shifted = NcSeries({w: v + rng.uniform(-1, 1) for w, v in a.coeffs.items()}, a.depth)
        assert shifted.support is a.support
        for x, y in ((a, shifted), (shifted, a), (a, b), (ab, c)):
            px, py = plain(x), plain(y)
            want = max((abs(px[w] - py[w]) for w in px.keys() & py.keys()), default=math.inf)
            # numpy's and Python's complex abs may differ in the last bit
            assert x.max_abs_diff(y) == pytest.approx(want, rel=1e-15)

    def test_max_abs_diff_misses_no_given_word(self):
        # a given word that one side lacks makes the difference unbounded;
        # without words= only the shared words are compared
        one = NcSeries({EMPTY_WORD: 1}, 4)
        more = NcSeries({EMPTY_WORD: 1, word(0): 3}, 4)
        for x, y in ((one, more), (more, one)):
            assert x.max_abs_diff(y, words=[EMPTY_WORD, word(0)]) == math.inf
            assert x.max_abs_diff(y, words=[EMPTY_WORD]) == 0.0
            assert x.max_abs_diff(y) == 0.0

    def test_invert_needs_constant_term(self):
        with pytest.raises(ConfigError):
            NcSeries({EMPTY_WORD: 0j, word(0): 1.0}, 1).invert()
        with pytest.raises(ConfigError):
            NcSeries({word(0): 1.0}, 1).invert()


class TestTransportKnownValues:
    def test_log_four(self, sphere01):
        _, b = sphere01
        r = iterated_integral(line_path(0.2, 0.8), word(0), b)
        assert abs(r.value - math.log(4)) < 1e-13
        assert r.error < 1e-12

    def test_depth_one_log_ratio(self, sphere01):
        _, b = sphere01
        a, z = 0.05, 0.6
        t = transport_series(line_path(a, z), b, depth=1)
        assert abs(t.series.coefficient(word(1)) - cmath.log((1 - z) / (1 - a))) < 1e-14

    def test_from_puncture_gives_polylogs(self, sphere01):
        # V-transport anchored at the puncture 0 for words not ending in 0:
        # the (0,1) coefficient is -Li_2(z) and (0,0,1) is -Li_3(z).  This
        # pins the stored-letter convention.
        _, b = sphere01
        req = [word(0, 1), word(0, 0, 1), word(1)]
        full = factor_closure(req).words
        zw = [w for w in tail_closure(req).words if w.is_empty or w.letters[-1] != 0]
        series, err = segment_transport(
            b, LineSegment(0.0, 0.6), full, zero_words=zw, exempt=0, tol=1e-13
        )
        assert err < 1e-11
        assert abs(series.coefficient(word(0, 1)) + LI2_06) < 1e-13
        assert abs(series.coefficient(word(0, 0, 1)) + LI3_06) < 1e-13
        assert abs(series.coefficient(word(1)) - math.log(0.4)) < 1e-13

    def test_support_without_tails_is_a_config_error(self, sphere01):
        # a nested solve integrates a word's tail first, so the tail must be
        # in the support; a missing one is named, not a bare KeyError
        _, b = sphere01
        seg = LineSegment(0.2, 0.6)
        with pytest.raises(ConfigError, match=r"Word\(0,1\) but not its tail Word\(1\)"):
            segment_transport(b, seg, [word(0, 1)])
        full = factor_closure([word(0, 1)]).words
        with pytest.raises(ConfigError, match=r"tail Word\(1,0\)"):
            segment_transport(b, seg, full, zero_words=[word(0, 1, 0)])

    def test_loop_depth_one(self, sphere01):
        s, b = sphere01
        loop = loop_around(LoopSpec(0, 1, basepoint=0.4 + 0.1j), s)
        t = transport_series(loop, b, depth=1, tol=1e-12)
        assert abs(t.series.coefficient(word(0)) - 2j * math.pi) < 1e-12
        assert abs(t.series.coefficient(word(1))) < 1e-12
        back = loop_around(LoopSpec(0, -2, basepoint=0.4 + 0.1j), s)
        t = transport_series(back, b, depth=1, tol=1e-12)
        assert abs(t.series.coefficient(word(0)) + 4j * math.pi) < 1e-12


class TestTransportProperties:
    def test_shuffle_products(self, sphere01):
        _, b = sphere01
        p = line_path(0.1 + 0.2j, 0.7 + 0.1j)
        pairs = [
            (word(0), word(1)),
            (word(0), word(0, 1)),
            (word(0, 1), word(1, 0)),
        ]
        for u, v in pairs:
            sh = shuffle(u, v)
            r = iterated_integral(p, [u, v, sh], b, tol=1e-13)
            assert abs(r.values[0] * r.values[1] - r.values[2]) < 1e-12

    def test_homotopy_invariance(self, sphere01):
        _, b = sphere01
        straight = line_path(0.2 + 0.1j, 0.8 + 0.1j)
        detour = Path((ArcSegment(0.5 + 0.1j, 0.3, math.pi, 0.0),))
        ta = transport_series(straight, b, depth=3, tol=1e-13).series
        tb = transport_series(detour, b, depth=3, tol=1e-13).series
        assert ta.max_abs_diff(tb) < 1e-11

    def test_compose_matches_direct(self, sphere01):
        _, b = sphere01
        p1 = line_path(0.1 + 0.2j, 0.4 + 0.3j)
        p2 = line_path(0.4 + 0.3j, 0.7 + 0.1j)
        joined = Path(p1.segments + p2.segments)
        direct = transport_series(joined, b, depth=3, tol=1e-13).series
        composed = compose_series(
            transport_series(p2, b, depth=3, tol=1e-13).series,
            transport_series(p1, b, depth=3, tol=1e-13).series,
        )
        assert direct.max_abs_diff(composed) < 1e-12

    def test_reverse_is_inverse(self, sphere01):
        _, b = sphere01
        p = Path(
            (
                LineSegment(0.1 + 0.2j, 0.5 + 0.4j),
                LineSegment(0.5 + 0.4j, 0.7 + 0.1j),
            )
        )
        fwd = transport_series(p, b, depth=3, tol=1e-13).series
        bwd = transport_series(reverse(p), b, depth=3, tol=1e-13).series
        assert bwd.max_abs_diff(fwd.invert()) < 1e-11

    def test_differential_at_endpoint(self, sphere01):
        # d/dz L[w] = f_{w[0]}(z) * L[tail of w]
        _, b = sphere01
        a = 0.15 + 0.1j
        z = 0.55 + 0.2j
        h = 1e-5
        w = word(0, 1)
        vals = {}
        for dz in (-h, 0.0, h):
            t = transport_series(line_path(a, z + dz), b, depth=2, tol=1e-13)
            vals[dz] = t.series
        fd = (vals[h].coefficient(w) - vals[-h].coefficient(w)) / (2 * h)
        expect = (1.0 / z) * vals[0.0].coefficient(word(1))
        assert abs(fd - expect) / abs(expect) < 1e-5

    def test_magnitude_bound(self, sphere01):
        # |L_w| <= (sup|g|)^r / r! in the global parametrization
        _, b = sphere01
        p = line_path(0.2 + 0.3j, 0.6 + 0.2j)
        ts = np.linspace(0, 1, 200)
        m = max(
            abs(p.velocity(t)) * max(abs(1.0 / p.point(t)), abs(1.0 / (p.point(t) - 1)))
            for t in ts
        )
        t = transport_series(p, b, depth=4, tol=1e-13).series
        for w in all_words(range(2), 4):
            r = len(w)
            if r:
                assert abs(t.coefficient(w)) <= 1.05 * m ** r / math.factorial(r)

    def test_group_like(self, sphere01):
        # exp-of-Lie shape: every shuffle relation at depth 4 in one sweep
        _, b = sphere01
        t = transport_series(line_path(0.3 + 0.2j, 0.6 + 0.35j), b, depth=4, tol=1e-13).series
        for u, v in (
            (word(0), word(1, 0, 1)),
            (word(0, 1), word(0, 1)),
            (word(1), word(0, 0, 1)),
        ):
            sh = shuffle(u, v)
            assert abs(t.coefficient(u) * t.coefficient(v) - t.coefficient(sh)) < 1e-12

    def test_tolerance_drives_refinement(self, sphere01):
        # a path passing near the second puncture: a loose tolerance stops
        # after a visibly wrong coarse sweep, a tight one bisects it away,
        # and each reported error covers the true difference
        _, b = sphere01
        p = line_path(0.5 + 0.04j, 1.5 + 0.04j)
        ref = transport_series(p, b, depth=2, tol=1e-13).series
        coarse, fine = (transport_series(p, b, depth=2, tol=tol) for tol in (1e-2, 1e-8))
        coarse_diff = ref.max_abs_diff(coarse.series)
        fine_diff = ref.max_abs_diff(fine.series)
        assert fine_diff < coarse_diff
        assert fine_diff < 1e-8
        assert coarse.error >= coarse_diff
        assert fine.error >= fine_diff


class TestTorusRelations:
    def test_fundamental_group_relations(self):
        # the forms are elliptic, so the boundary of a period parallelogram
        # with corner c transports as B^-1 A^-1 B A, with A and B the
        # transports from c to c + 1 and to c + tau; it is also the product
        # of the loops around the punctures based at c, taken in increasing
        # angle from c (puncture 1 first, then 0, then 2), and no other order
        tau = 0.1 + 1.05j
        s = SurfaceConfig(1, (0.0, 0.45, 0.25 + 0.35j), tau=tau)
        b = FormBasis.genus1(s)
        c = -0.2 - 0.15j
        corners = [c, c + 1, c + 1 + tau, c + tau, c]
        boundary = Path(tuple(LineSegment(x, y) for x, y in zip(corners, corners[1:])))

        def transport(path):
            return transport_series(path, b, depth=3).series

        total = transport(boundary)
        a, bb = transport(line_path(c, c + 1)), transport(line_path(c, c + tau))
        commutator = bb.invert().product(a.invert()).product(bb).product(a)
        assert total.max_abs_diff(commutator) < 1e-13
        loops = [transport(loop_around(LoopSpec(k, 1, basepoint=c), s)) for k in range(3)]
        for order in itertools.permutations(range(3)):
            product = loops[order[0]]
            for k in order[1:]:
                product = loops[k].product(product)
            if order == (1, 0, 2):
                assert total.max_abs_diff(product) < 1e-12
            else:
                assert total.max_abs_diff(product) > 1, order


class TestBatchedSolve:
    @pytest.mark.parametrize("genus", [0, 1])
    def test_matches_per_word_reference(self, genus):
        # random tail-closed supports over 2-4 letters up to depth 5, on a
        # piece clear of the punctures and on the start piece of a segment
        # leaving a good puncture, solved on the words not ending in its letter
        punctures = (0.0, 0.45, 0.25 + 0.35j, 0.65 + 0.8j)
        rng = random.Random(17 + genus)
        for _ in range(6):
            n = rng.randint(2, 4)
            if genus == 0:
                b = FormBasis.genus0(SurfaceConfig(0, punctures[:n]))
                start, singular, end = 0, 0, 0.4 + 0.3j
            else:
                b = FormBasis.genus1(SurfaceConfig(1, punctures[:n], tau=0.1 + 1.05j))
                start, singular, end = 1, 1, 0.3 + 0.2j
            drawn = [
                Word(tuple(rng.randrange(n) for _ in range(rng.randint(1, 5))))
                for _ in range(rng.randint(1, 12))
            ]
            support = list(tail_closure(drawn).words)
            rng.shuffle(support)  # the package's support of it is in word order
            zero = [w for w in support if w.is_empty or w[-1] != singular]
            leg = LineSegment(b.surface.punctures[start], end)
            pieces = (
                (LineSegment(0.2 + 0.5j, 0.7 + 0.6j), support, None),
                (leg.restrict(0.0, 0.5), zero, start),
            )
            for seg, words, exempt in pieces:
                plan = transport_mod._solve_plan(transport_mod._support_of(words))
                got = transport_mod._solve_segment(b, seg, plan, exempt)
                labels = list(range(n))
                forms = _form_values(
                    b, labels, seg.point(transport_mod._NODES), exempt=exempt
                ) * seg.velocity(transport_mod._NODES)
                want = ref_nested_solve(
                    dict(zip(labels, forms.tolist())),
                    transport_mod._INT_MATRIX.tolist(),
                    transport_mod._END_ROW.tolist(),
                    [w.letters for w in words],
                )
                assert {w.letters for w in got.coeffs} == set(want)
                scale = max(abs(c) for c in want.values())
                for w, c in got.coeffs.items():
                    assert abs(c - want[w.letters]) <= 1e-14 * scale, w


class TestErrorCalibration:
    @pytest.mark.parametrize("tau", [0.5j, 1j, 0.3 + 0.8j])
    def test_depth_one_error_bounds_the_truth(self, tau):
        # an elliptic form is a difference of dlog theta11, so its integral
        # is a difference of log-ratios of theta along the segment; summing
        # the logs over short steps keeps every ratio off the branch cut
        s = SurfaceConfig(1, (0.0, 0.45, 0.25 + 0.35j), tau=tau)
        b = FormBasis.genus1(s)
        segments = [
            (0.6 + 0.2j, 0.75 + 0.3j),
            (0.1 + 0.3j, -0.05 + 0.4j),
            (0.3 - 0.2j, 0.45 - 0.1j),
            (0.7 + 0.45j, 0.6 + 0.6j),
        ]
        with mpmath.workdps(20):
            q = mpmath.exp(1j * mpmath.pi * tau)
            for a, e in segments:
                r = transport_series(line_path(a, e), b, depth=1)
                steps = [a + (e - a) * i / 8 for i in range(9)]

                def log_ratio(p):
                    th = lambda x: mpmath.jtheta(1, mpmath.pi * (x - p), q)
                    return sum(mpmath.log(th(z1) / th(z0)) for z0, z1 in zip(steps, steps[1:]))

                for k in (1, 2):
                    f = b.forms[k]
                    want = complex(log_ratio(s.punctures[f.k1]) - log_ratio(s.punctures[f.k2]))
                    assert abs(r.series.coefficient(word(k)) - want) <= r.error, (a, k)


class TestGuardsAndValidation:
    def test_path_through_pole(self, sphere01):
        _, b = sphere01
        # symmetric hit: quadrature errors cancel to a principal value, so
        # only the geometric pre-flight can catch it
        with pytest.raises(PoleProximityError):
            transport_series(line_path(0.5, 1.5), b, depth=1, tol=1e-12)
        with pytest.raises(PoleProximityError):
            transport_series(line_path(0.5, 1.7), b, depth=1, tol=1e-12)
        # near miss inside the guard band
        with pytest.raises(PoleProximityError):
            transport_series(line_path(0.5 + 1e-8j, 1.5 + 1e-8j), b, depth=1)

    def test_lattice_copy_proximity(self):
        s = SurfaceConfig(1, (0.0, 0.3 + 0.2j), tau=1j)
        b = FormBasis.genus1(s)
        # passes through 1.3+1.2j, a lattice copy of puncture 1
        with pytest.raises(PoleProximityError):
            transport_series(line_path(1.0 + 1.2j, 1.6 + 1.2j), b, depth=1)
        # skewed thin torus: passes through 3*tau - 1 = 0.2+0.24j, a copy of
        # puncture 0 outside a 3x3 search around the segment's sample points
        tau = 0.4 + 0.08j
        b = FormBasis.genus1(SurfaceConfig(1, (0, 0.5 + 0.5 * tau), tau=tau))
        seg = line_path(
            0.534298402242217 - 0.4729225249456097j, -0.0005790413453300447 + 0.6677535149673659j
        )
        with pytest.raises(PoleProximityError, match="puncture 0"):
            transport_series(seg, b, depth=1)

    def test_tolerance_error(self, sphere01, monkeypatch):
        _, b = sphere01
        monkeypatch.setattr(transport_mod, "_MAX_LEVEL", 2)
        with pytest.raises(ToleranceError):
            transport_series(line_path(0.5 + 0.04j, 1.5 + 0.04j), b, depth=2, tol=1e-14)

    def test_argument_validation(self, sphere01):
        _, b = sphere01
        p = line_path(0.2, 0.8)
        with pytest.raises(ConfigError):
            transport_series(p, b, depth=2, words=[word(0)])
        with pytest.raises(ConfigError):
            transport_series(p, b)
        with pytest.raises(ConfigError):
            transport_series(p, b, depth=2, tol=0.0)
        with pytest.raises(ConfigError):
            transport_series(p, b, words=[word(5)])
        with pytest.raises(ConfigError):
            transport_series(line_path(0.2, 0.8, reg_start=0), b, depth=1)


class TestIteratedIntegral:
    def test_generalized_word_linearity(self, sphere01):
        _, b = sphere01
        p = line_path(0.2 + 0.1j, 0.6 + 0.3j)
        gw = GeneralizedWord.of(word(0), 2) - GeneralizedWord.of(word(1))
        r = iterated_integral(p, [gw, word(0), word(1)], b)
        assert abs(r.values[0] - (2 * r.values[1] - r.values[2])) < 1e-14

    def test_empty_word(self, sphere01):
        _, b = sphere01
        r = iterated_integral(line_path(0.2, 0.8), EMPTY_WORD, b)
        assert r.value == 1.0

    def test_depth_zero_on_loops(self, sphere01):
        # no letter to evaluate: the nodes of the arc yield an empty form table
        s, b = sphere01
        loop = loop_around(LoopSpec(0, 1, basepoint=0.4 + 0.1j), s)
        assert transport_series(loop, b, depth=0).series.coefficient(EMPTY_WORD) == 1.0
        torus = SurfaceConfig(1, (0, 0.5 + 0.3j), tau=1j)
        loop = loop_around(LoopSpec(1, 1, basepoint=0.2 + 0.1j), torus)
        assert iterated_integral(loop, EMPTY_WORD, FormBasis.genus1(torus)).value == 1.0

    def test_zero_generalized_word(self, sphere01):
        _, b = sphere01
        r = iterated_integral(line_path(0.2, 0.8), GeneralizedWord.zero(), b)
        assert r.value == 0j

    def test_path_id_and_errors(self, sphere01):
        _, b = sphere01
        p = line_path(0.2, 0.8)
        r = iterated_integral(p, word(0), b)
        assert isinstance(r, IntegralResult)
        with pytest.raises(ConfigError):
            iterated_integral(p, "01", b)
        with pytest.raises(ConfigError):
            iterated_integral(p, [word(0), word(1)], b).value
