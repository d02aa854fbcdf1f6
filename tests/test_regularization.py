"""Regularized transport, zeta extraction, associator, monodromy."""

import cmath
import math
import random

import mpmath
import numpy as np
import pytest

from iterint.errors import (
    ConfigError,
    EndpointMismatchError,
    FitError,
    MissingLabelError,
    NotGoodPunctureError,
)
from iterint.paths import ArcSegment, LineSegment, LoopSpec, Path, line_path
from iterint.regularization import (
    RegularizedTransport,
    associator,
    asymptotic_expansion,
    good_puncture_ctx,
    monodromy,
    mzv,
    reg_iterated,
    reg_line_integral,
    zeta_word,
)
from iterint.surfaces import FormBasis, SurfaceConfig, eval_form
import iterint.regularization as regularization_mod
import iterint.transport as transport_mod
import iterint.words as words_mod
from iterint.transport import NcSeries, all_words, iterated_integral, transport_series
from iterint.words import (
    EMPTY_WORD,
    GeneralizedWord,
    Word,
    decompose_at,
    decompose_leading,
    shuffle,
    word,
    word_power,
)

from oracles import strip_decomposition, zeta_em

LI2_06 = 0.72758630771633338951
ZETA2 = math.pi ** 2 / 6.0
ZETA3 = 1.2020569031595942854


@pytest.fixture(scope="module")
def sphere01():
    s = SurfaceConfig(0, (0, 1))
    return s, FormBasis.genus0(s)


@pytest.fixture(scope="module")
def torus3():
    s = SurfaceConfig(1, (0.0, 0.45, 0.25 + 0.35j), tau=1j)
    return s, FormBasis.genus1(s)


class TestGoodPuncture:
    def test_sphere_punctures_are_good(self, sphere01):
        _, b = sphere01
        for j in (0, 1):
            ctx = good_puncture_ctx(b, j)
            assert ctx.puncture == j
            assert ctx.form_label == j
            assert abs(ctx.residue_probe - 1.0) < 1e-6

    def test_torus_star_center_is_not_good(self, torus3):
        _, b = torus3
        for j in (1, 2):
            assert good_puncture_ctx(b, j).form_label == j
        with pytest.raises(NotGoodPunctureError):
            good_puncture_ctx(b, 0)

    def test_index_validation(self, sphere01):
        _, b = sphere01
        with pytest.raises(ConfigError):
            good_puncture_ctx(b, 5)


class TestRegLineIntegral:
    def test_pole_form_on_straight_ray(self, sphere01):
        # the angle never varies on a ray from the pole, so the finite part
        # is the plain log of the endpoint distance
        _, b = sphere01
        z = 0.7 + 0.4j
        r = reg_line_integral(line_path(0.0, z), 0, b)
        assert abs(r.value - math.log(abs(z))) < 1e-13
        assert r.log_coefficient == 1
        assert abs(r.direction - z / abs(z)) < 1e-15

    def test_regular_form_is_plain_integral(self, sphere01):
        _, b = sphere01
        z = 0.7 + 0.4j
        r = reg_line_integral(line_path(0.0, z), 1, b)
        assert abs(r.value - cmath.log((1 - z) / (1 - 0))) < 1e-13
        assert r.log_coefficient == 0

    def test_log_coefficient_matches_residue_probe(self, sphere01):
        _, b = sphere01
        r = reg_line_integral(line_path(0.0, 0.5), 0, b)
        eps = 1e-6
        probe = eps * eval_form(b, 0, eps + 0j, guard=0.0)
        assert abs(probe - r.log_coefficient) < 1e-5

    def test_bent_path_collects_angle(self, sphere01):
        _, b = sphere01
        p = Path((LineSegment(0.0, 0.5), LineSegment(0.5, 0.5 + 0.5j)))
        r = reg_line_integral(p, 0, b)
        want = cmath.log(0.5 + 0.5j) - 1j * cmath.phase(0.5)
        assert abs(r.value - want) < 1e-13

    def test_arc_whose_circle_meets_the_pole(self):
        # the arc from 2 to 1+i lies on the circle |z - 1| = 1, which passes
        # through the pole 0, but stays sqrt(2) away from it: the finite part
        # is log(1+i), and the convergent word (0, 1) equals its value along
        # the straight path from 0 to 1+i
        b = FormBasis.genus0(SurfaceConfig(0, (0.0, 3.0)))
        bent = Path((LineSegment(0, 2), ArcSegment(1, 1.0, 0.0, math.pi / 2)), reg_start=0)
        lam = reg_line_integral(bent, 0, b).value
        assert abs(lam - cmath.log(1 + 1j)) <= 1e-15
        around = RegularizedTransport.along(bent, b, words=[word(0, 1)])
        straight = RegularizedTransport.along(line_path(0, 1 + 1j, reg_start=0), b, words=[word(0, 1)])
        gap = abs(around.value(word(0, 1)) - straight.value(word(0, 1)))
        assert gap <= around.error + straight.error

    def test_torus_subtraction_matches_mpmath(self, torus3):
        s, b = torus3
        # straight ray from P_1: the subtracted integrand is analytic and a
        # direct high-precision quadrature of the same difference must agree
        end = s.punctures[1] + 0.12 - 0.06j
        r = reg_line_integral(line_path(s.punctures[1], end), 1, b)

        with mpmath.workdps(30):
            q = mpmath.exp(1j * mpmath.pi * 1j)
            theta = lambda x: -mpmath.jtheta(1, mpmath.pi * x, q)
            dlog = lambda x: mpmath.diff(theta, x) / theta(x)

            def integrand(t):
                z = s.punctures[1] + t * (end - s.punctures[1])
                zeta = z - s.punctures[1]
                sub = dlog(zeta) - 1 / zeta if abs(zeta) > 0 else 0
                return (sub - dlog(z - s.punctures[0])) * (end - s.punctures[1])

            want = mpmath.quad(integrand, [0, 1]) + mpmath.log(abs(end - s.punctures[1]))
        assert abs(r.value - complex(want)) < 1e-11

    def test_small_im_tau_does_not_stall(self):
        # at small Im(tau) the subtracted integrand is rough at the rounding
        # level, so refinement must stop at the rounding floor, and the
        # reported error must still cover the gap to mpmath
        for tau in (0.3j, 0.15j, 0.1j):
            s = SurfaceConfig(1, (0.0, 0.45, 0.25 + 0.35j), tau=tau)
            b = FormBasis.genus1(s)
            start, end = s.punctures[2], 0.35 + 0.175j
            r = reg_line_integral(line_path(start, end), 2, b)

            with mpmath.workdps(20):
                q = mpmath.exp(1j * mpmath.pi * s.tau)

                def dlog(x):
                    u = mpmath.pi * x
                    return mpmath.pi * mpmath.jtheta(1, u, q, 1) / mpmath.jtheta(1, u, q)

                def integrand(t):
                    z = start + t * (end - start)
                    zeta = z - start
                    return (dlog(zeta) - 1 / zeta - dlog(z - s.punctures[0])) * (end - start)

                want = mpmath.quad(integrand, [0, 1]) + mpmath.log(abs(end - start))
            assert abs(r.value - complex(want)) <= r.error, tau

    def test_start_must_sit_on_puncture(self, sphere01):
        _, b = sphere01
        with pytest.raises(EndpointMismatchError):
            reg_line_integral(line_path(0.2, 0.8), 0, b)
        with pytest.raises(ConfigError):
            reg_line_integral(line_path(0.0, 0.5), 7, b)


class TestErrorCalibration:
    @pytest.mark.parametrize(
        "z", [0.3, -0.5, 0.9, 0.6 + 0.3j, -0.4 + 0.7j, 0.2 - 0.85j, -0.9j]
    )
    def test_polylog_error_bounds_the_truth(self, sphere01, z):
        # the word 0^(n-1) 1 from the puncture 0 is -Li_n(z); every reported
        # error must cover the distance to the mpmath value
        _, b = sphere01
        for n in range(2, 11):
            w = Word((0,) * (n - 1) + (1,))
            rt = RegularizedTransport.along(line_path(0.0, z), b, words=[w], puncture=0)
            with mpmath.workdps(30):
                want = -complex(mpmath.polylog(n, z))
            assert abs(rt.value(w) - want) <= rt.error, n


class TestRegIterated:
    def test_single_distinguished_letter(self, sphere01):
        _, b = sphere01
        p = line_path(0.0, 0.55 + 0.2j)
        assert abs(
            reg_iterated(p, word(0), b) - reg_line_integral(p, 0, b).value
        ) < 1e-13

    def test_power_words_are_scalar_powers(self, sphere01):
        _, b = sphere01
        p = line_path(0.0, 0.55 + 0.2j)
        lam = reg_line_integral(p, 0, b).value
        assert abs(reg_iterated(p, word(0, 0), b) - lam ** 2 / 2) < 1e-13
        assert abs(reg_iterated(p, word(0, 0, 0), b) - lam ** 3 / 6) < 1e-13

    def test_convergent_words_match_polylog(self, sphere01):
        _, b = sphere01
        rt = RegularizedTransport.along(
            line_path(0.0, 0.6), b, words=[word(0, 1)], puncture=0
        )
        assert abs(rt.value(word(0, 1)) + LI2_06) < 1e-12

    def test_shuffle_relation(self, sphere01):
        _, b = sphere01
        p = line_path(0.0, 0.55 + 0.2j)
        rng = random.Random(11)
        for _ in range(20):
            u = Word(tuple(rng.randrange(2) for _ in range(rng.randint(1, 3))))
            v = Word(tuple(rng.randrange(2) for _ in range(rng.randint(1, 3))))
            lhs = reg_iterated(p, u, b) * reg_iterated(p, v, b)
            rhs = reg_iterated(p, shuffle(u, v), b)
            assert abs(lhs - rhs) < 1e-9

    def test_shuffle_relation_torus(self, torus3):
        s, b = torus3
        p = line_path(s.punctures[1], 0.3 + 0.2j)
        rng = random.Random(5)
        for _ in range(8):
            u = Word(tuple(rng.randrange(3) for _ in range(rng.randint(1, 2))))
            v = Word(tuple(rng.randrange(3) for _ in range(rng.randint(1, 2))))
            lhs = reg_iterated(p, u, b) * reg_iterated(p, v, b)
            rhs = reg_iterated(p, shuffle(u, v), b)
            assert abs(lhs - rhs) < 1e-9

    def test_differential_relation(self, sphere01):
        # d/dz Li_w(z) = f_{w_1}(z) Li_{tail}(z), checked by a 4th-order
        # central difference in the endpoint
        _, b = sphere01
        z, h = 0.6 + 0.15j, 1e-4
        for w in (word(0, 1), word(1, 0, 1)):
            tail = Word(w.letters[1:])

            def li(at, wd=w):
                return reg_iterated(line_path(0.0, at), wd, b)

            deriv = (-li(z + 2 * h) + 8 * li(z + h) - 8 * li(z - h) + li(z - 2 * h)) / (
                12 * h
            )
            rhs = eval_form(b, w[0], z) * reg_iterated(line_path(0.0, z), tail, b)
            assert abs(deriv - rhs) / abs(rhs) < 1e-5

    def test_value_is_linear(self, sphere01):
        _, b = sphere01
        p = line_path(0.0, 0.5)
        gw = GeneralizedWord({word(0, 1): 2.0, word(1): -1j})
        rt = RegularizedTransport.along(p, b, words=[word(0, 1), word(1)], puncture=0)
        want = 2.0 * rt.value(word(0, 1)) - 1j * rt.value(word(1))
        assert abs(rt.value(gw) - want) < 1e-15
        assert rt.value(word()) == 1.0

    def test_values_are_python_complex(self, sphere01):
        _, b = sphere01
        p = line_path(0.0, 0.5)
        rt = RegularizedTransport.along(p, b, words=[word(0, 1), word(1)], puncture=0)
        for w in (word(0, 1), GeneralizedWord({word(0, 1): 2.0, word(1): -1j}), word()):
            assert type(rt.value(w)) is complex, w
        assert type(reg_iterated(p, word(0, 1), b)) is complex

    def test_second_extend_reuses_the_split_plan(self, sphere01):
        # the assembled support is ordered as the full plan orders its words,
        # so a product onto it keeps it and every extend gathers by one plan
        _, b = sphere01
        rt = RegularizedTransport.along(
            line_path(0.0, 0.4 + 0.3j), b, words=[word(0, 1, 1), word(1, 0)], puncture=0
        )
        rt.extend(LineSegment(0.4 + 0.3j, 0.5 + 0.1j))
        misses = transport_mod._split_plan.cache_info().misses
        rt.extend(LineSegment(0.5 + 0.1j, 0.6 + 0.2j))
        assert transport_mod._split_plan.cache_info().misses == misses

    def test_unrequested_word_raises(self, sphere01):
        # the tails of a requested word are readable; any other word raises
        _, b = sphere01
        rt = RegularizedTransport.along(
            line_path(0.0, 0.5), b, words=[word(0, 1)], puncture=0
        )
        assert rt.value(word(1)) == rt.series().coefficient(word(1))
        assert abs(rt.value(word(1)) - math.log(0.5)) < 1e-14
        for w in (word(1, 1), word(0), word(1, 0)):
            with pytest.raises(MissingLabelError):
                rt.value(w)

    @staticmethod
    def _decomposition_sum(v, lam, w, kj):
        """sum_i lam^i/i! * V[w(i)] term by term, and the sum of the terms'
        moduli."""
        terms = [
            lam ** i / math.factorial(i) * c * v.coefficient(u)
            for i, gw in decompose_at(w, kj)
            for u, c in gw.items()
        ]
        return sum(terms), sum(abs(t) for t in terms)

    @staticmethod
    def _requested(b, kj):
        """The words= request of the assembly tests: every run of the letter,
        and eight words drawn at random."""
        rng = random.Random(23)
        requested = [word(kj), word(kj, kj), word(1 - kj, kj), word(kj, 1 - kj, kj, kj)]
        requested += [
            Word(tuple(rng.randrange(b.n_forms) for _ in range(rng.randint(1, 4))))
            for _ in range(8)
        ]
        return requested

    @staticmethod
    def _words_plan(requested, kj):
        return regularization_mod._assembly_plan(transport_mod._support_of(requested), kj)

    @staticmethod
    def _depth_plan(n_forms, depth, kj):
        return regularization_mod._assembly_plan(
            transport_mod._all_words(tuple(range(n_forms)), depth), kj
        )

    @pytest.mark.parametrize("genus", [0, 1])
    def test_assembly_matches_decomposition(self, genus, sphere01, torus3):
        # at the start every requested word, those ending in the distinguished
        # letter among them, is sum_i lam^i/i! V[w(i)]; an extend then
        # multiplies the series by the extension's transport
        s, b = (sphere01, torus3)[genus]
        j, end, after = ((0, 0.4 + 0.3j, 0.5 + 0.1j), (1, 0.3 + 0.2j, 0.35 + 0.05j))[genus]
        kj = good_puncture_ctx(b, j).form_label
        requested = self._requested(b, kj)
        first = line_path(s.punctures[j], end)
        rt = RegularizedTransport.along(first, b, words=requested, puncture=j)
        plan = self._words_plan(requested, kj)
        v, quadrature = transport_mod._transport_segment(
            b, first.segments[0], plan.full_plan, plan.v_plan, j, 1e-12
        )
        reg = reg_line_integral(first, kj, b)
        lam = reg.value
        before = rt.series()
        for w in requested:
            want, scale = self._decomposition_sum(v, lam, w, kj)
            assert abs(rt.value(w) - want) <= 1e-14 * scale, w
            assert before.coefficient(w) == rt.value(w)
        assert rt.value(word()) == before.coefficient(word()) == 1.0
        # a words= request reports its assembly's rounding, eps times the
        # moduli of every term of every assembled word
        moduli = sum(self._decomposition_sum(v, lam, w, kj)[1] for w in before.support.words)
        rounding = plan.assemble(v, lam)[1]
        assert 0 < rounding == pytest.approx(np.finfo(float).eps * moduli, rel=1e-12, abs=0)
        assert rt.error == quadrature + reg.error + rounding

        extension = line_path(end, after)
        rt.extend(extension.segments[0])
        # the transport of the set extend solves, the one plan.full_plan holds
        t = transport_series(extension, b, words=plan.full_plan.support.words).series
        want = t.product(before)
        assert rt.series().coeffs == want.coeffs
        for w in requested:
            assert rt.value(w) == want.coefficient(w)
        assert rt.value(word()) == 1.0

    @pytest.mark.parametrize("genus", [0, 1])
    def test_two_segments_compose_like_extend(self, genus, sphere01, torus3):
        # along a two-segment path, and along its first segment followed by
        # an extend, give the same bits; both match the decomposition formula
        # with V and lam taken along the whole path
        s, b = (sphere01, torus3)[genus]
        j, mid, end = ((0, 0.4 + 0.3j, 0.6 - 0.1j), (1, 0.3 + 0.2j, 0.2 + 0.05j))[genus]
        kj = good_puncture_ctx(b, j).form_label
        depth = (6, 4)[genus]
        p = s.punctures[j]
        path = Path((LineSegment(p, mid), LineSegment(mid, end)))
        whole = RegularizedTransport.along(path, b, depth=depth, puncture=j, tol=1e-12)
        stepped = RegularizedTransport.along(
            line_path(p, mid), b, depth=depth, puncture=j, tol=0.5e-12
        )
        stepped.extend(path.segments[1])
        assert whole.series().coeffs == stepped.series().coeffs
        assert whole.error == stepped.error

        plan = self._depth_plan(b.n_forms, depth, kj)
        v, _ = transport_mod._transport_segment(
            b, path.segments[0], plan.full_plan, plan.v_plan, j, 0.5e-12
        )
        t, _ = transport_mod._transport_segment(
            b, path.segments[1], plan.full_plan, plan.full_plan, None, 0.5e-12
        )
        v = t.product(v)
        lam = reg_line_integral(path, kj, b).value
        for w in all_words(range(b.n_forms), depth):
            want, scale = self._decomposition_sum(v, lam, w, kj)
            assert abs(whole.value(w) - want) <= 1e-14 * scale, w

    def test_depth_plan_takes_no_shuffle(self, sphere01, monkeypatch):
        # no plan compile and no decomposition takes a shuffle: each word is
        # expanded by the group-like recursion, and matches the oracle that
        # strips trailing runs with shuffles
        def forbidden(*args):
            raise AssertionError("a shuffle was taken")

        cases = [(EMPTY_WORD, 0), (word_power(1, 3), 1), (word(0, 1), 1), (word(1, 0), 1)]
        cases += [(word(0, 2, 1, 1), 1), (word(1, 0, 1), 0), (word(2, 1, 0, 1, 1), 1)]

        def plain(parts):
            return [(i, {u.letters: c for u, c in g.terms.items()}) for i, g in parts]

        want = []
        for w, j in cases:
            at = [(i, dict(t)) for i, t in strip_decomposition(w.letters, j)]
            mirrored = strip_decomposition(w.letters[::-1], j)
            want.append((at, [(i, {u[::-1]: m for u, m in t}) for i, t in mirrored]))
        monkeypatch.setattr(words_mod, "_shuffle_letters", forbidden)
        regularization_mod._assembly_plan.cache_clear()
        _, b = sphere01
        phi = associator(b, 1, 0, depth=5)
        assert abs(phi.series.coefficient(word(0, 0, 1)) + ZETA3) <= phi.error
        rt = RegularizedTransport.along(
            line_path(0.0, 0.5), b, words=[word(0, 1), word(1, 0)], puncture=0
        )
        lhs = rt.value(word(0)) * rt.value(word(1))
        assert abs(lhs - rt.value(word(0, 1)) - rt.value(word(1, 0))) <= 1e-14 * abs(lhs)
        for (w, j), (at, leading) in zip(cases, want):
            assert plain(decompose_at(w, j)) == at
            assert plain(decompose_leading(w, j)) == leading

    @pytest.mark.parametrize("genus", [0, 1])
    def test_depth_request_is_the_words_request_of_every_word(self, genus, sphere01, torus3):
        # depth=d and words= every word up to d compile to one plan: the same
        # support, the same bits and the same error, assembly rounding included
        s, b = (sphere01, torus3)[genus]
        j, end, depth = ((0, 0.4 + 0.3j, 5), (1, 0.3 + 0.2j, 3))[genus]
        path = line_path(s.punctures[j], end)
        by_depth = RegularizedTransport.along(path, b, depth=depth, puncture=j)
        by_words = RegularizedTransport.along(
            path, b, words=all_words(range(b.n_forms), depth), puncture=j
        )
        assert by_words.series().support is by_depth.series().support
        assert by_words.series().values.tobytes() == by_depth.series().values.tobytes()
        assert by_words.error == by_depth.error

    @pytest.mark.parametrize("n_forms, depth", [(2, 6), (3, 4)])
    def test_depth_plan_equals_decomposition_plan(self, n_forms, depth):
        # the one compiler, given every word up to the depth, writes the
        # terms of the oracle's decompositions in the oracle's order
        for kj in range(n_forms):
            plan = self._depth_plan(n_forms, depth, kj)
            assert self._oracle_arrays(all_words(range(n_forms), depth), kj) == self._arrays(plan)

    @pytest.mark.parametrize("genus", [0, 1])
    def test_words_plan_equals_decomposition_plan(self, genus, sphere01, torus3):
        _, b = (sphere01, torus3)[genus]
        kj = good_puncture_ctx(b, (0, 1)[genus]).form_label
        requested = self._requested(b, kj)
        plan = self._words_plan(requested, kj)
        assert self._oracle_arrays(requested, kj) == self._arrays(plan)

    @staticmethod
    def _arrays(plan):
        return (
            [w.letters for w in plan.support.words],
            [w.letters for w in plan.v_plan.support.words],
            *(getattr(plan, name).tolist() for name in ("row", "power", "column", "multiplicity")),
        )

    @staticmethod
    def _oracle_arrays(requested, kj):
        """Support, V's support and the plan arrays, from the oracle's
        decompositions of the requested words and their tails, each support
        in word order: shortest first, then by the reversed letters."""
        def tails(words):
            closed = {w[i:] for w in words for i in range(len(w) + 1)}
            return sorted(closed, key=lambda t: (len(t), t[::-1]))

        support = tails(w.letters for w in requested)
        parts = [strip_decomposition(w, kj) for w in support]
        v_support = tails(u for d in parts for _, terms in d for u, _ in terms)
        column_of = {u: c for c, u in enumerate(v_support)}
        terms = [(r, i, u, m) for r, d in enumerate(parts) for i, ts in d for u, m in ts]
        return (
            support,
            v_support,
            [r for r, _, _, _ in terms],
            [i for _, i, _, _ in terms],
            [column_of[u] for _, _, u, _ in terms],
            [float(m) for _, _, _, m in terms],
        )

    def test_words_plan_compiles_with_one_shuffle_memo(self, monkeypatch):
        # every expansion of a compile shares one memo, and the next compile
        # starts its own
        memos = []
        expansion = regularization_mod._expansion

        def spy(s, j, memo):
            memos[-1].append(memo)
            return expansion(s, j, memo)

        monkeypatch.setattr(regularization_mod, "_expansion", spy)
        requested = transport_mod._support_of((word(0, 1, 1), word(1, 0, 1, 1)))
        for _ in range(2):
            memos.append([])
            regularization_mod._assembly_plan.__wrapped__(requested, 1)
        first, second = ({id(m) for m in calls} for calls in memos)
        assert len(first) == len(second) == 1 and first != second
        assert memos[0][0] and memos[1][0]

    def test_extend_requires_chaining(self, sphere01):
        _, b = sphere01
        rt = RegularizedTransport.along(line_path(0.0, 0.5), b, depth=1, puncture=0)
        with pytest.raises(EndpointMismatchError):
            rt.extend(LineSegment(0.6, 0.8))

    def test_depth_words_exclusive(self, sphere01):
        _, b = sphere01
        with pytest.raises(ConfigError):
            RegularizedTransport.along(line_path(0.0, 0.5), b, puncture=0)
        with pytest.raises(ConfigError):
            RegularizedTransport.along(
                line_path(0.0, 0.5), b, depth=1, words=[word(0)], puncture=0
            )


class TestAsymptotic:
    def test_zeta2(self, sphere01):
        _, b = sphere01
        value = mzv(b, 1, 0, zeta_word(2))
        assert abs(value - ZETA2) < 1e-8
        assert abs(value - zeta_em(2)) < 1e-8
        assert abs(value.imag) < 1e-10

    def test_zeta3(self, sphere01):
        _, b = sphere01
        value = mzv(b, 1, 0, zeta_word(3))
        assert abs(value - ZETA3) < 1e-8
        assert abs(value - zeta_em(3)) < 1e-8

    def test_error_estimates_are_sane(self, sphere01):
        _, b = sphere01
        exp = asymptotic_expansion(b, 1, 0, zeta_word(2))
        assert abs(exp.coefficients[0] - ZETA2) < exp.error
        assert exp.error < 1e-7

    def test_distinguished_letter_alone(self, sphere01):
        # Li_{w_i}(z) = log(1-z): unit log coefficient, vanishing finite part
        _, b = sphere01
        exp = asymptotic_expansion(b, 1, 0, word(1))
        assert exp.degree == 1
        assert abs(exp.coefficients[0]) < 1e-10
        assert abs(exp.coefficients[1] - 1.0) < 1e-10

    def test_convergent_word_has_degree_zero(self, sphere01):
        _, b = sphere01
        exp = asymptotic_expansion(b, 1, 0, word(0, 1))
        assert exp.degree == 0
        assert abs(exp.coefficients[0] + ZETA2) < 1e-8

    def test_pure_power_word(self, sphere01):
        # log^3(1-z)/6 exactly: top coefficient 1/6, all lower ones vanish
        _, b = sphere01
        exp = asymptotic_expansion(b, 1, 0, word(1, 1, 1))
        assert exp.degree == 3
        assert abs(exp.coefficients[3] - 1.0 / 6.0) < 1e-10
        for c in exp.coefficients[:3]:
            assert abs(c) < 1e-8

    def test_shuffle_consistency_of_limits(self, sphere01):
        # (1) shuffle (0) = (1,0) + (0,1) and the pieces' limits are known
        _, b = sphere01
        assert abs(mzv(b, 1, 0, word(1, 0)) - ZETA2) < 1e-8

    def test_remainder_shrinks_linearly(self, sphere01):
        _, b = sphere01
        exp = asymptotic_expansion(b, 1, 0, word(0, 1))
        rems = []
        for r in (1e-2, 5e-3, 2.5e-3):
            z = 1.0 - r
            val = reg_iterated(line_path(0.0, z), word(0, 1), b)
            rems.append(abs(val - exp.coefficients[0]))
        assert rems[2] < rems[1] < rems[0]
        assert 1.2 < rems[0] / rems[1] < 4.0

    def test_direction_is_recorded(self, sphere01):
        _, b = sphere01
        exp = asymptotic_expansion(b, 1, 0, word(0, 1))
        assert abs(exp.direction + 1.0) < 1e-15

    def test_too_close_punctures_fail(self):
        s = SurfaceConfig(0, (0.0, 5e-5))
        b = FormBasis.genus0(s)
        with pytest.raises(FitError):
            mzv(b, 1, 0, word(0, 1))

    def test_small_im_tau_rungs_stay_cheap(self, monkeypatch):
        # near the target puncture dlog theta keeps its relative accuracy, and
        # at small Im(tau) its sum runs at the reduced modulus, so a rung's
        # bisection accepts at its first split down to tau = 0.05i
        for tau in (0.15j, 0.05j):
            s = SurfaceConfig(1, (0.0, 0.45, 0.25 + 0.35j), tau=tau)
            p_i, p_j = s.punctures[2], s.punctures[1]
            gaps = []
            solve = transport_mod._solve_segment

            def counting_solve(basis, seg, words, exempt):
                gaps.append(abs(seg.point(0.5) - p_i))
                return solve(basis, seg, words, exempt)

            monkeypatch.setattr(transport_mod, "_solve_segment", counting_solve)
            mzv(FormBasis.genus1(s), 2, 1, word(2, 1))
            monkeypatch.undo()
            # rung m runs from radius r0 2^-m to the next one, toward P_i
            r0 = 0.05 * abs(p_j - p_i)
            radii = [r0 * 2.0 ** -m for m in range(13)] + [r0 * 2.0 ** -12.5]
            per_rung = [sum(lo < g < hi for g in gaps) for hi, lo in zip(radii, radii[1:])]
            assert min(per_rung) >= 3, (tau, per_rung)
            assert max(per_rung) <= 5, (tau, per_rung)

    def test_same_puncture_rejected(self, sphere01):
        _, b = sphere01
        with pytest.raises(ConfigError):
            mzv(b, 1, 1, word(0, 1))

    def test_zeta_word_validation(self):
        with pytest.raises(ConfigError):
            zeta_word(1)
        gw = zeta_word(4)
        assert gw.coefficient(word(0, 0, 0, 1)) == -1

    def test_torus_limits_match_associator(self, torus3):
        _, b = torus3
        phi = associator(b, 2, 1, depth=2)
        for w in (word(1), word(2), word(1, 2), word(2, 1), word(0, 2)):
            assert abs(mzv(b, 2, 1, w) - phi.series.coefficient(w)) < 1e-8


class TestAssociator:
    def test_empty_coefficient_is_one(self, sphere01):
        _, b = sphere01
        phi = associator(b, 1, 0, depth=2)
        assert phi.series.coefficient(word()) == 1.0

    def test_probe_independence(self, sphere01):
        _, b = sphere01
        phi = associator(b, 1, 0, depth=3)
        assert phi.probe_residual < 1e-10

    def test_zeta_coefficients(self, sphere01):
        _, b = sphere01
        phi = associator(b, 1, 0, depth=3)
        assert abs(phi.series.coefficient(word(0, 1)) + ZETA2) < 1e-10
        assert abs(phi.series.coefficient(word(1, 0)) - ZETA2) < 1e-10
        assert abs(phi.series.coefficient(word(0, 0, 1)) + ZETA3) < 1e-10

    def test_matches_mzv_at_depth_three(self, sphere01):
        _, b = sphere01
        phi = associator(b, 1, 0, depth=3)
        for w in all_words(range(2), 3):
            if w.is_empty:
                continue
            assert abs(phi.series.coefficient(w) - mzv(b, 1, 0, w)) < 1e-6

    def test_asymptotic_inverse_of_transport(self, sphere01):
        # L_i(z)^{-1} approaches exp(-log(P_i - z) x_i): pure powers of the
        # distinguished letter survive, everything else dies off with r
        _, b = sphere01
        worsts = []
        for r in (1e-2, 1e-3):
            z = 1.0 - r
            inv = (
                RegularizedTransport.along(
                    line_path(1.0, z), b, depth=3, puncture=1
                )
                .series()
                .invert()
            )
            ell = cmath.log(1.0 - z)
            worst = 0.0
            for w in all_words(range(2), 3):
                if w.is_empty or set(w.letters) == {1}:
                    want = (-ell) ** len(w) / math.factorial(len(w))
                else:
                    want = 0.0
                worst = max(worst, abs(inv.coefficient(w) - want))
            worsts.append(worst)
        assert worsts[1] < worsts[0]
        assert worsts[1] < 0.05

    def test_depth12_values_within_error(self, sphere01):
        # Phi_10[0^(n-1) 1] = -zeta(n), Phi_10[(01)^n] = (-1)^n pi^(2n)/(2n+1)!
        _, b = sphere01
        phi = associator(b, 1, 0, depth=12)
        for n in range(2, 13):
            got = phi.series.coefficient(Word((0,) * (n - 1) + (1,)))
            assert abs(got + complex(mpmath.zeta(n))) <= phi.error, n
        for n in range(1, 7):
            want = (-1) ** n * mpmath.pi ** (2 * n) / mpmath.factorial(2 * n + 1)
            assert abs(phi.series.coefficient(Word((0, 1) * n)) - complex(want)) <= phi.error, n

    def test_depth8_series_times_inverse_is_one(self, sphere01):
        _, b = sphere01
        s = RegularizedTransport.along(
            line_path(0.0, 0.4 + 0.3j), b, depth=8, puncture=0
        ).series()
        inv = s.invert()
        assert inv.coeffs.keys() == s.coeffs.keys()
        for one in (s.product(inv), inv.product(s)):
            assert one.coeffs.keys() == s.coeffs.keys()
            assert abs(one.coefficient(word()) - 1) < 1e-12
            assert max(abs(c) for w, c in one.coeffs.items() if not w.is_empty) < 1e-12

    def test_warm_associator_work(self, monkeypatch):
        # once a depth-8 request has been compiled, another pair of punctures
        # reuses every word, support and plan: no Word is built or hashed,
        # and the segment solves are those of the adaptive bisection alone
        warm = FormBasis.genus0(SurfaceConfig(0, (0, 0.7 + 0.9j)))
        associator(warm, 1, 0, depth=8)
        counts = {"words": 0, "hashes": 0, "solves": 0}
        post_init, word_hash = Word.__post_init__, Word.__hash__
        solve = transport_mod._solve_segment

        def counting_post_init(self):
            counts["words"] += 1
            post_init(self)

        def counting_hash(self):
            counts["hashes"] += 1
            return word_hash(self)

        def counting_solve(*args):
            counts["solves"] += 1
            return solve(*args)

        monkeypatch.setattr(Word, "__post_init__", counting_post_init)
        monkeypatch.setattr(Word, "__hash__", counting_hash)
        monkeypatch.setattr(transport_mod, "_solve_segment", counting_solve)
        associator(FormBasis.genus0(SurfaceConfig(0, (0, 0.3 + 1.9j))), 1, 0, depth=8)
        assert counts == {"words": 0, "hashes": 0, "solves": 24}

    def test_argument_validation(self, sphere01):
        _, b = sphere01
        with pytest.raises(ConfigError):
            associator(b, 1, 1, depth=2)


class TestTolerance:
    """Every entry point rejects a tolerance that is not positive and finite,
    also where its answer needs no quadrature."""

    def _extend(b, tol):
        rt = RegularizedTransport.along(line_path(0.0, 0.5), b, depth=2, puncture=0)
        rt.extend(LineSegment(0.5, 0.6 + 0.1j), tol=tol)

    CALLS = {
        "transport_series": lambda b, tol: transport_series(
            line_path(0.2 + 0.1j, 0.8), b, depth=2, tol=tol
        ),
        "iterated_integral": lambda b, tol: iterated_integral(
            line_path(0.2 + 0.1j, 0.8), word(0, 1), b, tol
        ),
        "iterated_integral-no-words": lambda b, tol: iterated_integral(
            line_path(0.2 + 0.1j, 0.8), [], b, tol
        ),
        "RegularizedTransport.along": lambda b, tol: RegularizedTransport.along(
            line_path(0.0, 0.5), b, depth=2, puncture=0, tol=tol
        ),
        "RegularizedTransport.extend": _extend,
        "reg_line_integral": lambda b, tol: reg_line_integral(line_path(0.0, 0.5), 1, b, tol=tol),
        "reg_line_integral-pole-form": lambda b, tol: reg_line_integral(
            line_path(0.0, 0.5), 0, b, tol=tol
        ),
        "reg_iterated": lambda b, tol: reg_iterated(line_path(0.0, 0.5), word(0, 1), b, tol=tol),
        "associator": lambda b, tol: associator(b, 1, 0, depth=2, tol=tol),
        "monodromy": lambda b, tol: monodromy(
            b, LoopSpec(1, 1, basepoint=0.5), 0, depth=2, tol=tol
        ),
        "asymptotic_expansion": lambda b, tol: asymptotic_expansion(
            b, 1, 0, zeta_word(2), tol=tol
        ),
        "asymptotic_expansion-zero-word": lambda b, tol: asymptotic_expansion(
            b, 1, 0, GeneralizedWord.zero(), tol=tol
        ),
        "mzv": lambda b, tol: mzv(b, 1, 0, zeta_word(2), tol=tol),
    }

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_bad_tolerance_raises(self, sphere01, entry, tol):
        _, b = sphere01
        with pytest.raises(ConfigError, match="tol must be positive and finite"):
            self.CALLS[entry](b, tol)


class TestErrorType:
    """Every reported error is a Python float, as every value is a Python
    complex."""

    RESULTS = {
        "TransportResult": lambda b: transport_series(line_path(0.2 + 0.1j, 0.8), b, depth=2),
        "IntegralResult": lambda b: iterated_integral(
            line_path(0.2 + 0.1j, 0.8), word(0, 1), b
        ),
        "RegularizedTransport": lambda b: RegularizedTransport.along(
            line_path(0.0, 0.5), b, depth=2, puncture=0
        ),
        "RegularizedValue": lambda b: reg_line_integral(line_path(0.0, 0.5), 1, b),
        "AsymptoticExpansion": lambda b: asymptotic_expansion(b, 1, 0, zeta_word(2)),
        "AssociatorSeries": lambda b: associator(b, 1, 0, depth=2),
    }

    @pytest.mark.parametrize("result", sorted(RESULTS))
    def test_error_is_a_float(self, sphere01, result):
        _, b = sphere01
        assert type(self.RESULTS[result](b).error) is float


class TestSeriesOwnership:
    """A returned series is read-only: a caller cannot change it, so it
    cannot change what the next identical request gets."""

    REQUESTS = {
        "transport_series": lambda b: transport_series(
            line_path(0.2 + 0.1j, 0.8), b, depth=3
        ).series,
        "RegularizedTransport.series": lambda b: RegularizedTransport.along(
            line_path(0.0, 0.6, reg_start=0), b, depth=3, puncture=0
        ).series(),
        "associator": lambda b: associator(b, 1, 0, depth=3).series,
    }

    @pytest.mark.parametrize("request_name", sorted(REQUESTS))
    def test_mutating_a_result_leaves_the_next_one_alone(self, sphere01, request_name):
        _, b = sphere01
        run = self.REQUESTS[request_name]
        first = run(b)
        before = dict(first.coeffs)
        for w in (next(iter(first.coeffs)), word(5, 5)):
            with pytest.raises(TypeError):
                first.coeffs[w] = 1e6 + 0j
        with pytest.raises(ValueError):
            first.values[0] = 1e6 + 0j
        assert first.coeffs == before
        assert run(b).coeffs == before


class TestMonodromy:
    def test_sphere_loop_shifts(self, sphere01):
        _, b = sphere01
        base = 0.5
        m = monodromy(b, LoopSpec(1, 1, basepoint=base), 0, depth=2)
        l0 = RegularizedTransport.along(
            line_path(0.0, base), b, depth=2, puncture=0
        ).series()
        assert abs(m.coefficient(word(1)) - l0.coefficient(word(1)) - 2j * math.pi) < 1e-11
        assert abs(m.coefficient(word(0)) - l0.coefficient(word(0))) < 1e-11

    def test_negative_winding(self, sphere01):
        _, b = sphere01
        base = 0.5
        m = monodromy(b, LoopSpec(1, -1, basepoint=base), 0, depth=1)
        l0 = RegularizedTransport.along(
            line_path(0.0, base), b, depth=1, puncture=0
        ).series()
        assert abs(m.coefficient(word(1)) - l0.coefficient(word(1)) + 2j * math.pi) < 1e-11

    def test_relation_with_associator(self, sphere01):
        _, b = sphere01
        loop = LoopSpec(1, 1, basepoint=0.5)
        phi = associator(b, 1, 0, depth=3)
        lhs = monodromy(b, loop, 0, depth=3)
        rhs = monodromy(b, loop, 1, depth=3).product(phi.series)
        assert lhs.max_abs_diff(rhs) < 1e-10

    def test_relation_on_torus(self, torus3):
        s, b = torus3
        base = s.punctures[1] + 0.5 * (s.punctures[2] - s.punctures[1])
        loop = LoopSpec(2, 1, basepoint=base)
        phi = associator(b, 2, 1, depth=2)
        lhs = monodromy(b, loop, 1, depth=2)
        rhs = monodromy(b, loop, 2, depth=2).product(phi.series)
        assert lhs.max_abs_diff(rhs) < 1e-9


class TestOneWordOrder:
    """Every support lists its words as ``all_words`` does, so one word set
    has one support object, and with it one set of compiled plans."""

    def test_same_words_give_one_support(self, sphere01):
        # supports are interned in a bounded cache, so start from an empty one
        transport_mod._all_words.cache_clear()
        transport_mod._intern.cache_clear()
        _, b = sphere01
        words = all_words(range(2), 3)
        full = transport_mod._all_words((0, 1), 3)
        shuffled = random.Random(5).sample(words, len(words))
        as_dicts = [NcSeries({w: 1.0 for w in order}, 3) for order in (words, shuffled)]
        path = line_path(0.0, 0.4 + 0.3j)
        supports = [s.support for s in as_dicts] + [
            transport_series(line_path(0.2, 0.4 + 0.3j), b, words=shuffled).series.support,
            RegularizedTransport.along(path, b, words=shuffled, puncture=0).series().support,
            RegularizedTransport.along(path, b, depth=3, puncture=0).series().support,
        ]
        assert all(support is full for support in supports)
        # a word set that is not every word up to a depth: coefficients are
        # listed in word order whatever the order they came in
        some = [word(0, 1), EMPTY_WORD, word(1, 0), word(1)]
        series = [NcSeries({w: 1.0 for w in order}, 2) for order in (some, some[::-1])]
        assert series[0].support is series[1].support
        assert list(series[0].coeffs) == [EMPTY_WORD, word(1), word(1, 0), word(0, 1)]

    @pytest.mark.parametrize("genus", [0, 1])
    def test_depth_results_share_the_all_words_support(self, genus, sphere01, torus3):
        s, b = (sphere01, torus3)[genus]
        i, j, off = ((1, 0, 0.2 + 0.1j), (2, 1, 0.3 + 0.2j))[genus]
        full = transport_mod._all_words(tuple(range(b.n_forms)), 3)
        base = s.punctures[j] + 0.5 * (s.punctures[i] - s.punctures[j])
        results = [
            transport_series(line_path(off, off + 0.1), b, depth=3).series,
            RegularizedTransport.along(line_path(s.punctures[j], base), b, depth=3, puncture=j).series(),
            associator(b, i, j, depth=3).series,
            monodromy(b, LoopSpec(i, 1, basepoint=base), j, depth=3),
        ]
        assert all(r.support is full for r in results)
        assert list(results[0].coeffs) == all_words(range(b.n_forms), 3)
