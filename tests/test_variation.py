"""Puncture-motion derivatives against finite-difference oracles."""

import random
from dataclasses import replace

import pytest

from iterint.errors import (
    ConfigError,
    DecompositionUnavailableError,
    VariationUnsupportedError,
)
from iterint.paths import line_path
from iterint.surfaces import FormBasis, FormSpec, SurfaceConfig
from iterint.transport import iterated_integral
import iterint.variation as variation_mod
from iterint.variation import (
    VariationRequest,
    _derivative_combination,
    fd_variation,
    random_sphere_request,
    random_torus_basis,
    random_torus_request,
    variation_rhs,
)
from iterint.words import GeneralizedWord, word

from oracles import three_term_variation


@pytest.fixture(scope="module")
def sphere4():
    s = SurfaceConfig(0, (0.0, 1.0, 0.6 + 1.1j, -0.7 + 0.9j))
    return FormBasis.genus0(s)


@pytest.fixture(scope="module")
def torus4():
    s = SurfaceConfig(1, (0.0, 0.45, 0.25 + 0.35j, 0.7 + 0.6j), tau=1j)
    forms = (
        FormSpec.dz(),
        FormSpec.elliptic_log(1, 0),
        FormSpec.elliptic_log(3, 2),
        FormSpec.elliptic_log(0, 2),
    )
    return FormBasis(s, forms)


def _sphere_req(basis):
    return VariationRequest(basis, word(0, 1, 2), 2, 1.7 - 0.9j, -0.8 - 0.6j)


def _torus_req(basis):
    return VariationRequest(basis, word(0, 1, 2), 2, 0.85 - 0.2j, -0.25 - 0.25j)


def _assert_matches_fd(req):
    rhs = variation_rhs(req)
    assert abs(rhs - fd_variation(req, 1e-4)) / abs(rhs) < 1e-4


class TestGenus0:
    def test_matches_fd(self, sphere4):
        _assert_matches_fd(_sphere_req(sphere4))

    def test_three_term_equals_full_sum(self, sphere4):
        req = _sphere_req(sphere4)
        poles = [sphere4.surface.punctures[f.pole] for f in sphere4.forms]
        three = three_term_variation(poles, req.word.letters, req.position - 1)
        res = iterated_integral(
            line_path(req.base, req.z),
            (_derivative_combination(req), GeneralizedWord(three)),
            req.basis,
        )
        assert abs(res.values[0] - res.values[1]) < 1e-12

    def test_absent_puncture_is_flat(self, sphere4):
        # no form in the word has its pole at puncture 3, so the integral
        # does not depend on it at all
        req = _sphere_req(sphere4)
        assert abs(fd_variation(req, 1e-4, puncture=3)) < 1e-9

    def test_richardson_ratio(self, sphere4):
        req = _sphere_req(sphere4)
        rhs = variation_rhs(req)
        e1 = abs(fd_variation(req, 1e-2) - rhs)
        e2 = abs(fd_variation(req, 5e-3) - rhs)
        assert e1 > 1e-8
        assert 3.0 < e1 / e2 < 5.0

    def test_seeded_configs(self):
        rng = random.Random(20)
        for _ in range(3):
            _assert_matches_fd(random_sphere_request(rng))


class TestGenus1:
    def test_matches_fd(self, torus4):
        _assert_matches_fd(_torus_req(torus4))

    def test_stable_under_refinement(self, torus4):
        req = _torus_req(torus4)
        coarse = variation_rhs(req, tol=1e-10)
        fine = variation_rhs(req, tol=1e-12)
        assert abs(coarse - fine) < 1e-8

    def test_seeded_configs(self):
        rng = random.Random(21)
        for _ in range(2):
            _assert_matches_fd(random_torus_request(rng))

    def test_redraws_are_bounded(self, monkeypatch):
        monkeypatch.setattr(variation_mod, "_MAX_DRAWS", 3)
        # Im tau = 0.1 has room for three punctures 0.3 apart, not four
        with pytest.raises(ConfigError):
            random_torus_basis(random.Random(0), 0.1j)
        # at Im tau = 0.55 no path of the drawn box clears every pole translate
        with pytest.raises(ConfigError):
            random_torus_request(random.Random(0), 0.45 + 0.55j)

    def test_shared_poles_rejected(self, torus4):
        # forms 1 and 3 both have a pole at puncture 0, so moving the poles
        # of either one deforms the other too; the pair need not be adjacent
        with pytest.raises(DecompositionUnavailableError):
            VariationRequest(torus4, word(1, 3, 2), 2, 0.85 - 0.2j, -0.25 - 0.25j)
        with pytest.raises(DecompositionUnavailableError):
            VariationRequest(torus4, word(1, 2, 3), 1, 0.85 - 0.2j, -0.25 - 0.25j)

    def test_missing_completion_form(self):
        s = SurfaceConfig(
            1,
            (0.0, 0.5, 0.17 + 0.4j, 0.67 + 0.4j, 0.33 + 0.75j, 0.83 + 0.75j),
            tau=1j,
        )
        b = FormBasis(
            s,
            (
                FormSpec.dz(),
                FormSpec.elliptic_log(0, 1),
                FormSpec.elliptic_log(2, 3),
                FormSpec.elliptic_log(4, 5),
                FormSpec.elliptic_log(1, 3),
                FormSpec.elliptic_log(0, 4),
            ),
        )
        req = VariationRequest(b, word(0, 2, 3), 2, 0.9 - 0.2j, -0.2 - 0.2j)
        with pytest.raises(DecompositionUnavailableError):
            variation_rhs(req)

    def test_dz_position_rejected(self, torus4):
        with pytest.raises(VariationUnsupportedError):
            VariationRequest(torus4, word(1, 0, 2), 2, 0.85 - 0.2j, -0.25 - 0.25j)


# (genus, word, moved letter): the letter first, last, repeated (adjacent or
# not) and alone, at depths 1 to 4 on both surfaces; on the torus, letter 0
# is dz and letter 3 shares a pole with each of letters 1 and 2
ANY_POSITION = [
    (0, (1,), 1),
    (0, (0, 1), 0),
    (0, (0, 1), 1),
    (0, (2, 2), 2),
    (0, (1, 0, 2), 1),
    (0, (1, 0, 2), 2),
    (0, (2, 0, 2), 2),
    (0, (0, 1, 1, 3), 1),
    (0, (3, 1, 0, 3), 3),
    (0, (1, 2, 1, 2), 1),
    (1, (1,), 1),
    (1, (0, 2), 2),
    (1, (2, 1), 2),
    (1, (1, 1), 1),
    (1, (1, 0, 1), 1),
    (1, (2, 1, 0), 2),
    (1, (0, 1, 1, 2), 1),
    (1, (2, 0, 1, 2), 2),
    (1, (3, 0, 3), 3),
    (1, (1, 2, 0, 2), 2),
]


@pytest.mark.parametrize("genus,letters,moved", ANY_POSITION)
def test_any_position_matches_fd(genus, letters, moved, sphere4, torus4):
    basis = (sphere4, torus4)[genus]
    z, base = ((1.7 - 0.9j, -0.8 - 0.6j), (0.85 - 0.2j, -0.25 - 0.25j))[genus]
    positions = [n + 1 for n, a in enumerate(letters) if a == moved]
    req = VariationRequest(basis, word(*letters), positions[0], z, base)
    _assert_matches_fd(req)
    # every occurrence moves, so the position only names the letter
    for pos in positions[1:]:
        same = _derivative_combination(replace(req, position=pos))
        assert same == _derivative_combination(req)


class TestValidation:
    def test_boundary_positions(self, sphere4):
        for pos in (1, 3):
            req = VariationRequest(sphere4, word(0, 1, 2), pos, 1.7 - 0.9j, -0.8 - 0.6j)
            _assert_matches_fd(req)

    def test_position_out_of_range(self, sphere4):
        with pytest.raises(ConfigError):
            VariationRequest(sphere4, word(0, 1, 2), 4, 1.7 - 0.9j, -0.8 - 0.6j)

    def test_repeated_letters(self, sphere4):
        for pos in (1, 2):
            req = VariationRequest(sphere4, word(0, 1, 0), pos, 1.7 - 0.9j, -0.8 - 0.6j)
            _assert_matches_fd(req)

    def test_unknown_letters(self, sphere4):
        with pytest.raises(ConfigError):
            VariationRequest(sphere4, word(0, 9, 2), 2, 1.7 - 0.9j, -0.8 - 0.6j)

    def test_bad_step(self, sphere4):
        req = _sphere_req(sphere4)
        with pytest.raises(ConfigError):
            fd_variation(req, 0.0)
        with pytest.raises(ConfigError):
            fd_variation(req, -1e-4)

    def test_override_out_of_range(self, sphere4):
        with pytest.raises(ConfigError):
            fd_variation(_sphere_req(sphere4), 1e-4, puncture=11)
