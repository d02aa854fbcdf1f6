"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line with the measured
residual and the pinned tolerance (run with ``pytest -s`` to see the lines
for passing tests), then asserts.  Tolerances here are contractual; do not
loosen them to make a failing build green.
"""

import math
import random
import time

from iterint.paths import LoopSpec, compose, line_path
from iterint.regularization import (
    RegularizedTransport,
    associator,
    monodromy,
    mzv,
    zeta_word,
)
from iterint.surfaces import (
    FormBasis,
    FormSpec,
    SurfaceConfig,
    ThetaParams,
    fay_residual,
    lattice_distance,
    structure_constants,
)
from iterint.transport import all_words, compose_series, iterated_integral, transport_series
from iterint.variation import fd_variation, random_sphere_request, random_torus_request, variation_rhs
from iterint.words import Word, shuffle, word

from oracles import zeta_em

ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


def _sphere01() -> FormBasis:
    return FormBasis.genus0(SurfaceConfig(genus=0, punctures=(0.0, 1.0)))


def test_criterion_1_zeta2_from_regularized_limit():
    basis = _sphere01()
    t0 = time.perf_counter()
    got = mzv(basis, 1, 0, zeta_word(2))
    elapsed = time.perf_counter() - t0
    err = max(abs(got - ZETA2), abs(got - zeta_em(2)))
    ok = err < 1e-8 and elapsed < 5.0
    _report(1, "zeta(2) = pi^2/6", ok, f"err={err:.3e} tol=1e-8, runtime={elapsed:.2f}s limit=5s")
    assert ok


def test_criterion_2_zeta3_depth3():
    basis = _sphere01()
    got = mzv(basis, 1, 0, zeta_word(3))
    err = max(abs(got - ZETA3), abs(got - zeta_em(3)))
    ok = err < 1e-8
    _report(2, "zeta(3) at depth 3", ok, f"err={err:.3e} tol=1e-8")
    assert ok


def test_criterion_3_shuffle_on_fixed_path():
    basis = _sphere01()
    path = line_path(-0.5 - 0.5j, 1.5 - 0.5j)
    rng = random.Random(303)
    pairs = []
    for _ in range(50):
        u = Word(tuple(rng.choice((0, 1)) for _ in range(rng.randint(1, 3))))
        v = Word(tuple(rng.choice((0, 1)) for _ in range(rng.randint(1, 3))))
        pairs.append((u, v))
    targets = [u for u, _ in pairs] + [v for _, v in pairs] + [shuffle(u, v) for u, v in pairs]
    res = iterated_integral(path, targets, basis)
    worst = 0.0
    for k, (u, v) in enumerate(pairs):
        lhs = res.values[k] * res.values[50 + k]
        rhs = res.values[100 + k]
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-10
    _report(3, "shuffle relations, 50 seeded pairs", ok, f"max residual={worst:.3e} tol=1e-10")
    assert ok


def test_criterion_4_homotopy_invariance():
    basis = _sphere01()
    start, end = -0.5 - 0.5j, 1.5 - 0.5j
    straight = line_path(start, end)
    detour = compose(
        compose(line_path(start, 0.5 - 1.1j), line_path(0.5 - 1.1j, 0.2 - 0.8j)),
        line_path(0.2 - 0.8j, end),
    )
    a = transport_series(straight, basis, depth=3)
    b = transport_series(detour, basis, depth=3)
    worst = a.series.max_abs_diff(b.series, all_words((0, 1), 3))
    ok = worst < 1e-9
    _report(4, "homotopy invariance, straight vs detour", ok, f"max diff={worst:.3e} tol=1e-9")
    assert ok


def test_criterion_5_chen_composition():
    basis = _sphere01()
    mid = 0.4 - 0.9j
    alpha = line_path(-0.5 - 0.5j, mid)
    beta = line_path(mid, 1.5 - 0.5j)
    composed = compose_series(
        transport_series(beta, basis, depth=3).series,
        transport_series(alpha, basis, depth=3).series,
    )
    direct = transport_series(compose(alpha, beta), basis, depth=3).series
    worst = composed.max_abs_diff(direct, all_words((0, 1), 3))
    ok = worst < 1e-11
    _report(5, "Chen composition of transports", ok, f"max diff={worst:.3e} tol=1e-11")
    assert ok


def test_criterion_6_fay_identity():
    rng = random.Random(606)
    worst = 0.0
    for tau in (1j, 0.5 + 1j):
        params = ThetaParams(tau)
        n = 0
        while n < 50:
            z = rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * tau
            d = rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * tau
            clear = min(
                lattice_distance(z, tau),
                lattice_distance(d, tau),
                lattice_distance(z - d, tau),
            )
            if clear < 0.15:
                continue
            worst = max(worst, abs(fay_residual(z, d, 0.0, params)))
            n += 1
    ok = worst < 1e-8
    _report(6, "Fay identity, 50 draws per tau", ok, f"max residual={worst:.3e} tol=1e-8")
    assert ok


def test_criterion_7_elliptic_structure_constants():
    rng = random.Random(707)
    moduli = (1j, 0.5 + 1j, 0.25 + 0.9j, -0.3 + 1.1j, 0.1 + 1.4j)
    worst = 0.0
    for tau in moduli:
        pts = [0.0]
        while len(pts) < 4:
            cand = rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * tau
            if all(lattice_distance(cand - p, tau) > 0.3 for p in pts):
                pts.append(cand)
        surface = SurfaceConfig(genus=1, punctures=tuple(pts), tau=tau)
        basis = FormBasis(
            surface,
            (
                FormSpec.dz(),
                FormSpec.elliptic_log(1, 0),
                FormSpec.elliptic_log(3, 2),
                FormSpec.elliptic_log(0, 2),
            ),
        )
        sc = structure_constants(basis, 1, 2)
        n = 0
        while n < 10:
            z = rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * tau
            if any(lattice_distance(z - p, tau) < 0.15 for p in pts):
                continue
            worst = max(worst, abs(sc.residual(basis, z)))
            n += 1
    ok = worst < 1e-8
    _report(7, "structure constants, 5 tori x 10 points", ok, f"max residual={worst:.3e} tol=1e-8")
    assert ok


def test_criterion_8_variational_formulas():
    h = 1e-4
    worst = 0.0
    for k in range(10):
        req = random_sphere_request(random.Random(800 + k))
        lhs = fd_variation(req, h)
        rhs = variation_rhs(req)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    for k in range(10):
        req = random_torus_request(random.Random(880 + k))
        lhs = fd_variation(req, h)
        rhs = variation_rhs(req)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst < 1e-4
    _report(8, "variational formulas vs finite differences", ok, f"max rel err={worst:.3e} tol=1e-4")
    assert ok


def test_criterion_9_associator_matches_mzv():
    basis = _sphere01()
    phi = associator(basis, 0, 1, depth=3)
    probe = phi.probe_residual
    worst = 0.0
    for w in all_words((0, 1), 3):
        if w.is_empty:
            continue
        worst = max(worst, abs(phi.series.coefficient(w) - mzv(basis, 0, 1, w)))
    ok = probe < 1e-6 and worst < 1e-6
    _report(
        9,
        "associator coefficients vs regularized limits",
        ok,
        f"probe residual={probe:.3e}, max coeff err={worst:.3e}, tol=1e-6",
    )
    assert ok


def test_criterion_10_monodromy():
    basis = _sphere01()
    spec = LoopSpec(puncture=1, winding=1, basepoint=0.5)
    continued = monodromy(basis, spec, 0, depth=3)
    l0 = RegularizedTransport.along(line_path(0.0, 0.5), basis, depth=3, puncture=0).series()

    shift_sing = continued.coefficient(word(1)) - l0.coefficient(word(1)) - 2j * math.pi
    shift_reg = continued.coefficient(word(0)) - l0.coefficient(word(0))

    phi = associator(basis, 1, 0, depth=3)
    relation = monodromy(basis, spec, 1, depth=3).product(phi.series)
    worst = continued.max_abs_diff(relation, all_words((0, 1), 3))

    ok = abs(shift_sing) < 1e-10 and abs(shift_reg) < 1e-10 and worst < 1e-7
    _report(
        10,
        "monodromy shifts and associator relation",
        ok,
        f"singular shift err={abs(shift_sing):.3e}, regular shift={abs(shift_reg):.3e} "
        f"(tol=1e-10), relation err={worst:.3e} (tol=1e-7)",
    )
    assert ok
