"""The four seeded workloads, their references and their correctness checks.

Every workload is a closed loop: one client in one process issues the next
job only after the previous one returns.  A workload draws a cycle of
``cycle`` job inputs from the seed when it is created, and the run walks
that cycle in whole passes, so every input enters its medians equally
often.  The cost of a job depends on its input: on the
torus the modulus tau moves the form evaluations of an associator job
between about 0.7 and 1.4 times their typical count, in no pattern a
coarser grid would follow.  So the inputs that vary with the seed are
spread over their ranges on a shifted lattice, every run sees a like mix
of cases, and its medians stay comparable across seeds.

References are built by ``build_references`` during set-up, outside the timed
region.  ``run_job`` is the timed part: it calls the program through its
public entry points (``iterint.cli.main`` and the ``iterint`` API) and
returns the raw outputs.  ``check`` turns those outputs into one ``Value``
per certified quantity (coefficient, table row or check case).
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import mpmath

import iterint
import iterint.cli

# Contractual tolerances of the acceptance suite (tests/test_acceptance.py):
# zeta values 1e-8 (criteria 1-2), shuffle relations 1e-10 (criterion 3),
# associator against regularized limits 1e-6 (criterion 9).  Path-mode Li_n
# is held to the transport tolerance the request asks for.
ZETA_TOL = 1e-8
SHUFFLE_TOL = 1e-10
ASSOCIATOR_TOL = 1e-6
PATH_TOL = 1e-12

mpmath.mp.dps = 30


@dataclass(frozen=True)
class Value:
    """One certified quantity of a job.

    ``ok`` is False when the value misses its reference or check.
    ``within_bound`` is None unless the value has an independent mpmath
    reference; then it says whether |computed - reference| <= reported error.
    """

    ok: bool
    within_bound: bool | None = None


def _lattice(rng: random.Random, n: int, lo: complex, hi: complex) -> list[complex]:
    """n points of the box [lo, hi] on a rank-1 lattice with a seeded shift,
    so that every seed covers the box as evenly as every other."""
    u, v = rng.random(), rng.random()
    return [
        complex(
            lo.real + ((k / n + u) % 1.0) * (hi.real - lo.real),
            lo.imag + ((3 * k / n + v) % 1.0) * (hi.imag - lo.imag),
        )
        for k in range(n)
    ]


def _tau_arg(tau: complex) -> str:
    # "--tau=..." keeps argparse from reading a leading minus as an option
    return f"--tau={tau.real:.17g}{tau.imag:+.17g}j"


def _cli(argv: list[str]) -> dict | None:
    """Run the command line in-process; None when it printed no report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        iterint.cli.main(argv)
    text = out.getvalue()
    return json.loads(text) if text else None


def _padded(values: list[Value], expected: int) -> list[Value]:
    """A value the job should have produced and did not is a failed one; a
    job that raised (a CLI exit without a report) produced none."""
    return values + [Value(False)] * (expected - len(values))


def _check_cases(report: dict | None, expected: int) -> list[Value]:
    """Check-suite report: one value per case, judged by its pass flag."""
    cases = report["cases"] if report is not None else []
    return _padded([Value(bool(c["pass"])) for c in cases], expected)


def _shuffle_letters(u: tuple, v: tuple) -> dict[tuple, int]:
    """Shuffle product with multiplicities; the benchmark's own reference."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict[tuple, int] = {}
    for tail, m in _shuffle_letters(u[1:], v).items():
        out[(u[0],) + tail] = out.get((u[0],) + tail, 0) + m
    for tail, m in _shuffle_letters(u, v[1:]).items():
        out[(v[0],) + tail] = out.get((v[0],) + tail, 0) + m
    return out


def _bounded(got: complex, ref: complex, error: float, tol: float) -> Value:
    diff = abs(got - ref)
    return Value(diff <= tol, diff <= error)


class Workload:
    name = ""
    why = ""
    cycle = 4
    # True when a job runs on the calling thread alone (no worker pool); the
    # run then moves it between CPUs, job by job (run.py, _Run.job)
    one_thread = False

    def basis_json(self) -> dict:
        """The basis the first job builds; the set-up probe constructs it."""
        raise NotImplementedError

    def input_size(self) -> dict:
        raise NotImplementedError

    def build_references(self) -> None:
        pass

    def run_job(self, k: int):
        """Job on input ``k`` of the cycle."""
        raise NotImplementedError

    def check(self, k: int, raw) -> list[Value]:
        raise NotImplementedError


_TORUS_PUNCTURES = [[0.0, 0.0], [0.45, 0.0], [0.25, 0.35]]
_TAU_BOX = (complex(-0.5, 0.9), complex(0.5, 1.3))


def _torus_basis(tau: complex) -> dict:
    return {"genus": 1, "punctures": _TORUS_PUNCTURES, "tau": [tau.real, tau.imag]}


def _taus(taus: list[complex]) -> list[dict]:
    return [
        {"tau": [t.real, t.imag], "theta_truncation": iterint.ThetaParams(t).truncation}
        for t in taus
    ]


class TorusAssociator(Workload):
    name = "torus-associator"
    why = (
        "genus-1 form evaluation (eval_form -> dlog_theta / lattice_distance) is "
        "about 88% of the profile, and the job fans out through the worker pool"
    )

    cycle = 8

    def __init__(self, seed: int, workdir: Path):
        self.taus = _lattice(random.Random(seed), self.cycle, *_TAU_BOX)
        n_forms = len(_TORUS_PUNCTURES)
        self.n_cases = 1 + n_forms + n_forms ** 2  # probe + all words to depth 2

    def basis_json(self):
        return _torus_basis(self.taus[0])

    def input_size(self):
        return {"inputs": _taus(self.taus), "depth": 2, "cases": self.n_cases, "mzv_rows": self.n_cases - 1}

    def run_job(self, k):
        return _cli(["check", "associator", "--genus", "1", _tau_arg(self.taus[k])])

    def check(self, k, raw):
        # The report carries residuals, not coefficients, so no value has an
        # independent mpmath reference; the report's pass flags are the gate.
        return _check_cases(raw, self.n_cases)


class SphereAssociatorDeep(Workload):
    name = "sphere-associator-deep"
    why = (
        "word and series algebra (Word construction, NcSeries.product / invert, "
        "decompose_at) dominate; genus-0 form evaluation is negligible, no pool"
    )
    one_thread = True
    depth = 8
    n_pairs = 24

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        # p = r e^(i theta) with r in [0.5, 2]: scaling and rotation leave Phi
        # unchanged, so one set of references serves every input.
        box = (complex(0.5, 0.0), complex(2.0, 2 * math.pi))
        self.points = [z.real * cmath.exp(1j * z.imag) for z in _lattice(rng, self.cycle, *box)]
        self.pairs = []
        for _ in range(self.n_pairs):
            lu = rng.randint(1, self.depth - 1)
            lv = rng.randint(1, self.depth - lu)
            u = tuple(rng.randrange(2) for _ in range(lu))
            v = tuple(rng.randrange(2) for _ in range(lv))
            self.pairs.append((u, v, _shuffle_letters(u, v)))

    def _basis(self, p: complex) -> dict:
        return {"genus": 0, "punctures": [[0.0, 0.0], [p.real, p.imag]]}

    def basis_json(self):
        return self._basis(self.points[0])

    def input_size(self):
        return {
            "inputs": [{"p": [p.real, p.imag]} for p in self.points],
            "depth": self.depth,
            "words": 2 ** (self.depth + 1) - 1,
            "zeta_values": self.depth - 1,
            "shuffle_pairs": self.n_pairs,
        }

    def build_references(self):
        # Phi[0^(n-1) 1] = -zeta(n)
        self.zeta = {n: -complex(mpmath.zeta(n)) for n in range(2, self.depth + 1)}
        self.bases = [iterint.basis_from_json(self._basis(p)) for p in self.points]

    def run_job(self, k):
        try:
            return iterint.associator(self.bases[k], 1, 0, depth=self.depth)
        except iterint.IterintError:
            return None

    def check(self, k, raw):
        if raw is None:
            return _padded([], len(self.zeta) + self.n_pairs)
        coeffs = {w.letters: c for w, c in raw.series.coeffs.items()}
        out = [
            _bounded(coeffs[(0,) * (n - 1) + (1,)], ref, raw.error, ZETA_TOL)
            for n, ref in self.zeta.items()
        ]
        for u, v, uv in self.pairs:
            lhs = coeffs[u] * coeffs[v]
            rhs = sum(m * coeffs[w] for w, m in uv.items())
            out.append(Value(abs(lhs - rhs) < SHUFFLE_TOL))
        return out


class SphereMzvTable(Workload):
    name = "sphere-mzv-table"
    why = (
        "many small segment solves on radius ladders plus least-squares fits: "
        "regularization and transport dispatch dominate, theta is not involved"
    )
    zetas = range(2, 7)
    polylog_orders = range(2, 9)
    n_words5 = 16
    n_points = 8

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        length5 = [tuple((k >> b) & 1 for b in reversed(range(5))) for k in range(32)]
        basis = self.basis_json()
        self.words5, self.points, self.mzv_configs, self.polylog_configs = [], [], [], []
        for k in range(self.cycle):
            words5 = sorted(rng.sample(length5, self.n_words5))
            entries = [{"i": 1, "j": 0, "depth": 4}]
            entries += [{"i": 1, "j": 0, "word": list(w)} for w in words5]
            entries += [{"i": 1, "j": 0, "zeta": n} for n in self.zetas]
            path = workdir / f"mzv-table-{k}.json"
            path.write_text(json.dumps({"basis": basis, "entries": entries}))
            self.words5.append(words5)
            self.mzv_configs.append(path)
            # |z| in [0.2, 0.8], uniform in area
            points = [
                0.8 * math.sqrt(rng.uniform(0.0625, 1.0)) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
                for _ in range(self.n_points)
            ]
            configs = []
            for m, z in enumerate(points):
                cfg = {
                    "basis": basis,
                    "path": {
                        "segments": [{"type": "line", "start": [0, 0], "end": [z.real, z.imag]}],
                        "reg_start": 0,
                    },
                    "words": [{"zeta": n} for n in self.polylog_orders],
                    "tol": PATH_TOL,
                }
                path = workdir / f"polylog-{k}-{m}.json"
                path.write_text(json.dumps(cfg))
                configs.append(path)
            self.points.append(points)
            self.polylog_configs.append(configs)
        self.n_rows = 31 + self.n_words5 + len(self.zetas)

    def basis_json(self):
        return {"genus": 0, "punctures": [[0.0, 0.0], [1.0, 0.0]]}

    def input_size(self):
        return {
            "inputs": [
                {"words_length5": [list(w) for w in ws], "polylog_points": [[z.real, z.imag] for z in zs]}
                for ws, zs in zip(self.words5, self.points)
            ],
            "mzv_rows": self.n_rows,
            "polylog_values": self.n_points * len(self.polylog_orders),
        }

    def build_references(self):
        basis = iterint.basis_from_json(self.basis_json())
        phi = iterint.associator(basis, 1, 0, depth=5)
        self.phi = {w.letters: c for w, c in phi.series.coeffs.items()}
        self.zeta = {n: complex(mpmath.zeta(n)) for n in self.zetas}
        self.polylog = [
            [
                {n: complex(mpmath.polylog(n, mpmath.mpc(z.real, z.imag))) for n in self.polylog_orders}
                for z in points
            ]
            for points in self.points
        ]

    def run_job(self, k):
        table = _cli(["mzv", "--config", str(self.mzv_configs[k])])
        paths = [_cli(["polylog", "--config", str(p)]) for p in self.polylog_configs[k]]
        return table, paths

    def check(self, k, raw):
        table, paths = raw
        rows = []
        for row in table["rows"] if table is not None else []:
            got = complex(*row["value"])
            key = row["word"]
            if key.startswith("zeta"):
                rows.append(_bounded(got, self.zeta[int(key[4:])], row["error"], ZETA_TOL))
            else:
                letters = tuple(int(a) for a in key.split("-")) if key else ()
                rows.append(Value(abs(got - self.phi[letters]) < ASSOCIATOR_TOL))
        out = _padded(rows, self.n_rows)
        for report, refs in zip(paths, self.polylog[k]):
            values = [
                _bounded(complex(*r["value"]), refs[int(r["key"][4:])], r["error"], PATH_TOL)
                for r in (report["results"] if report is not None else [])
            ]
            out += _padded(values, len(refs))
        return out


class TorusSuite(Workload):
    name = "torus-suite"
    why = (
        "the only workload with variation (finite differences), paths arcs and "
        "unregularized 4-form transport; surfaces evaluated one point at a time"
    )
    seeded = (("shuffle", 20), ("homotopy", 2), ("variation", 3), ("monodromy", 3))
    pointwise = (("fay", 30), ("structure", 40))
    n_pointwise_seeds = 10

    def __init__(self, seed: int, workdir: Path):
        self.taus = _lattice(random.Random(seed), self.cycle, *_TAU_BOX)
        # input k runs its suites at seed cycle*seed + k, and fay / structure
        # at the 10 consecutive seeds that start at 10 times that seed
        self.runs = []
        for k in range(self.cycle):
            s = self.cycle * seed + k
            runs = [(suite, s, n) for suite, n in self.seeded]
            runs += [
                (suite, self.n_pointwise_seeds * s + m, n)
                for m in range(self.n_pointwise_seeds)
                for suite, n in self.pointwise
            ]
            self.runs.append(runs)

    def basis_json(self):
        return _torus_basis(self.taus[0])

    def input_size(self):
        return {
            "inputs": [
                {**t, "suite_seed": runs[0][1]} for t, runs in zip(_taus(self.taus), self.runs)
            ],
            "suite_runs": len(self.runs[0]),
            "cases": sum(n for _, _, n in self.runs[0]),
        }

    def run_job(self, k):
        tau = _tau_arg(self.taus[k])
        return [
            _cli(["check", suite, "--genus", "1", tau, "--seed", str(s)])
            for suite, s, _ in self.runs[k]
        ]

    def check(self, k, raw):
        out = []
        for report, (_, _, n) in zip(raw, self.runs[k]):
            out += _check_cases(report, n)
        return out


WORKLOADS = {
    w.name: w for w in (TorusAssociator, SphereAssociatorDeep, SphereMzvTable, TorusSuite)
}
