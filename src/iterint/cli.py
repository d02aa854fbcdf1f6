"""Batch command-line front end.

JSON configuration in, JSON or CSV reports out, complex numbers serialized
as [re, im] pairs.  Exit status 0 means every requested computation and
check passed, 1 that a computation ran but missed its tolerance, 2 that the
request itself was invalid.  Identical configuration and seed give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from .errors import (
    ConfigError,
    ConventionError,
    DecompositionUnavailableError,
    EndpointMismatchError,
    FitError,
    MissingLabelError,
    NotGoodPunctureError,
    PoleProximityError,
    ToleranceError,
    VariationUnsupportedError,
)
from .paths import LineSegment, LoopSpec, Path, line_path, path_from_json
from .regularization import (
    RegularizedTransport,
    associator,
    asymptotic_expansion,
    good_puncture_ctx,
    monodromy,
    mzv,
    zeta_word,
)
from .surfaces import (
    FormBasis,
    SurfaceConfig,
    ThetaParams,
    _copies_inside,
    basis_from_json,
    complex_to_json,
    fay_residual,
    lattice_distance,
    structure_constants,
)
from .transport import all_words, iterated_integral, transport_series
from .variation import (
    _MAX_DRAWS,
    fd_variation,
    random_sphere_request,
    random_torus_basis,
    random_torus_request,
    variation_rhs,
)
from .words import GeneralizedWord, Word, shuffle, word

_CONFIG_ERRORS = (
    ConfigError,
    DecompositionUnavailableError,
    EndpointMismatchError,
    MissingLabelError,
    NotGoodPunctureError,
    VariationUnsupportedError,
)
_NUMERIC_ERRORS = (ConventionError, FitError, PoleProximityError, ToleranceError)


# ---------------------------------------------------------------------------
# plumbing


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    return data


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    return cfg[key]


def _parse_tau(raw) -> complex:
    try:
        return complex(str(raw).replace("i", "j").replace(" ", ""))
    except ValueError as e:
        raise ConfigError(f"cannot parse tau {raw!r}") from e


def _word_key(w: Word) -> str:
    return "-".join(str(a) for a in w.letters)


def _word_entry(item) -> tuple[str, Word | GeneralizedWord]:
    """One requested value: a plain letter list, {"word": [...]}, or
    {"zeta": n} for the combination whose regularized limit is zeta(n)."""
    if isinstance(item, list):
        w = Word(tuple(int(a) for a in item))
        return _word_key(w), w
    if isinstance(item, dict) and "zeta" in item:
        n = int(item["zeta"])
        return f"zeta{n}", zeta_word(n)
    if isinstance(item, dict) and "word" in item:
        w = Word(tuple(int(a) for a in item["word"]))
        return _word_key(w), w
    raise ConfigError(f"cannot read word entry {item!r}")


def _limit_row(labels: dict, basis: FormBasis, target: int, base: int, obj, tol: float) -> dict:
    """One report row of a regularized limit toward puncture ``target``
    from ``base``: the ``labels``, the constant term and its error."""
    exp = asymptotic_expansion(basis, target, base, obj, tol=tol)
    return {**labels, "value": complex_to_json(exp.coefficients[0]), "error": exp.error}


# ---------------------------------------------------------------------------
# polylog and mzv commands


def _cmd_polylog(args) -> tuple[dict, bool]:
    cfg = _load_config(args.config)
    tol = args.tol if args.tol is not None else float(cfg.get("tol", 1e-12))
    basis = basis_from_json(_require(cfg, "basis"))
    entries = [_word_entry(x) for x in _require(cfg, "words")]
    if ("path" in cfg) == ("limit" in cfg):
        raise ConfigError("config needs exactly one of 'path' or 'limit'")

    if "limit" in cfg:
        target = int(_require(cfg["limit"], "target"))
        base = int(_require(cfg["limit"], "base"))
        rows = [_limit_row({"key": key}, basis, target, base, obj, tol) for key, obj in entries]
        mode = "limit"
    else:
        path = path_from_json(cfg["path"])
        objs = [obj for _, obj in entries]
        if path.reg_start is not None:
            rt = RegularizedTransport.along(path, basis, words=objs, tol=tol)
            values, error = [rt.value(obj) for obj in objs], rt.error
        else:
            res = iterated_integral(path, objs, basis, tol)
            values, error = res.values, res.error
        rows = [
            {"key": k, "value": complex_to_json(v), "error": error}
            for (k, _), v in zip(entries, values)
        ]
        mode = "path"
    rows.sort(key=lambda r: r["key"])
    return {"command": "polylog", "mode": mode, "results": rows}, True


def _cmd_mzv(args) -> tuple[dict, bool]:
    cfg = _load_config(args.config)
    tol = args.tol if args.tol is not None else float(cfg.get("tol", 1e-12))
    basis = basis_from_json(_require(cfg, "basis"))
    jobs: list[tuple[int, int, str, Word | GeneralizedWord]] = []
    for entry in _require(cfg, "entries"):
        i = int(_require(entry, "i"))
        j = int(_require(entry, "j"))
        if "depth" in entry:
            for w in all_words(range(basis.n_forms), int(entry["depth"])):
                jobs.append((i, j, _word_key(w), w))
        else:
            key, obj = _word_entry(entry)
            jobs.append((i, j, key, obj))
    jobs.sort(key=lambda t: (t[0], t[1], t[2]))
    rows = [
        _limit_row({"i": i, "j": j, "word": key}, basis, i, j, obj, tol) for i, j, key, obj in jobs
    ]
    return {"command": "mzv", "rows": rows}, True


# ---------------------------------------------------------------------------
# check suites


def _default_basis(genus: int, tau: complex) -> FormBasis:
    if genus == 0:
        return FormBasis.genus0(SurfaceConfig(0, (0.0, 1.0)))
    return FormBasis.genus1(SurfaceConfig(1, (0.0, 0.45, 0.25 + 0.35j), tau=tau))


def _default_path(genus: int) -> Path:
    if genus == 0:
        return line_path(-0.5 - 0.5j, 1.5 - 0.5j)
    return line_path(-0.25 - 0.25j, 0.85 - 0.2j)


def _default_pair(genus: int, depth: int | None) -> tuple[int, int, int]:
    """Punctures (i, j) of the monodromy and associator suites, and their depth."""
    if genus == 0:
        return 1, 0, 3 if depth is None else depth
    return 2, 1, 2 if depth is None else depth


def _suite_shuffle(rng, genus, tau, depth, tol):
    tol = 1e-10 if tol is None else tol
    basis = _default_basis(genus, tau)
    path = _default_path(genus)
    n = basis.n_forms
    pairs = []
    for _ in range(20):
        u = Word(tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))))
        v = Word(tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))))
        pairs.append((u, v))
    items: list = []
    for u, v in pairs:
        items += [u, v, shuffle(u, v)]
    res = iterated_integral(path, items, basis, 1e-12)
    cases = []
    for m, (u, v) in enumerate(pairs):
        vu, vv, vs = res.values[3 * m : 3 * m + 3]
        cases.append(
            {
                "case": f"{_word_key(u)}|{_word_key(v)}",
                "residual": abs(vu * vv - vs),
                "tol": tol,
            }
        )
    return cases


def _suite_fay(rng, genus, tau, depth, tol):
    tol = 1e-8 if tol is None else tol
    params = ThetaParams(tau)
    draws = []
    for _ in range(30):
        for _ in range(_MAX_DRAWS):
            pts = [
                rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * tau for _ in range(3)
            ]
            diffs = [pts[0] - pts[1], pts[0] - pts[2], pts[1] - pts[2]]
            if lattice_distance(diffs, tau).min() > 0.15:
                break
        else:
            raise ConfigError(f"no three points 0.15 apart in {_MAX_DRAWS} draws at tau={tau}")
        draws.append(pts)
    residuals = abs(fay_residual(*zip(*draws), params))
    return [
        {"case": f"draw-{m:02d}", "residual": float(r), "tol": tol}
        for m, r in enumerate(residuals)
    ]


def _suite_structure(rng, genus, tau, depth, tol):
    tol = 1e-8 if tol is None else tol
    cases = []
    for t in range(2):
        basis = random_torus_basis(rng, tau)
        s = basis.surface
        sc = structure_constants(basis, 1, 2)
        points = []
        for _ in range(20):
            while True:
                z = rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * tau
                if s.min_puncture_distance(z) > 0.15:
                    break
            points.append(z)
        residuals = abs(sc.residual(basis, points))
        cases += [
            {"case": f"torus-{t}-pt-{m:02d}", "residual": float(r), "tol": tol}
            for m, r in enumerate(residuals)
        ]
    return cases


def _suite_homotopy(rng, genus, tau, depth, tol):
    tol = 1e-9 if tol is None else tol
    depth = 3 if depth is None else depth
    basis = _default_basis(genus, tau)
    straight = _default_path(genus)
    a, b = straight.start, straight.end
    mids = (0.5 - 1.1j, 0.2 - 0.8j) if genus == 0 else (0.3 - 0.32j, 0.5 - 0.38j)
    # a detour is homotopic to the straight path only when the triangle
    # between them holds no copy of a puncture
    for m, mid in enumerate(mids):
        enclosed = _copies_inside(basis.surface, (a, mid, b))
        if enclosed:
            p, copy = enclosed[0]
            raise ConfigError(
                f"detour-{m} through {mid} is not homotopic to the straight path at "
                f"tau = {tau}: it encloses {copy:.6g}, a copy of puncture {p}"
            )
    ref = transport_series(straight, basis, depth=depth)
    cases = []
    for m, mid in enumerate(mids):
        bent = Path((LineSegment(a, mid), LineSegment(mid, b)))
        res = transport_series(bent, basis, depth=depth)
        cases.append(
            {
                "case": f"detour-{m}",
                "residual": ref.series.max_abs_diff(res.series),
                "tol": tol,
            }
        )
    return cases


def _suite_variation(rng, genus, tau, depth, tol):
    tol = 1e-4 if tol is None else tol
    if genus == 0:
        reqs = [random_sphere_request(rng) for _ in range(3)]
    else:
        reqs = [random_torus_request(rng, tau=tau) for _ in range(3)]

    def one(m, req):
        rhs = variation_rhs(req)
        fd = fd_variation(req, 1e-4)
        return {
            "case": f"config-{m}",
            "residual": abs(rhs - fd) / abs(rhs),
            "tol": tol,
        }

    return [one(m, req) for m, req in enumerate(reqs)]


def _suite_monodromy(rng, genus, tau, depth, tol):
    basis = _default_basis(genus, tau)
    pts = basis.surface.punctures
    i, j, depth = _default_pair(genus, depth)
    base = pts[j] + 0.5 * (pts[i] - pts[j])
    loop = LoopSpec(i, 1, basepoint=base)
    ki = good_puncture_ctx(basis, i).form_label
    reg_label = next(
        k for k in range(basis.n_forms) if i not in basis.forms[k].pole_indices()
    )
    lj = RegularizedTransport.along(
        line_path(pts[j], base), basis, depth=depth, puncture=j
    ).series()
    mj = monodromy(basis, loop, j, depth=depth)
    mi = monodromy(basis, loop, i, depth=depth)
    phi = associator(basis, i, j, depth=depth)
    shift = mj.coefficient(word(ki)) - lj.coefficient(word(ki))
    flat = mj.coefficient(word(reg_label)) - lj.coefficient(word(reg_label))
    return [
        {
            "case": "singular-shift",
            "residual": abs(shift - 2j * math.pi),
            "tol": 1e-10 if tol is None else tol,
        },
        {
            "case": "regular-shift",
            "residual": abs(flat),
            "tol": 1e-10 if tol is None else tol,
        },
        {
            "case": "relation",
            "residual": mj.max_abs_diff(mi.product(phi.series)),
            "tol": 1e-7 if tol is None else tol,
        },
    ]


def _suite_associator(rng, genus, tau, depth, tol):
    tol = 1e-6 if tol is None else tol
    basis = _default_basis(genus, tau)
    i, j, depth = _default_pair(genus, depth)
    phi = associator(basis, i, j, depth=depth)
    cases = [{"case": "probe-residual", "residual": phi.probe_residual, "tol": tol}]

    def one(w):
        limit = mzv(basis, i, j, w)
        return {
            "case": _word_key(w),
            "residual": abs(phi.series.coefficient(w) - limit),
            "tol": tol,
        }

    words = [w for w in all_words(range(basis.n_forms), depth) if not w.is_empty]
    return cases + [one(w) for w in words]


# every suite is called as suite(rng, genus, tau, depth, tol) and returns its cases
_SUITES = {
    "shuffle": _suite_shuffle,
    "fay": _suite_fay,
    "structure": _suite_structure,
    "homotopy": _suite_homotopy,
    "variation": _suite_variation,
    "monodromy": _suite_monodromy,
    "associator": _suite_associator,
}


def _cmd_check(args) -> tuple[dict, bool]:
    cfg = _load_config(args.config) if args.config else {}
    suite = args.suite
    torus_only = suite in ("fay", "structure")
    genus = args.genus if args.genus is not None else int(cfg.get("genus", int(torus_only)))
    if genus not in (0, 1):
        raise ConfigError(f"genus must be 0 or 1, got {genus}")
    if torus_only and genus != 1:
        raise ConfigError(f"check {suite} runs on a torus; got genus {genus}")
    tau = _parse_tau(args.tau if args.tau is not None else cfg.get("tau", "i"))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    depth = args.depth if args.depth is not None else cfg.get("depth")
    tol = args.tol if args.tol is not None else cfg.get("tol")
    cases = _SUITES[suite](random.Random(seed), genus, tau, depth, tol)
    for c in cases:
        c["pass"] = bool(c["residual"] < c["tol"])
    ok = all(c["pass"] for c in cases)
    report = {
        "command": "check",
        "suite": suite,
        "genus": genus,
        "tau": complex_to_json(tau),
        "seed": seed,
        "cases": cases,
        "max_residual": max(c["residual"] for c in cases),
        "pass": ok,
    }
    return report, ok


# ---------------------------------------------------------------------------
# rendering and entry point


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if report["command"] == "check":
        lines = ["case,residual,tol,pass"]
        for c in report["cases"]:
            flag = "true" if c["pass"] else "false"
            lines.append(f"{c['case']},{c['residual']:.17g},{c['tol']:.3e},{flag}")
    elif report["command"] == "mzv":
        lines = ["i,j,word,re,im,err"]
        for r in report["rows"]:
            re, im = r["value"]
            lines.append(f"{r['i']},{r['j']},{r['word']},{re:.17g},{im:.17g},{r['error']:.3e}")
    else:
        lines = ["key,re,im,err"]
        for r in report["results"]:
            re, im = r["value"]
            lines.append(f"{r['key']},{re:.17g},{im:.17g},{r['error']:.3e}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterint",
        description="iterated integrals on punctured spheres and tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--out", help="write the report to this file instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser(
        "polylog", help="evaluate words along a path or their limits at a puncture"
    )
    p.add_argument("--config", required=True, help="JSON job description")
    add_output(p)

    p = sub.add_parser("mzv", help="tabulate regularized limits between two punctures")
    p.add_argument("--config", required=True, help="JSON job description")
    add_output(p)

    p = sub.add_parser("check", help="run a numerical identity suite")
    p.add_argument("suite", choices=_SUITES)
    p.add_argument("--config", help="optional JSON defaults for the flags below")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--tau", default=None, help='modulus, e.g. "i" or "0.5+1i"')
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    add_output(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    dispatch = {"polylog": _cmd_polylog, "mzv": _cmd_mzv, "check": _cmd_check}
    try:
        report, ok = dispatch[args.command](args)
        text = _render(report, args.format)
    except _CONFIG_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError, OSError) as e:
        print(f"invalid configuration: {e}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1
    _emit(text, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
