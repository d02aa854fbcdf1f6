"""Command-line interface: schemas, exit codes, determinism."""

import cmath
import json
import math
import time

import pytest

import iterint.cli as cli_mod
from iterint.cli import main
from iterint.errors import ConfigError, IterintError, NumericalError

from oracles import zeta_em

LI2_06 = 0.72758630771633338951


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


SPHERE = {"genus": 0, "punctures": [[0, 0], [1, 0]]}
LIMIT = {"basis": SPHERE, "limit": {"target": 1, "base": 0}}


def line_job(basis, start, end):
    """A path-mode polylog job for the word (0, 1) along one line."""
    segment = {"type": "line", "start": start, "end": end}
    return {"basis": basis, "path": {"segments": [segment]}, "words": [[0, 1]]}


class TestPolylog:
    def test_limit_mode_zeta2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "job.json",
            {
                "basis": SPHERE,
                "limit": {"target": 1, "base": 0},
                "words": [{"zeta": 2}, []],
            },
        )
        rc, report = run_json(capsys, ["polylog", "--config", cfg])
        assert rc == 0
        by_key = {r["key"]: r for r in report["results"]}
        re, im = by_key["zeta2"]["value"]
        assert abs(re - zeta_em(2)) < 1e-8
        assert abs(im) < 1e-10
        assert abs(complex(*by_key[""]["value"]) - 1.0) < 1e-12

    def test_regularized_path_mode(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "job.json",
            {
                "basis": SPHERE,
                "path": {
                    "segments": [{"type": "line", "start": [0, 0], "end": [0.6, 0]}],
                    "reg_start": 0,
                },
                "words": [[0, 1], [0], {"zeta": 2}],
            },
        )
        rc, report = run_json(capsys, ["polylog", "--config", cfg])
        assert rc == 0
        by_key = {r["key"]: r for r in report["results"]}
        assert abs(complex(*by_key["0-1"]["value"]) + LI2_06) < 1e-12
        assert abs(complex(*by_key["0"]["value"]) - math.log(0.6)) < 1e-12
        # the zeta entry is the combination -(0, 1)
        assert abs(complex(*by_key["zeta2"]["value"]) - LI2_06) < 1e-12

    def test_plain_path_mode_json_and_csv(self, tmp_path, capsys):
        a, b = 0.2 + 0.1j, 0.6 - 0.3j
        segment = {"type": "line", "start": [a.real, a.imag], "end": [b.real, b.imag]}
        job = {"basis": SPHERE, "path": {"segments": [segment]}, "words": [[0], [1], [0, 1], {"zeta": 2}]}
        cfg = write_config(tmp_path, "job.json", job)
        rc, report = run_json(capsys, ["polylog", "--config", cfg])
        assert rc == 0 and report["mode"] == "path"
        by_key = {r["key"]: complex(*r["value"]) for r in report["results"]}
        # the straight line from a to b crosses no branch cut of either log
        assert abs(by_key["0"] - cmath.log(b / a)) < 1e-12
        assert abs(by_key["1"] - cmath.log((b - 1) / (a - 1))) < 1e-12
        assert by_key["zeta2"] == -by_key["0-1"]
        assert main(["polylog", "--config", cfg, "--format", "csv"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header == "key,re,im,err"
        rows = [line.split(",") for line in lines]
        assert [r[0] for r in rows] == [r["key"] for r in report["results"]]
        for (_, re, im, err), r in zip(rows, report["results"]):
            assert [float(re), float(im)] == r["value"]
            assert err == f"{r['error']:.3e}"

    @pytest.mark.parametrize(
        "job,message",
        [
            ([SPHERE], "top-level config must be a JSON object"),
            ({"basis": SPHERE, "limit": {"target": 1, "base": 0}}, "config is missing 'words'"),
            (
                {"basis": SPHERE, "limit": {"target": 1, "base": 0}, "words": [{"letters": [0]}]},
                "cannot read word entry",
            ),
            # json reads NaN: a non-finite end, puncture or guard is a bad request
            (line_job(SPHERE, [0.2, 0.1], [math.nan, 0]), "line segment ends must be finite"),
            (
                line_job({"genus": 0, "punctures": [[0, 0], [1, math.nan]]}, [0.2, 0.1], [0.5, 0.1]),
                "punctures must be finite",
            ),
            (
                line_job(dict(SPHERE, pole_guard=math.nan), [0.2, 0.1], [0.5, 0.1]),
                "pole_guard must be positive and finite",
            ),
            (
                line_job(dict(SPHERE, pole_guard=math.nan), [0.2, 0], [1 - 1e-8, 0]),
                "pole_guard must be positive and finite",
            ),
            # an integer field is never coerced: 1.5 is not read as 1
            (dict(LIMIT, words=[[0.9, 1.5]]), "word letter must be an integer, got 0.9"),
            (dict(LIMIT, words=[{"word": ["0", "1"]}]), "word letter must be an integer, got '0'"),
            (dict(LIMIT, words=[{"zeta": 2.7}]), "zeta must be an integer, got 2.7"),
            (
                {"basis": SPHERE, "limit": {"target": 1.0, "base": 0}, "words": [[0]]},
                "target must be an integer, got 1.0",
            ),
            (
                dict(LIMIT, basis=dict(SPHERE, genus=0.9), words=[[0]]),
                "genus must be an integer, got 0.9",
            ),
            (
                dict(
                    LIMIT,
                    basis=dict(SPHERE, forms=[{"kind": "genus0_log", "pole": p} for p in (0, 1.5)]),
                    words=[[0]],
                ),
                "pole must be an integer, got 1.5",
            ),
            (
                {
                    "basis": SPHERE,
                    "path": {
                        "segments": [{"type": "line", "start": [1, 0], "end": [0.4, 0]}],
                        "reg_start": True,
                    },
                    "words": [[0, 1]],
                },
                "reg_start must be an integer, got True",
            ),
            # a config with "entries" runs as mzv
            (
                {"basis": SPHERE, "entries": [{"i": 1.5, "j": 0, "word": [0, 1]}]},
                "i must be an integer, got 1.5",
            ),
            (
                {"basis": SPHERE, "entries": [{"i": 1, "j": 0.2, "word": [0, 1]}]},
                "j must be an integer, got 0.2",
            ),
            (
                {"basis": SPHERE, "entries": [{"i": 1, "j": 0, "depth": 1.5}]},
                "depth must be an integer, got 1.5",
            ),
        ],
        ids=[
            "not-an-object",
            "missing-key",
            "bad-word-entry",
            "nan-segment-end",
            "nan-puncture",
            "nan-guard-clear-path",
            "nan-guard-near-puncture",
            "float-letters",
            "string-letters",
            "float-zeta",
            "float-limit-target",
            "float-genus",
            "float-pole",
            "bool-reg-start",
            "mzv-float-i",
            "mzv-float-j",
            "mzv-float-depth",
        ],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, job, message):
        command = "mzv" if "entries" in job else "polylog"
        assert main([command, "--config", write_config(tmp_path, "job.json", job)]) == 2
        assert message in capsys.readouterr().err

    def test_numerical_failure_exits_1(self, tmp_path, capsys):
        # a path that ends 1e-8 from puncture 1, inside the default guard
        job = line_job(SPHERE, [0.2, 0], [1 - 1e-8, 0])
        assert main(["polylog", "--config", write_config(tmp_path, "job.json", job)]) == 1
        err = capsys.readouterr().err
        assert "numerical failure" in err and "passes within 1e-08 of puncture 1" in err

    def test_reg_start_out_of_range_exits_2(self, tmp_path, capsys):
        segment = {"type": "line", "start": [0, 0], "end": [0.6, 0]}
        job = {"basis": SPHERE, "path": {"segments": [segment], "reg_start": 5}, "words": [[0, 1]]}
        assert main(["polylog", "--config", write_config(tmp_path, "job.json", job)]) == 2
        assert "puncture index 5 out of range" in capsys.readouterr().err

    def test_reg_end_path_exits_2(self, tmp_path, capsys):
        # only the start of a path is regularized; a path that ends on a
        # puncture is rejected, not silently integrated
        segment = {"type": "line", "start": [0.4, 0], "end": [1, 0]}
        job = {"basis": SPHERE, "path": {"segments": [segment], "reg_end": 1}, "words": [[0, 1]]}
        assert main(["polylog", "--config", write_config(tmp_path, "job.json", job)]) == 2
        assert "expects an unregularized path" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"basis": {')
        rc = main(["polylog", "--config", str(p)])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_path_and_limit_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "job.json",
            {
                "basis": SPHERE,
                "path": {"segments": [{"type": "line", "start": [0, 0], "end": [1, 1]}]},
                "limit": {"target": 1, "base": 0},
                "words": [[0]],
            },
        )
        assert main(["polylog", "--config", cfg]) == 2


class TestMzv:
    def test_zeta3_row_and_depth0(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "job.json",
            {
                "basis": SPHERE,
                "entries": [{"i": 1, "j": 0, "zeta": 3}, {"i": 1, "j": 0, "depth": 0}],
            },
        )
        rc, report = run_json(capsys, ["mzv", "--config", cfg])
        assert rc == 0
        by_word = {r["word"]: r for r in report["rows"]}
        assert abs(complex(*by_word["zeta3"]["value"]) - 1.2020569032) < 1e-8
        assert abs(complex(*by_word[""]["value"]) - 1.0) < 1e-12

    def test_csv_round(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "job.json",
            {"basis": SPHERE, "entries": [{"i": 1, "j": 0, "word": [0, 1]}]},
        )
        rc = main(["mzv", "--config", cfg, "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "i,j,word,re,im,err"
        assert out.splitlines()[1].startswith("1,0,0-1,-1.644934066")

    def test_same_puncture_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "job.json",
            {"basis": SPHERE, "entries": [{"i": 1, "j": 1, "word": [0, 1]}]},
        )
        assert main(["mzv", "--config", cfg]) == 2

    def test_deterministic(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "job.json",
            {"basis": SPHERE, "entries": [{"i": 1, "j": 0, "depth": 2}]},
        )
        rc1, _ = run_json(capsys, ["mzv", "--config", cfg])
        main(["mzv", "--config", cfg])
        first = capsys.readouterr()
        main(["mzv", "--config", cfg])
        second = capsys.readouterr()
        assert rc1 == 0
        assert first.out == second.out


class TestCheck:
    def test_shuffle_passes(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["check", "shuffle", "--seed", "3", "--out", str(out)])
        report = json.loads(out.read_text())
        assert rc == 0
        assert report["pass"] is True
        assert all(c["pass"] for c in report["cases"])
        assert report["max_residual"] < 1e-10

    def test_fay_both_moduli(self, tmp_path):
        for tau in ("i", "0.5+1i"):
            out = tmp_path / "rep.json"
            rc = main(["check", "fay", "--tau", tau, "--seed", "1", "--out", str(out)])
            assert rc == 0
            assert json.loads(out.read_text())["max_residual"] < 1e-8

    def test_variation_genus1(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(
            ["check", "variation", "--genus", "1", "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["max_residual"] < 1e-4

    def test_monodromy_and_structure(self, tmp_path):
        for suite in ("monodromy", "structure"):
            rc = main(["check", suite, "--seed", "0", "--out", str(tmp_path / "r.json")])
            assert rc == 0

    def test_homotopy(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["check", "homotopy", "--depth", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["max_residual"] < 1e-9

    @pytest.mark.parametrize("tau", ["0.3i", "0.15i", "2.5+0.3i"])
    def test_homotopy_detour_around_a_puncture_exits_2(self, capsys, tau):
        # at these moduli a copy of a puncture lies between the straight path
        # and a detour, so the two are not homotopic and cannot be compared
        assert main(["check", "homotopy", "--genus", "1", "--tau", tau]) == 2
        err = capsys.readouterr().err
        assert "detour-0" in err and "copy of puncture 2" in err

    def test_impossible_tolerance_fails(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["check", "shuffle", "--tol", "1e-30", "--out", str(out)])
        assert rc == 1
        assert json.loads(out.read_text())["pass"] is False

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as info:
            main(["check", "nonsense"])
        assert info.value.code == 2

    def test_small_im_tau_exits_2(self, capsys):
        # no drawn path clears every pole translate at this modulus; the
        # bounded redraws end the run as a configuration error
        start = time.perf_counter()
        rc = main(["check", "variation", "--genus", "1", "--tau", "0.45+0.55i"])
        assert rc == 2
        assert time.perf_counter() - start < 10.0
        assert "draws at tau" in capsys.readouterr().err

    def test_tiny_im_tau_exits_2(self, tmp_path, capsys):
        # 1e-12i reduces to t = 1e12i, which the theta series rejects; the
        # lattice reduction before it stays cheap at any Im(tau)
        start = time.perf_counter()
        assert main(["check", "fay", "--tau", "1e-12i"]) == 2
        assert "too large" in capsys.readouterr().err
        basis = {"genus": 1, "punctures": [[0, 0], [0.5, 0]], "tau": [0, 1e-12]}
        segment = {"type": "line", "start": [0.1, 0.1], "end": [0.2, 0.1]}
        job = {"basis": basis, "path": {"segments": [segment]}, "words": [[0]]}
        assert main(["polylog", "--config", write_config(tmp_path, "job.json", job)]) == 2
        err = capsys.readouterr().err
        assert "reduced modulus t = " in err and "1000000000000j" in err
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("tau", ["0.15i", "0.1i", "0.07i", "0.05i"])
    def test_small_im_tau_associator_passes(self, tmp_path, tau):
        out = tmp_path / "rep.json"
        assert main(["check", "associator", "--genus", "1", "--tau", tau, "--out", str(out)]) == 0
        assert all(c["pass"] for c in json.loads(out.read_text())["cases"])

    def test_fay_no_draw_fits_exits_2(self, capsys):
        # no two points are 0.15 apart mod this lattice; the draws are bounded
        assert main(["check", "fay", "--tau", "0.14285714285714285+0.001i"]) == 2
        assert "draws at tau" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["fay", "structure"])
    def test_torus_suites_report_genus_1(self, tmp_path, capsys, suite):
        out = tmp_path / "rep.json"
        assert main(["check", suite, "--seed", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["genus"] == 1
        assert main(["check", suite, "--genus", "0"]) == 2
        assert "torus" in capsys.readouterr().err
        cfg = write_config(tmp_path, "cfg.json", {"genus": 0})
        assert main(["check", suite, "--config", cfg]) == 2

    @pytest.mark.parametrize("field", ["genus", "seed", "depth"])
    def test_non_integer_config_field_exits_2(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, "cfg.json", {field: 0.9})
        assert main(["check", "shuffle", "--config", cfg]) == 2
        assert f"{field} must be an integer, got 0.9" in capsys.readouterr().err

    def test_bad_tau(self, capsys):
        assert main(["check", "fay", "--tau", "banana"]) == 2

    def test_genus_2_exits_2(self, capsys):
        assert main(["check", "shuffle", "--genus", "2"]) == 2
        assert "genus must be 0 or 1, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fay", "--seed", "11"],
            ["variation", "--genus", "1", "--seed", "11"],
            ["structure", "--genus", "1", "--seed", "11"],
            ["associator"],
            ["variation", "--genus", "0", "--seed", "11"],
        ],
        ids=["fay", "variation-genus1", "structure-genus1", "associator", "variation-genus0"],
    )
    def test_seed_determinism(self, tmp_path, argv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["check", *argv, "--out", str(a)]) == 0
        assert main(["check", *argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_report(self, capsys):
        rc = main(["check", "shuffle", "--seed", "4", "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "case,residual,tol,pass"
        assert all(line.endswith(",true") for line in out.splitlines()[1:])

    def test_config_file_defaults(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"seed": 11, "tau": "i"})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["check", "fay", "--config", str(cfg), "--out", str(a)])
        main(["check", "fay", "--seed", "11", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# the exit status each library error has always given
EXIT_STATUS = {
    "ConfigError": 2,
    "DecompositionUnavailableError": 2,
    "EndpointMismatchError": 2,
    "MissingLabelError": 2,
    "NotGoodPunctureError": 2,
    "VariationUnsupportedError": 2,
    "NumericalError": 1,
    "ConventionError": 1,
    "FitError": 1,
    "PoleProximityError": 1,
    "ToleranceError": 1,
}


def test_every_error_has_one_family_and_its_exit_status(monkeypatch, capsys):
    errors = set(_subclasses(IterintError))
    assert set(EXIT_STATUS) <= {cls.__name__ for cls in errors}
    for cls in sorted(errors, key=lambda c: c.__name__):
        assert issubclass(cls, ConfigError) != issubclass(cls, NumericalError), cls
        status = 2 if issubclass(cls, ConfigError) else 1
        assert EXIT_STATUS.get(cls.__name__, status) == status, cls

        def fail(args, cls=cls):
            raise cls("raised inside a command")

        monkeypatch.setattr(cli_mod, "_cmd_check", fail)
        assert main(["check", "shuffle"]) == status
        prefix = "error" if status == 2 else "numerical failure"
        assert capsys.readouterr().err == f"{prefix}: raised inside a command\n"
