"""Command-line contract: report shape, determinism, exit codes, config
precedence.  Heavier verification suites get one smoke run each; their
mathematical content is covered by the library test modules.
"""

import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import moditer
from moditer import cli, forms, iterint, mzv
from moditer.errors import DomainError

ZETA3 = 1.2020569031595942854


def child_env(**extra):
    """os.environ for a child interpreter that imports this moditer, also
    from a checkout where only pytest's pythonpath setting finds it."""
    src = os.path.dirname(os.path.dirname(moditer.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_qexp_example(capsys):
    code, rep = run_json(capsys, "qexp", "F", "--order", "5")
    assert code == 0
    assert rep["data"]["coeffs"] == [0, 1, 0, 4, 0, 6]
    assert rep["data"]["level"] == 4
    assert rep["inputs"] == {"name": "F", "order": 5}
    assert rep["config"]["order"] == 5


def test_json_shape_and_wall_time_on_stderr(capsys):
    code, out, err = run_cli(capsys, "eval", "G", "--z", "0.7j")
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == [
        "subcommand", "inputs", "config", "values", "checks", "data",
        "passed", "failed",
    ]
    assert "wall" not in out
    assert "wall time" in err
    (v,) = rep["values"]
    assert v["label"] == "G(0.7j)"
    assert len(v["value"]) == 2


def test_byte_identical_output_across_processes():
    for args, label in (
        (["iterint", "delta", "--s", "8"], "I(delta; 8)"),
        (["iterint", "delta", "delta", "--s", "9,2"], "I(delta,delta; 9,2)"),
    ):
        cmd = [sys.executable, "-m", "moditer.cli", *args]
        a = subprocess.run(cmd, capture_output=True, check=True, env=child_env())
        b = subprocess.run(cmd, capture_output=True, check=True, env=child_env())
        assert a.stdout == b.stdout
        assert b"RuntimeWarning" not in a.stderr
        (v,) = json.loads(a.stdout)["values"]
        assert v["label"] == label
        assert v["value"][0] != 0.0


def test_repeated_inprocess_runs_identical(capsys):
    _, out1, _ = run_cli(capsys, "lvalue", "delta", "--s", "8")
    _, out2, _ = run_cli(capsys, "lvalue", "delta", "--s", "8")
    assert out1 == out2


def test_lvalue_builds_its_forms_only_to_the_cut(capsys, monkeypatch):
    built = []
    builtin = forms.builtin

    def recording(name, order):
        built.append((name, order))
        return builtin(name, order)

    monkeypatch.setattr(forms, "builtin", recording)
    # L(delta; 30) stops at shell 5: Delta is built at --order and no further,
    # and the report, echoed cutoff included, is the one a build to 2000 gave
    code, rep = run_json(capsys, "lvalue", "delta", "--s", "30")
    assert code == 0 and built == [("delta", 64)]
    assert rep["config"]["cutoff"] == 2000
    assert rep["values"] == [{"label": "L(delta; 30)",
                              "value": [-1.13397619976778e-24, 6.11177324138156e-39],
                              "err": 3.86536256214328e-39}]
    # L(delta; 12) stops at shell 1293, past --order: Delta is built that far
    built.clear()
    code, out, _ = run_cli(capsys, "lvalue", "delta", "--s", "12")
    T0, _ = iterint._shell_cut((builtin("delta", 64),), (12,), 2000)
    assert code == 0 and built == [("delta", 64), ("delta", T0)] and T0 == 1293
    full = json.loads(run_cli(capsys, "lvalue", "delta", "--s", "12", "--order", "2000")[1])
    assert json.loads(out)["values"] == full["values"]


def test_exit_codes(capsys):
    assert run_cli(capsys, "no-such-subcommand")[0] == 1
    assert run_cli(capsys, "qexp", "nosuchform")[0] == 1
    assert run_cli(capsys, "eval", "F", "--z", "nonsense")[0] == 1
    assert run_cli(capsys, "lvalue", "E4", "--s", "4")[0] == 1  # below threshold
    assert run_cli(capsys, "funceq-verify", "--panels", "1")[0] == 1
    assert run_cli(capsys, "mzv", "--index", "1,2")[0] == 1  # inadmissible
    assert run_cli(capsys)[0] == 1
    for argv in (
        ("lvalue", "delta", "--s", "nan"),
        ("eval", "delta", "--z", "nan+1j"),
        ("iterint", "delta", "--s", "nan"),
        ("iterint", "delta", "--s", "8", "--tol", "nan"),
        ("qexp", "F", "--height", "inf"),
        ("lvalue", "G", "--s", "1", "--force", "--output", "csv"),
        ("iterint", "E2", "--s", "1.5"),  # quasimodular: no Fricke companion
        ("lvalue", "delta", "delta", "--s", "8"),
        ("iterint", "G", "F", "--s", "1"),
        ("mzv", "--index", "2,x"),
        ("qexp", "F", "--order", "0"),
        ("lvalue", "delta", "--s", "8", "--cutoff", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: "), argv
    # the run's --tol reaches the truncation check (err 2.76e-9 here)
    code, out, err = run_cli(capsys, "eval", "F", "--z", "0.3+0.02j", "--tol", "1e-10")
    assert (code, out) == (1, "")
    assert err.startswith("error: tail bound ") and "exceeds tolerance 1.0e-10" in err


def test_eval_far_up_the_imaginary_axis(capsys):
    # 2 pi Im z overflows: q is 0, so each form is its constant term, and
    # filterwarnings = error turns any numpy RuntimeWarning into a failure
    for z in ("1e307j", "1e308j"):
        for name, want in (("delta", [0.0, 0.0]), ("E4", [1.0, 0.0])):
            code, rep = run_json(capsys, "eval", name, f"--z={z}")
            assert code == 0
            (v,) = rep["values"]
            assert (v["value"], v["err"]) == (want, 0.0), (name, z)


def test_iterint_overflowing_height_exits_one():
    # z^7 overflows on the path: the gap is not finite, so the level stalls
    # with the named quadrature error rather than a bare OverflowError; numpy
    # warns of nothing on the way, which -W error would turn into a traceback
    cmd = [sys.executable, "-W", "error", "-m", "moditer.cli", "iterint", "delta",
           "--s", "8", "--height", "1e300"]
    got = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
    assert (got.returncode, got.stdout) == (1, "")
    assert "error: quadrature stalled at 48 panels with error estimate inf" in got.stderr
    assert "RuntimeWarning" not in got.stderr
    assert "Traceback" not in got.stderr


def named_error(*argv, flags=()) -> str:
    """stderr of the CLI in a child interpreter (run with the interpreter
    flags given), which must end in a named error: exit 1, nothing on stdout,
    an "error:" line and no traceback."""
    cmd = [sys.executable, *flags, "-m", "moditer.cli", *argv]
    got = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
    assert (got.returncode, got.stdout) == (1, ""), got.stderr
    assert got.stderr.startswith("error: ") and "Traceback" not in got.stderr
    return got.stderr


@pytest.mark.parametrize("argv", [("qexp", "E260", "--order", "1000"),
                                  ("eval", "E260", "--z", "1j", "--order", "1000")])
def test_builtin_coefficient_outside_float_range(argv):
    assert "form 'E260': coefficient a_237 leaves the float range" in named_error(*argv)


def test_eisenstein_above_the_weight_cap_exits_one():
    # refused before B_800 is computed, which alone took about a second
    assert named_error("qexp", "E800", "--order", "3") == (
        "error: Eisenstein series need k <= 260, got 800: past it the multiplier "
        "-2k/B_k is below the normal float range\n")


@pytest.mark.parametrize("argv", [("qexp", "huge"), ("eval", "huge", "--z", "1j")])
def test_loaded_coefficient_outside_float_range(tmp_path, argv):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"level": 1, "weight": 12, "label": "huge", "coeffs": [0, 1, 10**400]}))
    assert "form 'huge': coefficient a_2 leaves the float range" in named_error(*argv, "--form", str(path))


def test_closed_form_overflow_exits_one():
    assert "leaves the float range" in named_error("iterint", "G", "--s", "-1e308")


@pytest.mark.parametrize("argv, message", [
    (("iterint", "delta", "--s", "-1e308"),
     "error: Fricke prefactor at exponent sum -1e+308+0j leaves the float range\n"),
    (("lvalue", "delta", "--s", "8+1e308j"),
     "error: prefactor (-2 pi i)^-(8+1e+308j) leaves the float range\n"),
])
def test_prefactor_overflow_is_named(argv, message):
    # under -W error a numpy warning on the way would end in a traceback
    assert named_error(*argv, flags=("-W", "error")) == message


@pytest.mark.parametrize("argv", [("lvalue", "delta", "delta", "--s", "1e308,1"),
                                  ("lvalue", "delta", "--s", "1e308")])
def test_shell_exponent_past_the_float_range_is_zero(capsys, argv):
    # t^-1e308 is exactly 0 for t >= 2: filterwarnings = error turns a numpy
    # overflow warning on the way into a failure
    code, rep = run_json(capsys, *argv)
    assert code == 0
    (v,) = rep["values"]
    assert v["value"] == [0.0, 0.0]


def test_qexp_prints_integers_only_for_integral_coefficients(capsys):
    # past 2^53 every float is integral, so a_18.. of E12 (denominator 691)
    # must still print as 15-digit floats, not as the floor of their value
    e12 = forms.builtin("E12", 40)
    code, rep = run_json(capsys, "qexp", "E12", "--order", "40")
    got = rep["data"]["coeffs"]
    assert code == 0 and got[0] == 1 and type(got[0]) is int
    assert all(type(c) is float and c == float(f"{float(a):.15g}")
               for c, a in zip(got[1:], e12.coeffs[1:]))
    assert got[40] == 3.97894434475929e19
    code, rep = run_json(capsys, "qexp", "delta", "--order", "1000")
    assert code == 0 and rep["data"]["coeffs"][1000] == -30328412970240000


def test_qexp_prints_complex_coefficient_as_pair(capsys, tmp_path):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"level": 1, "weight": 12, "label": "cx", "coeffs": [0, [1.5, -2], 3]}))
    code, rep = run_json(capsys, "qexp", "cx", "--form", str(path))
    assert code == 0 and rep["data"]["coeffs"] == [0, [1.5, -2.0], 3]


def test_negative_value_after_option(capsys):
    code, spaced, _ = run_cli(capsys, "eval", "delta", "--z", "-0.1+1j")
    assert code == 0
    assert spaced == run_cli(capsys, "eval", "delta", "--z=-0.1+1j")[1]


def test_eval_err_bounds_truncation(capsys):
    # F has a_n = 0 for even n, so the stored a_200 says nothing of the tail
    z = "0.3+0.02j"
    _, lo = run_json(capsys, "eval", "F", "--z", z)
    _, hi = run_json(capsys, "eval", "F", "--z", z, "--order", "1200")
    v_lo, v_hi = (complex(*rep["values"][0]["value"]) for rep in (lo, hi))
    assert lo["values"][0]["err"] >= abs(v_lo - v_hi) > 1e-10


def test_failing_check_exits_two(capsys):
    # cutoff 30 leaves a fat Dirichlet tail for the slowly converging E4 pair
    code, rep = run_json(capsys, "thi-verify", "--cutoff", "30")
    assert code == 2
    assert rep["failed"] >= 1


def test_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("MODITER_ORDER", "7")
    _, rep = run_json(capsys, "qexp", "F")
    assert len(rep["data"]["coeffs"]) == 8
    _, rep = run_json(capsys, "qexp", "F", "--order", "5")
    assert len(rep["data"]["coeffs"]) == 6
    monkeypatch.setenv("MODITER_ORDER", "junk")
    assert run_cli(capsys, "qexp", "F")[0] == 1
    monkeypatch.delenv("MODITER_ORDER")
    monkeypatch.setenv("MODITER_TOL", "nan")
    assert run_cli(capsys, "qexp", "F")[0] == 1


@pytest.mark.parametrize("raw", ["abc", "nan"])
def test_bad_env_value_fails_at_startup(raw):
    # the config is read when the CLI runs, not when moditer is imported
    got = subprocess.run([sys.executable, "-m", "moditer.cli", "qexp", "delta"],
                         capture_output=True, text=True, env=child_env(MODITER_TOL=raw))
    assert (got.returncode, got.stdout) == (1, "")
    assert got.stderr.startswith("error:")
    assert "Traceback" not in got.stderr


def test_import_loads_no_scipy():
    code = "import sys, moditer.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    got = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=child_env())
    assert got.stdout == "[]\n"


def test_csv_output(capsys):
    code, out, _ = run_cli(capsys, "mzv", "--index", "3", "--method", "series",
                           "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "label,re,im,err"
    assert lines[1].startswith("zeta(3) [series],1.202056903")

    code, out, _ = run_cli(capsys, "eta-verify", "--output", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[0].startswith("name,lhs_re")
    assert len(rows) == 4 and all(r.endswith("True") for r in rows[1:])

    code, out, _ = run_cli(capsys, "qexp", "F", "--order", "3", "--output", "csv")
    assert out.splitlines() == ["n,coeff", "0,0", "1,1", "2,0", "3,4"]


def test_form_loading(capsys, tmp_path):
    f = forms.builtin("E6", 30)
    path = tmp_path / "e6.json"
    forms.save_form(f, path)
    code, rep = run_json(capsys, "qexp", "E6", "--form", str(path), "--order", "2")
    assert code == 0
    assert rep["data"]["coeffs"] == [1, -504, -16632]


def test_mzv_methods_agree(capsys):
    vals = {}
    for method in ("series", "p1", "modular"):
        code, rep = run_json(capsys, "mzv", "--index", "2,1", "--method", method)
        assert code == 0
        vals[method] = complex(*rep["values"][0]["value"])
    for v in vals.values():
        assert abs(v - ZETA3) < 1e-6


@pytest.mark.parametrize("index,want", [("3", ZETA3), ("2,1", ZETA3)])
def test_mzv_modular_err_bounds_error(capsys, index, want):
    code, rep = run_json(capsys, "mzv", "--index", index, "--method", "modular")
    assert code == 0
    (v,) = rep["values"]
    assert v["err"] >= abs(complex(*v["value"]) - want)


@pytest.mark.parametrize("index,cutoff", [("2", "16"), ("2,1", "17"), ("2,1,1", "31")])
def test_mzv_series_refuses_a_cutoff_below_32(capsys, index, cutoff):
    # err is the change against a rerun at half the cutoff, and mzv_series
    # needs a cutoff of at least 16: below 32 the rerun cannot be made
    code, out, err = run_cli(capsys, "mzv", "--index", index, "--cutoff", cutoff)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: mzv --method series needs cutoff >= 32, got {cutoff}: ")


@pytest.mark.parametrize("index,want", [("2", math.pi**2 / 6), ("2,1", ZETA3)])
def test_mzv_series_err_bounds_error_at_cutoff_32(capsys, index, want):
    code, rep = run_json(capsys, "mzv", "--index", index, "--cutoff", "32")
    assert code == 0
    (v,) = rep["values"]
    assert v["err"] >= abs(v["value"][0] - want) > 0


def test_mzv_p1_value_does_not_follow_panels(capsys):
    # p1 meshes the unit interval on its own fixed chain
    outs = []
    for panels in ("4", "6", "48", "100"):
        code, rep = run_json(capsys, "mzv", "--index", "2,1,1", "--method", "p1",
                             "--panels", panels)
        assert code == 0 and rep["config"]["panels"] == int(panels)
        outs.append(rep["values"])
    assert all(v == outs[0] for v in outs)


def test_mzv_suite_shows_each_route_value():
    rep = cli.verify_suite("mzv")
    routes = {"p1": mzv.mzv_p1_integral, "modular": mzv.mzv_modular_integral}
    assert len(rep.checks) == 6
    for check in rep.checks:
        zeta, route, _, _ = check["name"].split()
        idx = mzv.MzvIndex(tuple(int(k) for k in zeta[5:-1].split(",")))
        assert check["lhs"] == cli._pair(routes[route](idx))
        assert check["rhs"] == cli._pair(mzv.mzv_series(idx))
        # the sides print apart wherever they differ above the 15-digit rounding
        if check["diff"] > 1e-13:
            assert check["lhs"] != check["rhs"], check


PI4 = math.pi**4
ZETAS = {"2": math.pi**2 / 6, "3": ZETA3, "4": PI4 / 90, "2,1": ZETA3, "3,1": PI4 / 360,
         "2,2": PI4 / 120, "2,1,1": PI4 / 90}
# err defects that printing does not cause: the iterint sweeps carry no
# rounding term (ROADMAP item 2)
NO_ROUNDING_TERM = {"iterint delta --s 16", "iterint delta --s 20", "iterint delta --s 24"}


def _closed_forms():
    """(command, true real part or None, true imaginary part) of every CLI
    value with a closed form: zeta values by all three routes, I(delta; s),
    real at even s, and eval where q = e^{2 pi i z} is 0 in double, a_0."""
    for index, zeta in ZETAS.items():
        for method in ("series", "p1", "modular"):
            yield f"mzv --index {index} --method {method}", zeta, 0.0
    for s in (2, 4, 8, 12, 16, 20, 24):
        yield f"iterint delta --s {s}", None, 0.0
    for name, a0 in (("E4", 1.0), ("E6", 1.0), ("delta", 0.0), ("G", 1.0), ("F", 0.0)):
        yield f"eval {name} --z 200j", a0, 0.0


def test_readme_closed_forms_are_covered():
    commands = [" ".join(argv) for argv in _readme_commands()]
    covered = [cmd for cmd, _, _ in _closed_forms() if cmd in commands]
    assert covered == ["mzv --index 2,1 --method modular", "iterint delta --s 8"]


@pytest.mark.parametrize("command, re, im", [
    pytest.param(cmd, re, im, id=cmd.replace(" --", "-").replace(" ", "-"),
                 marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 2")]
                 if cmd in NO_ROUNDING_TERM else [])
    for cmd, re, im in _closed_forms()])
def test_printed_err_bounds_the_printed_value(capsys, command, re, im):
    code, rep = run_json(capsys, *command.split())
    assert code == 0
    (v,) = rep["values"]
    printed = complex(*v["value"])
    true = complex(printed.real if re is None else re, im)
    assert abs(printed - true) <= v["err"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_iterint_err_covers_the_imaginary_part_of_a_real_integral(capsys):
    # I(delta; 40) is real: its imaginary part is all error
    code, rep = run_json(capsys, "iterint", "delta", "--s", "40", "--height", "40")
    assert code == 0
    (v,) = rep["values"]
    assert abs(v["value"][1]) <= v["err"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_mzv_modular_err_covers_the_height_cut(capsys):
    code, rep = run_json(capsys, "mzv", "--index", "2", "--method", "modular",
                         "--height", "1")
    assert code == 0
    (v,) = rep["values"]
    assert abs(v["value"][0] - math.pi**2 / 6) <= v["err"]


def test_mzv_modular_runs_the_pullback_once(capsys, monkeypatch):
    calls = []
    report = iterint.iterint_report
    monkeypatch.setattr(iterint, "iterint_report", lambda *a: calls.append(1) or report(*a))
    assert run_cli(capsys, "mzv", "--index", "2,1", "--method", "modular")[0] == 0
    assert len(calls) == 1


def test_eta_suite_all_pass(capsys):
    code, rep = run_json(capsys, "eta-verify", "--order", "200")
    assert code == 0
    assert rep["passed"] == 3 and rep["failed"] == 0
    assert all(c["diff"] == 0.0 for c in rep["checks"])


def test_funceq_suite(capsys):
    code, rep = run_json(capsys, "funceq-verify")
    assert code == 0
    assert rep["passed"] == 3
    assert all(c["diff"] < 1e-6 for c in rep["checks"])


def test_thi_terms_match_printed_expansion(capsys):
    code, rep = run_json(capsys, "thi-verify")
    assert code == 0
    terms = rep["data"]["terms"]
    assert len(terms) == 5
    assert "Gamma(s) * L[0,1](s, 2)" in terms
    assert "Gamma(s+1) * L[0,1](s+1, 1)" in terms
    assert "-1/2 * a0[1] * Gamma(s+2) * L[0](s+2)" in terms


def test_ths_suite_round_trip(capsys):
    code, rep = run_json(capsys, "ths-verify")
    assert code == 0
    names = [c["name"] for c in rep["checks"]]
    assert any("round trip" in n for n in names)
    assert rep["failed"] == 0


@pytest.mark.parametrize("suite", cli.SUITES)
def test_verify_suite_library_surface(suite):
    rep = cli.verify_suite(suite)
    assert rep.failed == 0
    assert rep.checks


def test_verify_suite_unknown_name():
    with pytest.raises(DomainError):
        cli.verify_suite("nope")


# --- one parser and one form memo per process -----------------------------------

def _readme_commands():
    """The argument lists of the README's CLI examples, comments dropped."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = (line.split("#", 1)[0].strip() for line in section.splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("moditer ")]


def test_readme_commands_same_bytes_cold_and_warm(capsys):
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        for cache in (forms.builtin, cli._build_parser, mzv._level4_pair):
            cache.cache_clear()
        cold = run_cli(capsys, *argv)
        warm = run_cli(capsys, *argv)
        assert cold[0] == 0, argv
        assert cold[:2] == warm[:2], argv


def test_shared_parser_keeps_no_form_file(capsys, tmp_path):
    path = tmp_path / "mine.json"
    forms.save_form(forms.ModularForm(1, 4, "mine", (1, 240, 2160)), path)
    code, rep = run_json(capsys, "qexp", "mine", "--form", str(path), "--order", "2")
    assert (code, rep["data"]["coeffs"]) == (0, [1, 240, 2160])
    code, out, err = run_cli(capsys, "qexp", "mine", "--order", "2")
    assert (code, out) == (1, "")
    assert "unknown form 'mine'" in err


@pytest.mark.parametrize("bad", [
    ("lvalue", "delta", "--s", "abc"),
    ("lvalue", "delta", "--s", "8", "--order", "abc"),
    ("eval", "delta"),
    ("qexp",),
    ("qexp", "F", "--output", "xml"),
])
def test_shared_parser_after_a_failed_call(capsys, bad):
    good = ("lvalue", "delta", "--s", "8", "--cutoff", "300")
    cli._build_parser.cache_clear()
    fresh = run_cli(capsys, *good)
    assert run_cli(capsys, *bad)[:2] == (1, "")
    assert run_cli(capsys, *good)[:2] == fresh[:2]
