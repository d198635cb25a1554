"""Command-line surface.

Every subcommand produces a RunReport that is serialized as JSON (default)
or a delimited table.  Output for identical arguments and configuration is
byte-identical: floats are rounded to 15 significant digits, field order is
fixed, and the wall time goes to stderr, never into the payload.

Exit codes: 0 success, 1 domain or usage errors, 2 verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field, fields

from . import forms, identities, iterint, lfun, mzv, qseries, quad
from .config import NumericsConfig
from .errors import DomainError, ModiterError

__all__ = ["main", "run", "verify_suite", "RunReport"]


@dataclass
class RunReport:
    subcommand: str
    inputs: dict
    config: dict
    values: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c["passed"])

    @property
    def failed(self) -> int:
        return len(self.checks) - self.passed


# --- deterministic serialization ----------------------------------------------

def _f15(x: float) -> float:
    return float(f"{float(x):.15g}")


def _pair(z) -> list:
    z = complex(z)
    return [_f15(z.real), _f15(z.imag)]


def _report_dict(r: RunReport) -> dict:
    out = {f.name: getattr(r, f.name) for f in fields(r)}  # shallow, unlike asdict
    out.update(passed=r.passed, failed=r.failed)
    return out


def _emit(report: RunReport, output: str, stream) -> None:
    try:
        text = json.dumps(_report_dict(report), indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"report holds a non-finite number: {exc}") from exc
    if output == "json":
        stream.write(text + "\n")
        return
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if report.checks:
        w.writerow(["name", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "diff", "tol", "passed"])
        for c in report.checks:
            lhs = c.get("lhs") or ["", ""]
            rhs = c.get("rhs") or ["", ""]
            w.writerow([c["name"], *lhs, *rhs, c["diff"], c["tol"], c["passed"]])
    elif report.values:
        w.writerow(["label", "re", "im", "err"])
        for v in report.values:
            w.writerow([v["label"], *v["value"], v["err"]])
    elif "coeffs" in report.data:
        w.writerow(["n", "coeff"])
        for n, c in enumerate(report.data["coeffs"]):
            w.writerow([n, c])
    stream.write(buf.getvalue())


def _f15_up(x: float) -> float:
    """x rounded upward to 15 significant digits: the least such decimal whose
    float is >= x.  A decimal of at most 15 digits, 0 among them, stays."""
    y = _f15(x)
    if y >= x or not math.isfinite(x):
        return y
    mantissa, exp = f"{x:.14e}".split("e")
    return float(f"{int(mantissa.replace('.', '')) + 1}e{int(exp) - 14}")


def _value_entry(label: str, value, err: float) -> dict:
    """The printed err bounds the printed value: err plus the distance the
    15-digit printing moved the value, rounded upward."""
    shown = _pair(value)
    return {"label": label, "value": shown,
            "err": _f15_up(err + abs(complex(*shown) - complex(value)))}


def _check_entry(name, diff, tol, lhs=None, rhs=None) -> dict:
    entry = {"name": name, "diff": _f15(diff), "tol": _f15(tol), "passed": diff <= tol}
    if lhs is not None:
        entry["lhs"] = _pair(lhs)
        entry["rhs"] = _pair(rhs)
    return entry


def _term_str(t) -> str:
    c = t.coeff
    sp = identities.SPlus
    parts = [] if c.rat == 1 else [str(c.rat)]
    parts += [f"a0[{i}]" for i in c.a0_idx]
    parts += [f"Gamma({sp(g)})" for g in c.gamma_num]
    parts += [f"Gamma({sp(g)})^-1" for g in c.gamma_den]
    parts += [f"({sp(g)})" for g in c.lin_num]
    parts += [f"({sp(g)})^-1" for g in c.lin_den]
    kind = "L" if isinstance(t.target, identities.LTarget) else "I"
    idxs = ",".join(str(i) for i in t.target.indices)
    args = ", ".join(str(a) for a in t.target.args)
    parts.append(f"{kind}[{idxs}]({args})")
    return " * ".join(parts)


# --- argument handling ----------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# The NumericsConfig fields a run can set, each by a --<name> flag and a
# MODITER_<NAME> environment variable: (name, parser, help text).
_KNOBS = (
    ("order", int, "q-expansion truncation order"),
    ("height", float, "height cutoff for i-infinity"),
    ("panels", int, "quadrature panels on the main path section (geometric on "
                    "the vertical descent, uniform on a segment); doubled at most 3 times"),
    ("tol", float, "target quadrature accuracy"),
    ("cutoff", int, "Dirichlet series cutoff"),
)


def _add_common(p: _Parser) -> None:
    for name, parse, text in _KNOBS:
        p.add_argument(f"--{name}", type=parse, default=None, help=text)
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.add_argument(
        "--form", action="append", default=[], metavar="PATH",
        help="coefficient file to load (repeatable); label becomes addressable",
    )


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every later
    call in the process.  parse_args leaves it as it found it: each call
    gets a fresh namespace, and the append action copies the --form
    default before it adds a path, so no call sees another's files."""
    p = _Parser(prog="moditer", description="modular iterated integrals and multiple L-functions")
    sub = p.add_subparsers(dest="subcommand")

    q = sub.add_parser("qexp", help="print q-expansion coefficients")
    q.add_argument("name")

    e = sub.add_parser("eval", help="evaluate a form in the upper half-plane")
    e.add_argument("name")
    e.add_argument("--z", required=True, help="point, Python complex syntax (e.g. 0.5+1.2j)")

    lv = sub.add_parser("lvalue", help="multiple L-value by direct shell summation")
    lv.add_argument("names", nargs="+")
    lv.add_argument("--s", required=True, help="comma-separated argument list")
    lv.add_argument("--force", action="store_true", help="sum even without a convergence proof")

    it = sub.add_parser("iterint", help="iterated integral from i-infinity to 0")
    it.add_argument("names", nargs="+")
    it.add_argument("--s", required=True, help="comma-separated exponent list")

    mz = sub.add_parser("mzv", help="multiple zeta value")
    mz.add_argument("--index", required=True, help="comma-separated exponents, outer first")
    mz.add_argument("--method", choices=("series", "p1", "modular"), default="series")

    for name in ("thi-verify", "ths-verify", "funceq-verify", "eta-verify"):
        sub.add_parser(name, help=f"run the {name.split('-')[0]} verification suite")

    for sp in sub.choices.values():
        _add_common(sp)
    return p


def _config_from(ns) -> NumericsConfig:
    """Flags beat MODITER_* variables beat the defaults.  Every variable that
    is set is parsed and validated, also where a flag overrides it."""
    env = {}
    for name, parse, _ in _KNOBS:
        var = f"MODITER_{name.upper()}"
        raw = os.environ.get(var)
        if raw is not None:
            try:
                env[name] = parse(raw)
            except ValueError:
                raise DomainError(f"bad value for {var}: {raw!r}") from None
    flags = {name: getattr(ns, name) for name, _, _ in _KNOBS
             if getattr(ns, name) is not None}
    return NumericsConfig(**env).replace(**flags)


def _config_dict(cfg: NumericsConfig) -> dict:
    return {
        "order": cfg.order,
        "height": _f15(cfg.height),
        "panels": cfg.panels,
        "gl_order": quad.GL_ORDER,
        "tol": _f15(cfg.tol),
        "branch": "principal",
        "cutoff": cfg.cutoff,
    }


def _registry(ns) -> dict:
    reg = {}
    for path in ns.form:
        f = forms.load_form(path)
        reg[f.label] = f
    return reg


def _resolve(name: str, reg: dict, order: int):
    if name in reg:
        return reg[name]
    if name.startswith("E") and name[1:].isdigit():
        # the E<k> family names its own errors: odd weight, or past the cap
        return forms.builtin(name, order)
    try:
        return forms.builtin(name, order)
    except DomainError:
        raise DomainError(f"unknown form {name!r}; not loaded and not a builtin")


def _parse_complex(tok: str) -> complex:
    try:
        z = complex(tok.replace("i", "j"))
    except ValueError:
        raise DomainError(f"cannot parse complex number {tok!r}")
    if not cmath.isfinite(z):
        raise DomainError(f"complex number {tok!r} is not finite")
    return z


def _parse_clist(text: str):
    return tuple(_parse_complex(tok) for tok in text.split(","))


# --- subcommand bodies -----------------------------------------------------------

def _coeff_native(f, n, c):
    """a_n = c for JSON: exact int if c is integral, else 15 digits; complex as [re, im]."""
    if isinstance(c, complex):
        return _pair(c)
    try:
        x = float(c)
    except OverflowError:
        x = forms._coeff_as(f, n, float)  # converts again, naming f and n in the error
    return int(c) if x.is_integer() and c == int(c) else _f15(x)


def _run_qexp(ns, cfg, reg) -> RunReport:
    f = _resolve(ns.name, reg, cfg.order)
    coeffs = [_coeff_native(f, n, c) for n, c in enumerate(f.coeffs[: cfg.order + 1])]
    return RunReport(
        "qexp",
        {"name": ns.name, "order": cfg.order},
        _config_dict(cfg),
        data={"coeffs": coeffs, "level": f.level, "weight": f.weight},
    )


def _run_eval(ns, cfg, reg) -> RunReport:
    f = _resolve(ns.name, reg, max(cfg.order, 200))
    z = _parse_complex(ns.z)
    val, err = forms.evaluate_at_with_tail(f, z, cfg)
    rep = RunReport("eval", {"name": ns.name, "z": ns.z}, _config_dict(cfg))
    rep.values.append(_value_entry(f"{ns.name}({ns.z})", val, err))
    return rep


def _run_lvalue(ns, cfg, reg) -> RunReport:
    svec = _parse_clist(ns.s)
    if len(svec) != len(ns.names):
        raise DomainError("need one argument per form")
    word = tuple(_resolve(n, reg, max(cfg.cutoff, cfg.order)) for n in ns.names)
    got = lfun.L_direct(lfun.LSpec(word, svec), cfg, force=ns.force)
    rep = RunReport(
        "lvalue",
        {"names": ns.names, "s": ns.s, "force": ns.force},
        _config_dict(cfg),
    )
    label = f"L({','.join(ns.names)}; {ns.s})"
    rep.values.append(_value_entry(label, got.value, got.tail_estimate))
    return rep


def _run_iterint(ns, cfg, reg) -> RunReport:
    svec = _parse_clist(ns.s)
    if len(svec) != len(ns.names):
        raise DomainError("need one exponent per form")
    word = [(_resolve(n, reg, cfg.order), s) for n, s in zip(ns.names, svec)]
    got = iterint.iterint_report(iterint.make_spec(word), cfg)
    rep = RunReport(
        "iterint", {"names": ns.names, "s": ns.s}, _config_dict(cfg)
    )
    label = f"I({','.join(ns.names)}; {ns.s})"
    rep.values.append(_value_entry(label, got.value, got.err_estimate))
    rep.data["divisors"] = list(got.divisors)
    return rep


def _run_mzv(ns, cfg, reg) -> RunReport:
    try:
        ks = tuple(int(tok) for tok in ns.index.split(","))
    except ValueError:
        raise DomainError(f"cannot parse index {ns.index!r}")
    idx = mzv.MzvIndex(ks)
    if ns.method == "series":
        if cfg.cutoff < 32:
            raise DomainError(f"mzv --method series needs cutoff >= 32, got {cfg.cutoff}: "
                              "its err estimate reruns the series at half the cutoff")
        val = mzv.mzv_series(idx, cfg.cutoff)
        # mzv_series rounds each term m^-k (2u, u = 2^-53) and its product with
        # the inner sum (u); each inner np.cumsum of <= C positive terms is off
        # by (C - 1)u of its sum (Higham, ch. 4).  The fsum and the tail add u.
        rounding = ((idx.depth - 1) * (cfg.cutoff + 2) + 4) * 2.0**-53 * abs(val)
        err = abs(val - mzv.mzv_series(idx, cfg.cutoff // 2)) + rounding
    elif ns.method == "p1":
        val, err = mzv.p1_word_integral(mzv._word_flags(idx))
    else:
        val, err = mzv._zeta_from_report(idx, mzv.modular_raw_integral(idx, cfg))
        err += cfg.tol * abs(val)
    rep = RunReport("mzv", {"index": ns.index, "method": ns.method}, _config_dict(cfg))
    rep.values.append(_value_entry(f"zeta({ns.index}) [{ns.method}]", val, err))
    return rep


# --- verification suites ----------------------------------------------------------

def _suite_eta(cfg) -> tuple:
    order = cfg.order
    f = qseries.builtin_form("F", order)
    g = qseries.builtin_form("G", order)
    e1_8 = qseries.eta_series(1, order)**8
    e2 = qseries.eta_series(2, order)
    e2_4 = e2**4
    e4_8 = qseries.eta_series(4, order)**8
    checks = []

    def exact(name, lhs, rhs):
        n = min(lhs.order, rhs.order)
        diff = float(max(abs(a - b) for a, b in zip(lhs.coeffs[: n + 1], rhs.coeffs[: n + 1])))
        if lhs.prefactor_num != rhs.prefactor_num:
            diff = math.inf
        checks.append(_check_entry(name, diff, 0.0))

    # F starts at q^1, so the quotient's prefactor must carry exactly q^{24/24}
    exact("F = eta(4z)^8 / eta(2z)^4", e4_8 / e2_4,
          qseries.QSeries(f.coeffs[1:], order - 1, 24))
    exact("G = eta(2z)^20 / (eta(z)^8 eta(4z)^8)", e2**20 / (e1_8 * e4_8), g)
    exact("G - 16F = eta(z)^8 / eta(2z)^4", e1_8 / e2_4, g - 16 * f)
    return checks, {}


def _suite_funceq(cfg) -> tuple:
    d = forms.builtin("delta", 400)
    checks = []
    for s in (5.0, 5.5, 6.5):
        lhs = iterint.completed_Z(iterint.make_spec([(d, s)]), cfg)
        rhs = cmath.exp(1j * cmath.pi * s) * iterint.completed_Z(
            iterint.make_spec([(d, 12 - s)]), cfg
        )
        checks.append(
            _check_entry(f"Z(delta; {s:g}) = e^(i pi s) Z(delta; {12 - s:g})",
                         abs(lhs - rhs) / max(1.0, abs(lhs)), 1e-6, lhs, rhs)
        )
    return checks, {}


def _rel_check(name, lhs, rhs, tol):
    return _check_entry(name, abs(lhs - rhs) / max(abs(rhs), 1e-300), tol, lhs, rhs)


def _suite_thi(cfg) -> tuple:
    checks = []
    d = forms.builtin("delta", max(cfg.cutoff, 2000))
    e4 = forms.builtin("E4", max(cfg.cutoff, 2000))
    # data.terms lists the last word's expansion: E4's
    for f, s, alpha, tol in ((d, 16.0, 2, 1e-5), (d, 15.0, 3, 1e-5), (e4, 8.0, 2, 1e-4)):
        tl = identities.thI_expand([f, f], (alpha,))
        via_L = lfun.evaluate_L_terms(tl, [f, f], s, cfg)
        direct = iterint.iterint_full(iterint.make_spec([(f, s), (f, float(alpha))]), cfg)
        checks.append(_rel_check(f"thi {f.label} ({s:g},{alpha}) rel", direct, via_L, tol))
    return checks, {"terms": [_term_str(t) for t in tl]}


def _suite_ths(cfg) -> tuple:
    checks = []
    e4 = forms.builtin("E4", max(cfg.cutoff, 2000))
    tl = identities.thS_expand([e4, e4], (2,))
    via_I = lfun.evaluate_I_terms(tl, [e4, e4], 8.0, cfg)
    direct = lfun.L_direct(lfun.LSpec((e4, e4), (8.0, 2.0)), cfg).value
    checks.append(_rel_check("ths E4 (8,2) rel", via_I, direct, 1e-4))

    # round trip: I -> L-expansion, each L evaluated by its continuation
    d = forms.builtin("delta", 400)
    s = 9.0
    total = lfun._evaluate_terms(
        identities.thI_expand([d, d], (2,)), [d, d], s,
        lambda sub, args: lfun.L_continued(sub, args[0], [int(a.real) for a in args[1:]], cfg),
    )
    direct = iterint.iterint_full(iterint.make_spec([(d, s), (d, 2.0)]), cfg)
    checks.append(_rel_check("round trip delta (9,2) rel", direct, total, 1e-5))
    return checks, {"terms": [_term_str(t) for t in tl]}


def _suite_mzv(cfg) -> tuple:
    checks = []
    for ks, tol in (((2,), 1e-6), ((3,), 1e-6), ((2, 1), 1e-5)):
        idx = mzv.MzvIndex(ks)
        ref = mzv.mzv_series(idx)
        name = ",".join(map(str, ks))
        for route, val, route_tol in (("p1", mzv.mzv_p1_integral(idx), 1e-13),
                                      ("modular", mzv.mzv_modular_integral(idx, cfg), tol)):
            checks.append(_check_entry(f"zeta({name}) {route} vs series",
                                       abs(val - ref), route_tol, val, ref))
    return checks, {}


def _suite_shuffle(cfg) -> tuple:
    d = forms.builtin("delta", 300)
    rng = random.Random(2024)
    a, b = 1.5j, 0.35j
    checks = []
    for trial in range(5):
        k, l = rng.choice(((1, 1), (1, 2), (2, 1)))
        word1 = [(d, complex(rng.uniform(1, 3), rng.uniform(-1, 1))) for _ in range(k)]
        word2 = [(d, complex(rng.uniform(1, 3), rng.uniform(-1, 1))) for _ in range(l)]
        lhs = iterint.nested_quadrature(iterint.make_spec(word1), a, b, cfg) * \
            iterint.nested_quadrature(iterint.make_spec(word2), a, b, cfg)
        rhs = 0j
        for perm in iterint.shuffles(k, l):
            merged = [(word1 + word2)[i] for i in perm]
            rhs += iterint.nested_quadrature(iterint.make_spec(merged), a, b, cfg)
        checks.append(
            _check_entry(f"shuffle trial {trial} ({k},{l})", abs(lhs - rhs), 1e-8, lhs, rhs)
        )
    return checks, {}


_SUITE_FNS = {
    "eta": _suite_eta,
    "funceq": _suite_funceq,
    "thi": _suite_thi,
    "ths": _suite_ths,
    "mzv": _suite_mzv,
    "shuffle": _suite_shuffle,
}
SUITES = tuple(_SUITE_FNS)


def verify_suite(name: str, config: NumericsConfig = NumericsConfig()) -> RunReport:
    if name not in _SUITE_FNS:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    checks, data = _SUITE_FNS[name](config)
    return RunReport(f"{name}-verify", {"suite": name}, _config_dict(config),
                     checks=checks, data=data)


# --- dispatch ----------------------------------------------------------------------

_VALUE_OPTIONS = ("--z", "--s")


def _attach_values(argv) -> list:
    """Rewrite `--z -0.1+1j` as `--z=-0.1+1j`: argparse would read a value
    that starts with '-' but is not a plain real number as an option."""
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_OPTIONS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv) -> tuple:
    """Parse and execute; returns (RunReport, exit_code, output_mode)."""
    parser = _build_parser()
    ns = parser.parse_args(_attach_values(argv))
    if ns.subcommand is None:
        raise _UsageError("a subcommand is required")
    cfg = _config_from(ns)
    reg = _registry(ns)
    if ns.subcommand.endswith("-verify"):
        report = verify_suite(ns.subcommand[: -len("-verify")], cfg)
    else:
        body = {
            "qexp": _run_qexp,
            "eval": _run_eval,
            "lvalue": _run_lvalue,
            "iterint": _run_iterint,
            "mzv": _run_mzv,
        }[ns.subcommand]
        report = body(ns, cfg, reg)
    return report, (2 if report.failed else 0), ns.output


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    t0 = time.perf_counter()
    try:
        report, code, output = run(argv)
        _emit(report, output, sys.stdout)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ModiterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wall time: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
