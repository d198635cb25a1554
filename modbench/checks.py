"""Verdicts on the program's outputs, against oracles.py or against
properties that hold without a closed form.

The rule throughout: a value passes when it lies within its reported error
of the reference, plus a rounding allowance of ALLOW times the size of the
parts the reference was summed from (cancellation makes rounding scale with
the parts, not with the result).  Where the program reports no error, the
allowance (or the configured quadrature tolerance, for quadrature results)
is all the slack there is.
"""

from __future__ import annotations

import cmath
import json
import math

import oracles
from workloads import LEVEL

ALLOW = 1e-12
TOL = 1e-8  # the default NumericsConfig.tol the requests run with
DEFAULT_CUTOFF = 2000


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


def _close(value, ref, err, mag) -> bool:
    return abs(value - ref) <= err + ALLOW * mag


def _options(argv) -> dict:
    """--name value and --name=value pairs of a command line."""
    opts = {}
    for k, tok in enumerate(argv):
        if tok.startswith("--"):
            name, eq, value = tok[2:].partition("=")
            opts[name] = value if eq else (argv[k + 1] if k + 1 < len(argv) else "")
    return opts


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class Checker:
    def __init__(self, db: oracles.Coefficients, requests):
        self.db = db
        self.requests = requests
        self.by_id = {r["id"]: i for i, r in enumerate(requests)}
        self.refs = [self._reference(r) for r in requests]

    # -- references that depend only on the request ----------------------------

    def _reference(self, req):
        op = req["op"]
        db = self.db
        if op == "iterint" and req.get("check") == "termwise":
            names = [n for n, _ in req["words"]]
            s0, alphas = _z(req["words"][0][1]), [int(s[0]) for _, s in req["words"][1:]]
            hi = oracles.iterint_fourier(db, names, s0, alphas, oracles.MAX_ORDER)
            lo = oracles.iterint_fourier(db, names, s0, alphas, oracles.MAX_ORDER // 2)
            return hi[0], hi[1], abs(hi[0] - lo[0])
        if op == "iterint" and len(req["words"]) == 1:
            name, s = req["words"][0]
            return oracles.iterint_depth1(db, name, _z(s), req["order"])
        if op == "mzv":
            return oracles.mzv(req["index"])
        if op == "lvalue":
            return self._lvalue_ref(req["names"], [_z(s) for s in req["s"]], req["cutoff"])
        if op == "thi":
            s0 = _z(req["s"])
            hi = oracles.iterint_fourier(db, req["names"], s0, req["alphas"], oracles.MAX_ORDER)
            lo = oracles.iterint_fourier(db, req["names"], s0, req["alphas"], oracles.MAX_ORDER // 2)
            return hi[0], hi[1], abs(hi[0] - lo[0])
        if op == "ths":
            s = [_z(req["s"])] + [complex(a) for a in req["alphas"]]
            hi = oracles.nested_L(db, req["names"], s, oracles.MAX_ORDER)
            lo = oracles.nested_L(db, req["names"], s, oracles.MAX_ORDER // 2)
            return hi[0], hi[1], abs(hi[0] - lo[0])
        if op == "tilde":
            return oracles.tilde_fourier(db, req["names"], req["alphas"], _z(req["z"]), req["order"])
        if op == "cli":
            return self._cli_ref(req["argv"])
        return None

    def _lvalue_ref(self, names, s, cutoff):
        """(exact truncated sum and its parts, reference for the full sum and its parts)."""
        trunc = oracles.nested_L(self.db, names, s, cutoff)
        full = oracles.lvalue_depth1(self.db, names[0], s[0]) if len(names) == 1 else \
            oracles.nested_L(self.db, names, s, 2 * cutoff)
        return trunc, full

    def _cli_ref(self, argv):
        cmd, opts = argv[0], _options(argv)
        if cmd == "qexp":
            return self.db.ints(argv[1], int(opts["order"]))
        if cmd == "eval" and argv[1] in oracles.FORMS:
            return oracles.eval_series(self.db.array(argv[1]), complex(opts["z"]))
        if cmd == "lvalue" and "nan" not in argv:
            try:
                s = [complex(tok) for tok in opts["s"].split(",")]
            except ValueError:
                return None
            return self._lvalue_ref([a for a in argv[1:] if a in oracles.FORMS], s, DEFAULT_CUTOFF)
        if cmd == "iterint":
            return oracles.iterint_depth1(self.db, argv[1], complex(opts["s"]), int(opts.get("order", 64)))
        if cmd == "mzv":
            return oracles.mzv([int(k) for k in opts["index"].split(",")])
        return None

    # -- verdicts ----------------------------------------------------------------

    def verdict(self, i: int, out: dict, partner_out=None) -> bool:
        req, ref = self.requests[i], self.refs[i]
        op = req["op"]
        if op == "cli":
            return self._cli(req["argv"], ref, out)
        if "error" in out:
            # a named truncation error is the right answer when the
            # q-expansion is too short for the path
            return op == "iterint" and len(req["words"]) == 1 and \
                out["error"] == "TruncationError" and ref[2] > TOL
        if op == "iterint":
            if req.get("check") == "termwise":
                value, mag, oerr = ref
                return _close(_z(out["value"]), value, out["err"] + oerr, mag)
            if len(req["words"]) == 1:
                value, mag, _ = ref
                return _close(_z(out["value"]), value, out["err"], mag)
            return self._funceq(req, out, partner_out)
        if op == "shuffle":
            vals = [_z(v) for v in out["values"]]
            lhs, rhs = vals[0] * vals[1], sum(vals[2:])
            slack = TOL * (abs(vals[0]) + abs(vals[1]) + len(vals) - 2)
            return abs(lhs - rhs) <= slack + ALLOW * (abs(lhs) + sum(abs(v) for v in vals[2:]))
        if op == "mzv":
            return abs(out["value"] - ref) <= TOL * abs(ref)
        if op == "lvalue":
            return self._lvalue(_z(out["value"]), out["err"], ref)
        if op == "thi":
            value, mag, oerr = ref
            return _close(_z(out["value"]), value, oerr, mag)
        if op == "ths":
            return self._ths(req, out, ref)
        if op == "tilde":
            value, mag = ref
            return _close(_z(out["value"]), value, 0.0, mag)
        raise ValueError(f"unknown op {op!r}")

    def _funceq(self, req, out, partner_out) -> bool:
        """Z(w) = e^(i pi sum s) Z(w~), Z = N^(sum s / 2) I, within both errors."""
        if partner_out is None or "error" in partner_out:
            return False
        partner = self.requests[self.by_id[req["partner"]]]
        N = LEVEL[req["words"][0][0].rstrip("~")]
        s_sum = sum(_z(s) for _, s in req["words"])
        p_sum = sum(_z(s) for _, s in partner["words"])
        scale = cmath.exp(s_sum / 2 * math.log(N))
        p_scale = cmath.exp(1j * math.pi * s_sum) * cmath.exp(p_sum / 2 * math.log(N))
        lhs, rhs = scale * _z(out["value"]), p_scale * _z(partner_out["value"])
        err = abs(scale) * out["err"] + abs(p_scale) * partner_out["err"]
        return _close(lhs, rhs, err, abs(lhs) + abs(rhs))

    def _lvalue(self, value, err, ref) -> bool:
        (trunc, trunc_mag), (full, full_mag) = ref
        # the shell sum itself is exact up to rounding, and the reported
        # tail covers the distance to the full sum
        return _close(value, trunc, 0.0, trunc_mag) and _close(value, full, err, full_mag)

    def _ths(self, req, out, ref) -> bool:
        names = req["names"]
        total, mag, slack = 0j, ref[1], ref[2]
        for coeff, indices, args in out["terms"]:
            c = _z(coeff)
            sub = [names[i] for i in indices]
            head, rest = _z(args[0]), [_z(a) for a in args[1:]]
            ints = [int(round(a.real)) for a in rest]
            if any(abs(a - n) > 1e-12 for a, n in zip(rest, ints)) or any(n < 1 for n in ints):
                return False
            hi = oracles.iterint_fourier(self.db, sub, head, ints, oracles.MAX_ORDER)
            lo = oracles.iterint_fourier(self.db, sub, head, ints, oracles.MAX_ORDER // 2)
            total += c * hi[0]
            mag += abs(c) * hi[1]
            slack += abs(c) * abs(hi[0] - lo[0])
        return _close(total, ref[0], slack, mag)

    def _cli(self, argv, ref, out) -> bool:
        if "error" in out:
            return False
        cmd = argv[0]
        invalid = any(tok in ("nan", "nan+1j") for tok in argv) or ref is None and cmd in ("eval", "lvalue")
        if invalid:
            # bad or non-finite input: a named error on stderr, exit 1, no payload
            return out["code"] == 1 and out["stderr"].strip() != "" and out["stdout"] == ""
        if out["code"] != 0:
            return False
        try:
            report = json.loads(out["stdout"], parse_constant=_reject_constant)
        except ValueError:
            return False
        if cmd.endswith("-verify"):
            return report["failed"] == 0 and report["passed"] == len(report["checks"]) > 0
        if cmd == "qexp":
            return report["data"]["coeffs"] == ref
        entry = report["values"][0]
        value, err = _z(entry["value"]), entry["err"]
        if cmd == "eval":
            return _close(value, ref[0], err, ref[1])
        if cmd == "lvalue":
            return self._lvalue(value, err, ref)
        if cmd == "iterint":
            return _close(value, ref[0], err, ref[1])
        if cmd == "mzv":
            return _close(value, ref, err, abs(ref))
        return False
