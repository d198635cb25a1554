"""Request lists for the three workloads, drawn from the seed.

A request is a plain JSON-able dict; the worker turns it into calls on
moditer's public functions and the parent checks what came back.  Every
workload is a fixed recipe of request classes (how many words of each depth,
which forms have constant terms, which truncation orders), and the seed only
draws the free parameters inside each class: exponents, points, segments,
cutoffs and which of two interchangeable forms fills a slot.  That keeps the
cost of a round nearly the same for every seed while the inputs change.

Requests listed in ``KNOWN_FAULTS`` fail on purpose and never depend on the
seed; see README.md.
"""

from __future__ import annotations

import random

WEIGHT = {"delta": 12, "E4": 4, "E6": 6, "F": 2, "G": 2}
LEVEL = {"delta": 1, "E4": 1, "E6": 1, "F": 4, "G": 4}
CUSPIDAL_AT_INF = {"delta", "F"}  # constant term a_0 = 0


def _c(z: complex) -> list:
    return [z.real, z.imag]


def _clear_of_poles(names, s) -> bool:
    """Every divisor iterint_report can consult stays at least 0.5 from 0:
    the suffix sums s_j + .. + s_n and the prefix sums of k_i - s_i."""
    acc = 0j
    for x in reversed(s):
        acc += x
        if abs(acc) < 0.5:
            return False
    acc = 0j
    for name, x in zip(names, s):
        acc += WEIGHT[name] - x
        if abs(acc) < 0.5:
            return False
    return True


def _exponent(rng: random.Random, name: str, complex_part: bool) -> complex:
    k = WEIGHT[name]
    lo, hi = (1.0, k - 1.0) if LEVEL[name] == 1 else (-0.8, 2.8)
    re = round(rng.uniform(lo, hi), 3)
    im = round(rng.uniform(-1.2, 1.2), 3) if complex_part else 0.0
    return complex(re, im)


def _word(rng, names, complex_slots=()):
    while True:
        s = [_exponent(rng, n, i in complex_slots) for i, n in enumerate(names)]
        if _clear_of_poles(names, s):
            return s


def _partner(names, s):
    """The word of Z(f_1..f_n; s) = e^(i pi sum s) Z(g_n..g_1; k_n - s_n, .., k_1 - s_1),
    g the Fricke companions ("F~", "G~"; level-1 forms are their own)."""
    comp = [n if LEVEL[n] == 1 else n + "~" for n in reversed(names)]
    return comp, [WEIGHT[n] - x for n, x in zip(reversed(names), reversed(s))]


def _iterint(rid, names, s, order, **extra):
    return {"id": rid, "op": "iterint", "words": [[n, _c(x)] for n, x in zip(names, s)],
            "order": order, **extra}


def _eis(rng) -> str:
    return rng.choice(("E4", "E6"))


def _pair(rng, rid, names, complex_slots=(), order=64):
    s = _word(rng, names, complex_slots)
    pnames, ps = _partner(names, s)
    return [
        _iterint(rid, names, s, order, partner=rid + "~"),
        _iterint(rid + "~", pnames, ps, order, partner=rid),
    ]


# Requests that fail today on every run, independent of the seed.
KNOWN_FAULTS = {
    # order 1 is far too short for the path through i/sqrt(N), yet the
    # reported err is ~1e-19: the truncation error is not in err_estimate
    "quadrature": [
        _iterint("loworder-delta", ["delta"], [8.0], 1),
        _iterint("loworder-G", ["G"], [1.5], 3),
    ],
    # non-finite input exits 0 with NaN in a non-strict JSON payload
    "cli": [
        {"id": "nan-lvalue", "op": "cli", "argv": ["lvalue", "delta", "--s", "nan"]},
        {"id": "nan-eval", "op": "cli", "argv": ["eval", "delta", "--z", "nan+1j"]},
    ],
    "dirichlet": [],
}


def quadrature(rng: random.Random) -> list:
    reqs = []
    # depth 1 at the default order: each level-1 form once real, once complex
    for name in ("delta", "E4", "E6"):
        for j in range(2):
            reqs.append(_iterint(f"d1-{name}-{j}", [name], _word(rng, [name], (0,) if j else ()), 64))
    for name in ("F", "G"):
        for j in range(2):
            reqs.append(_iterint(f"d1-{name}-{j}", [name], _word(rng, [name], (0,) if j else ()), 64))
    # depth 1 at order 2000: nearly all of the Horner work is wasted terms
    for j, pool in enumerate((("delta", "E4", "E6"), ("F", "G"))):
        name = rng.choice(pool)
        reqs.append(_iterint(f"d1-o2000-{j}", [name], _word(rng, [name], (0,)), 2000))
    # deeper words, each with its functional-equation partner
    reqs += _pair(rng, "d2-cusp", ["delta", "delta"], (1,))
    reqs += _pair(rng, "d2-eis", [_eis(rng), _eis(rng)], (0,))
    reqs += _pair(rng, "d2-lvl4", rng.choice((["F", "G"], ["G", "F"])), (1,))
    reqs += _pair(rng, "d3-lvl1", [_eis(rng), "delta", _eis(rng)], (2,))
    reqs += _pair(rng, "d3-lvl4", ["G", "F", "G"], (0,))
    reqs += _pair(rng, "d4-lvl1", [_eis(rng), "delta", _eis(rng), "delta"], (1,))
    # integer inner exponents and a large s_1: the termwise oracle applies,
    # which (unlike the functional equation) also sees wrong form values
    for rid, names in (("d2-int", [_eis(rng), _eis(rng)]),
                       ("d3-int", [rng.choice(("F", "G")) for _ in range(3)])):
        s = [_expansion_s(rng, names)] + [rng.randint(1, 3) for _ in names[1:]]
        reqs.append(_iterint(rid, names, s, 64, check="termwise"))
    # shuffle product on a finite segment (no closed form needed)
    for k, l in ((1, 2), (2, 1)):
        pool = rng.choice((("delta", "E4", "E6"), ("F", "G")))
        names = [rng.choice(pool) for _ in range(k + l)]
        a = complex(round(rng.uniform(-0.3, 0.3), 3), round(rng.uniform(1.2, 1.8), 3))
        b = complex(round(rng.uniform(-0.3, 0.3), 3), round(rng.uniform(0.3, 0.6), 3))
        s = [complex(round(rng.uniform(1, 3), 3), round(rng.uniform(-1, 1), 3)) for _ in names]
        reqs.append({"id": f"shuffle-{k}{l}", "op": "shuffle", "k": k,
                     "words": [[n, _c(x)] for n, x in zip(names, s)],
                     "a": _c(a), "b": _c(b), "order": 64})
    reqs.append({"id": "mzv-w3", "op": "mzv", "index": list(rng.choice(((3,), (2, 1))))})
    reqs.append({"id": "mzv-w4", "op": "mzv", "index": list(rng.choice(((4,), (3, 1), (2, 2), (2, 1, 1))))})
    return reqs


# Sufficient Re(s_1) for absolute convergence of the shell sums, as in the
# growth bounds |a_m| <~ m^g (Deligne for cusp forms, sigma for the others).
def _growth(name: str) -> float:
    k = WEIGHT[name]
    return (k - 1) / 2 + 0.5 if name in CUSPIDAL_AT_INF else k - 0.5


def _threshold(names, s_rest) -> float:
    need = _growth(names[0]) + 1.0
    for name, x in zip(names[1:], s_rest):
        need += max(0.0, _growth(name) - x + 1.0)
    return need


def _lvalue(rng, rid, names, cutoff):
    rest = [round(rng.uniform(1.0, 3.0), 3) for _ in names[1:]]
    # depth 1 goes close to the edge, where the tail estimate matters;
    # deeper words keep a margin so their reference converges
    margin = rng.uniform(0.5, 4.0) if len(names) == 1 else rng.uniform(2.0, 4.0)
    im = round(rng.uniform(-2, 2), 3) if rng.random() < 0.5 else 0.0
    s1 = complex(round(_threshold(names, rest) + margin, 3), im)
    return {"id": rid, "op": "lvalue", "names": list(names),
            "s": [_c(s1)] + [_c(complex(x)) for x in rest], "cutoff": cutoff}


def _expansion_s(rng, names) -> complex:
    # every L-value in the expansion converges, and so does the termwise oracle
    re = round(sum(_growth(n) + 1.0 for n in names) + 1.0 + rng.uniform(2.0, 4.0), 3)
    return complex(re, round(rng.uniform(-1, 1), 3) if rng.random() < 0.5 else 0.0)


def dirichlet(rng: random.Random) -> list:
    # The cost of a shell sum depends only on its depth and cutoff, so those
    # are fixed per slot; the seed draws forms and exponents.  The cutoffs
    # form a ladder, so that the median and the tail fall among many
    # different costs and move smoothly with the host's speed.
    reqs = []
    forms = ("delta", "E4", "E6", "F", "G")
    for rid, pool in (("L1-cusp", ("delta", "F")), ("L1-eis", ("E4", "E6")), ("L1-G", ("G",))):
        reqs.append(_lvalue(rng, rid, [rng.choice(pool)], rng.choice((500, 1000, 2000))))
    ladder = [(2, c) for c in (500, 700, 900, 1100, 1300, 1500, 1700, 2000)] + [(3, c) for c in (1000, 1500, 2000)]
    for depth, cutoff in ladder:
        reqs.append(_lvalue(rng, f"L{depth}-{cutoff}", [rng.choice(forms) for _ in range(depth)], cutoff))
    for rid, names, alphas in (("thI-cusp", ["delta", "delta"], [2]),
                               ("thI-eis", [_eis(rng), _eis(rng)], [2]),
                               ("thI-lvl4", rng.choice((["F", "G"], ["G", "F"])), [rng.randint(1, 3)])):
        reqs.append({"id": rid, "op": "thi", "names": names, "alphas": alphas,
                     "s": _c(_expansion_s(rng, names))})
    for rid, names in (("thS-mixed", [_eis(rng), "delta"]),
                       ("thS-lvl4", [rng.choice(("F", "G")), "G"]),
                       ("thS-d3", [_eis(rng), rng.choice(("delta", "E4", "E6")), _eis(rng)])):
        alphas = [rng.randint(1, 3) for _ in names[1:]]
        reqs.append({"id": rid, "op": "ths", "names": names, "alphas": alphas,
                     "s": _c(_expansion_s(rng, names))})
    # I-tilde: a short word with constant slots, and two forms (one
    # convolution of 1000 terms, a fixed cost)
    for j, order in enumerate((200, 1000)):
        form = rng.choice(("delta", "F"))
        if j == 0:
            names = [rng.choice((form, None)) for _ in range(rng.randint(0, 2))] + [form]
        else:
            names = [form, form]
        z = complex(round(rng.uniform(-0.5, 0.5), 3), round(rng.uniform(0.6, 1.5), 3))
        reqs.append({"id": f"tilde-{j}", "op": "tilde", "names": names,
                     "alphas": [rng.randint(1, 3) for _ in names], "z": _c(z), "order": order})
    return reqs


def _num(x: float) -> str:
    return f"{x:g}"


def _cnum(z: complex) -> str:
    return f"{z.real:g}{z.imag:+g}j"


def cli(rng: random.Random) -> list:
    # The README's commands.  Each slot's form is fixed where the form sets
    # the cost (a level-4 build costs more), so a round costs the same for
    # every seed.
    reqs = []
    for j, (pool, top) in enumerate(((("delta", "E4", "E6"), 200), (("delta", "E4", "E6"), 200),
                                     (("F", "G"), 60))):
        reqs.append({"id": f"qexp-{j}", "op": "cli",
                     "argv": ["qexp", rng.choice(pool), "--order", str(rng.randint(5, top))]})
    for j, pool in enumerate((("delta", "E4", "E6"), ("delta", "E4", "E6"), ("F", "G"))):
        z = complex(round(rng.uniform(-0.5, 0.5), 3), round(rng.uniform(0.3, 1.5), 3))
        # "--z=" because argparse takes "-0.1+1j" after "--z" for an option
        reqs.append({"id": f"eval-{j}", "op": "cli", "argv": ["eval", rng.choice(pool), f"--z={_cnum(z)}"]})
    # a ladder of truncation orders, so the median falls among many costs
    for j, (name, order) in enumerate((("delta", 64), ("E4", 100), ("E6", 150), ("F", 200),
                                       ("G", 300), ("delta", 400))):
        s = _word(rng, [name], (0,) if j % 2 else ())[0]
        reqs.append({"id": f"iterint-{j}", "op": "cli",
                     "argv": ["iterint", name, f"--s={_cnum(s) if s.imag else _num(s.real)}",
                              "--order", str(order)]})
    s = round(rng.uniform(8.0, 12.0), 3)
    reqs.append({"id": "lvalue-1", "op": "cli", "argv": ["lvalue", "delta", "--s", _num(s)]})
    s2 = round(rng.uniform(1.5, 3.0), 3)
    s1 = round(_threshold(["delta", "delta"], [s2]) + rng.uniform(2.0, 4.0), 3)
    reqs.append({"id": "lvalue-2", "op": "cli", "argv": ["lvalue", "delta", "delta", "--s", f"{_num(s1)},{_num(s2)}"]})
    for method, pool in (("series", ("2", "3", "4", "2,1", "3,1", "2,2", "2,1,1")),
                         ("p1", ("2", "3", "4", "2,1", "3,1", "2,2", "2,1,1")),
                         ("modular", ("3", "2,1"))):
        reqs.append({"id": f"mzv-{method}", "op": "cli",
                     "argv": ["mzv", "--index", rng.choice(pool), "--method", method]})
    reqs.append({"id": "eta-verify", "op": "cli", "argv": ["eta-verify", "--order", "200"]})
    for name in ("funceq-verify", "thi-verify", "ths-verify"):
        reqs.append({"id": name, "op": "cli", "argv": [name]})
    reqs.append({"id": "bad-form", "op": "cli",
                 "argv": ["eval", rng.choice(("foo", "E5x", "theta3", "Delta")), "--z", "0.1+1j"]})
    reqs.append({"id": "bad-s", "op": "cli",
                 "argv": ["lvalue", "delta", "--s", rng.choice(("abc", "8..5", "1e", "s=8", "8;2"))]})
    return reqs


BUILDERS = {"quadrature": quadrature, "dirichlet": dirichlet, "cli": cli}
SALT = {"quadrature": 101, "dirichlet": 202, "cli": 303}


def requests(workload: str, seed: int) -> list:
    """One round of the workload: the seeded requests, then the known faults."""
    rng = random.Random(seed * 1000 + SALT[workload])
    return BUILDERS[workload](rng) + KNOWN_FAULTS[workload]
