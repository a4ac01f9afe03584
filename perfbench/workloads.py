"""Seeded workloads for the loopsv benchmark.

A workload is a stream of rounds; a round is a list of operations, each one
public library call or one ``python -m loopsv`` process.  Every input comes
from ``random.Random`` seeded with the workload name, the run seed and the
round number, so a seed fixes the inputs.  The expected result of each
operation comes from how its input was generated or from a closed form (the
bracket table, the window size, the triple counts), never from running the
code under test a second time.

Which operations a round holds depends only on the workload and the round
number; the seed only picks their inputs.  That keeps the cost of a round,
and so every latency percentile, about the same from seed to seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

ROOT2_CONFIG = {"field": {"Q_sqrt": 2}, "gamma_generators": ["1", "sqrt2"], "s": "1/2"}
Q_CONFIG = {"field": "Q", "gamma_generators": ["1"], "s": "1/2"}

# the subcommands the README documents, as the cli workload labels its calls
CLI_SUBCOMMANDS = ("bracket", "grade", "extend", "iso", "decompose-derivation", "factor-automorphism",
                   "cocycle-class", "check-jacobi", "check-cocycle", "check-derivation", "check-automorphism")

SMALL = [Fraction(v) for v in ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "3/2", "2/3", "-5/3")]


@dataclass(frozen=True)
class Sizes:
    """Windows used by the workloads, as (gamma_height, loop_bound) pairs.

    Each is small enough that a 35 s run repeats its round several times, so
    the reported medians are taken over rounds rather than one long call.
    """

    sweep_q: tuple = (2, 2)
    sweep_root2: tuple = (1, 0)
    pipeline: tuple = (2, 2)
    central: tuple = (1, 2)
    solvers: tuple = (2, 1)
    cli_check: tuple = (2, 2)
    cli_small: tuple = (2, 1)


FULL = Sizes()
TINY = Sizes(sweep_q=(1, 1), pipeline=(2, 1), central=(1, 0), solvers=(1, 1), cli_check=(2, 1), cli_small=(1, 1))


@dataclass
class Op:
    """One timed call: ``call()`` runs it, ``check(result)`` judges the output.

    ``counts(result)`` holds the per-layer work counts the program reported
    (a sweep's returned triple count, the length of its window's key list,
    a CLI report's payload); ``triples(result)`` is the number of triples
    checked, for ``triples_per_s``.  Closed forms appear only in ``check``.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    counts: Callable[[object], dict] = lambda result: {}
    triples: Callable[[object], int] = lambda result: 0


# -- closed forms -------------------------------------------------------------------


def window_size(field_d: int, window) -> int:
    """Keys in a window: L and M over Gamma, Y over the coset, times the loops."""
    h, loops = window
    points = 4 * h + 1 if field_d else 1  # sqrt-part coordinates of T
    return (2 * (2 * h + 1) + 2 * h) * points * (2 * loops + 1)


def pairs(n: int) -> int:
    return n * (n + 1) // 2


def jacobi_triples(n: int) -> int:
    return n * (n + 1) * (n + 2) // 6


def cocycle_triples(n: int) -> int:
    return comb(n, 3)


# The bracket table of the algebra: [A(a,i), B(b,j)] = coeff * C(a+b, i+j).
_TABLE = {
    "LL": ("L", lambda a, b: b - a),
    "LM": ("M", lambda a, b: b),
    "ML": ("M", lambda a, b: -a),
    "LY": ("Y", lambda a, b: b - a / 2),
    "YL": ("Y", lambda a, b: b / 2 - a),
    "YY": ("M", lambda a, b: b - a),
}


def bracket_terms(x: dict, y: dict) -> dict:
    """Bracket of two rational elements given as {(kind, gamma, loop): coeff}."""
    out: dict = {}
    for (k1, a, i), c1 in x.items():
        for (k2, b, j), c2 in y.items():
            entry = _TABLE.get(k1 + k2)
            if entry is None:
                continue
            kind, coeff = entry
            key = (kind, a + b, i + j)
            out[key] = out.get(key, 0) + c1 * c2 * coeff(a, b)
    return {k: v for k, v in out.items() if v}


def central_terms(x: dict, y: dict) -> dict:
    """C-part of the universal central extension's bracket: (a^3 - a)/12 on L(a,i), L(-a,j)."""
    out: dict = {}
    for (k1, a, i), c1 in x.items():
        for (k2, b, j), c2 in y.items():
            if k1 == k2 == "L" and a + b == 0:
                out[i + j] = out.get(i + j, 0) + c1 * c2 * (a**3 - a) / 12
    return {k: v for k, v in out.items() if v}


# -- text forms, written to the documented grammar ------------------------------------


def key_str(key) -> str:
    kind, gamma, loop = key
    return f"{kind}({gamma},{loop})"


def _signed_join(bodies) -> str:
    out = []
    for body, positive in bodies:
        if not out:
            out.append(body if positive else f"-{body}")
        else:
            out.append(("+ " if positive else "- ") + body)
    return " ".join(out) if out else "0"


def element_str(terms: dict) -> str:
    bodies = []
    for key, c in sorted(terms.items()):
        mag = abs(c)
        bodies.append((key_str(key) if mag == 1 else f"{mag}*{key_str(key)}", c > 0))
    return _signed_join(bodies)


def extended_str(base: dict, central: dict) -> str:
    bodies = [(element_str(base), True)] if base else []
    for k, c in sorted(central.items()):
        mag = abs(c)
        bodies.append((f"C({k})" if mag == 1 else f"{mag}*C({k})", c > 0))
    return _signed_join(bodies)


def laurent_str(poly: dict) -> str:
    if not poly:
        return "0"
    text = ""
    for e, c in sorted(poly.items()):
        power = "t" if e == 1 else f"t^{e}"
        if e == 0:
            body = str(c)
        elif c == 1:
            body = power
        elif c == -1:
            body = f"-{power}"
        else:
            body = f"{c}*{power}"
        if not text:
            text = body
        elif body.startswith("-"):
            text += " - " + body[1:]
        else:
            text += " + " + body
    return text


# -- random inputs ------------------------------------------------------------------


def rand_q(rng, nonzero=False) -> Fraction:
    if not nonzero and rng.random() < 0.15:
        return Fraction(0)
    return rng.choice(SMALL)


def rand_laurent(rng, span=2, terms=2) -> dict:
    """A Laurent polynomial with exactly ``terms`` nonzero coefficients."""
    return {e: rand_q(rng, True) for e in rng.sample(range(-span, span + 1), terms)}


def q_window_keys(window, kinds="LMY") -> list:
    """Keys of the default group (Gamma = Z, s = 1/2) inside a window."""
    h, loops = window
    out = []
    for kind in kinds:
        if kind == "Y":
            gammas = [Fraction(2 * n + 1, 2) for n in range(-h, h)]
        else:
            gammas = [Fraction(n) for n in range(-h, h + 1)]
        out += [(kind, g, i) for g in gammas for i in range(-loops, loops + 1)]
    return out


def rand_element(rng, window, kinds="LMY", terms=2) -> dict:
    pool = q_window_keys(window, kinds)
    return {key: rand_q(rng, True) for key in rng.sample(pool, min(terms, len(pool)))}


def rand_inner(rng, window) -> dict:
    """An element of the ideal with one M and one Y term.

    Its Y terms set how many brackets exp(ad x) and ad x produce, so a fixed
    shape keeps the cost of checking it about the same across seeds.
    """
    return {**rand_element(rng, window, "M", 1), **rand_element(rng, window, "Y", 1)}


def rand_shear(rng) -> dict:
    """Canonical shear data on two diagonals, each with a nonzero affine pair."""
    return {d: (rand_q(rng), rand_q(rng, True)) for d in rng.sample(range(-2, 3), 2)}


def rand_generator(rng, kind: int):
    """One automorphism generator of the default group, as (tag, data)."""
    if kind == 1:
        return ("loop-shift", (rng.randrange(-2, 3),))
    if kind == 2:
        return ("char-twist", ((rand_q(rng, True),), rand_q(rng, True)))
    if kind == 3:
        return ("z-flip", rng.choice([1, -1]))
    if kind == 4:
        return ("loop-scale", rand_q(rng, True))
    if kind == 5:
        return ("m-shear", rand_shear(rng))
    return ("inner", rand_inner(rng, (2, 2)))


def rand_word(rng) -> list:
    """Six generators, one of each kind but Scale, in a seeded order.

    A fixed kind mix keeps the cost of checking a word the same across seeds.
    """
    kinds = list(range(1, 7))
    rng.shuffle(kinds)
    return [rand_generator(rng, kind) for kind in kinds]


def rand_factorable(rng) -> dict:
    """Parameters of the word MShear(e) then the canonical tuple word."""
    e = rand_shear(rng)
    return {
        "a": rng.choice([Fraction(1), Fraction(-1)]),
        "shift": rng.randrange(-2, 3),
        "chi": rand_q(rng, True),
        "r": abs(rand_q(rng, True)),  # factor reports the positive square root
        "eps": rng.choice([1, -1]),
        "b": rand_q(rng, True),
        "e": e,
    }


def factorable_word(p: dict) -> list:
    return [
        ("m-shear", p["e"]),
        ("loop-scale", p["b"]),
        ("z-flip", p["eps"]),
        ("char-twist", ((p["chi"],), p["r"])),
        ("loop-shift", (p["shift"],)),
        ("scale", p["a"]),
    ]


def factor_payload(p: dict) -> dict:
    """What ``factor`` must report for a word made by ``factorable_word``."""
    return {
        "a": str(p["a"]),
        "phi": [p["shift"]],
        "chi": [str(p["chi"])],
        "r": str(p["r"]),
        "eps": p["eps"],
        "b": str(p["b"]),
        "e": {"diagonals": {str(d): [str(u), str(v)] for d, (u, v) in sorted(p["e"].items())}},
        "inner": [],
        "residual": "0",
    }


def rand_canonical(rng) -> dict:
    return {
        "rho": rand_laurent(rng, 1),
        "f": rand_laurent(rng, 1),
        "u": rand_laurent(rng, 1),
        "v": rand_laurent(rng, 1),
        "b": rand_laurent(rng, 1),
    }


def rand_cocycle(rng, window) -> tuple:
    """Three classes phi_k plus a coboundary on three window keys.

    Reduction reads class k off a key pair whose loop indices sum to k, so
    only |k| <= 2 * loop_bound can be recovered on the window.
    """
    top = min(3, 2 * window[1])
    classes = {k: rand_q(rng, True) for k in rng.sample(range(-top, top + 1), 3)}
    keys = q_window_keys(window)
    f = {key: rand_q(rng, True) for key in rng.sample(keys, 3)}
    return classes, f


def word_doc(word) -> list:
    doc = []
    for tag, data in word:
        if tag in ("scale", "loop-scale"):
            doc.append({tag: str(data)})
        elif tag == "loop-shift":
            doc.append({tag: list(data)})
        elif tag == "char-twist":
            chi, r = data
            doc.append({tag: {"chi": [str(c) for c in chi], "r": str(r)}})
        elif tag == "z-flip":
            doc.append({tag: data})
        elif tag == "m-shear":
            doc.append({tag: {"diagonals": {str(d): [str(u), str(v)] for d, (u, v) in data.items()}}})
        else:
            doc.append({tag: element_str(data)})
    return doc


def derivation_doc(c: dict) -> dict:
    return {
        "rho": laurent_str(c["rho"]),
        "f": [laurent_str(c["f"])],
        "g": {"affine": [laurent_str(c["u"]), laurent_str(c["v"])]},
        "b": laurent_str(c["b"]),
    }


def cocycle_doc(classes: dict, f: dict) -> dict:
    return {
        "classes": {str(k): str(c) for k, c in classes.items()},
        "f": {key_str(key): str(v) for key, v in f.items()},
    }


# -- conversion into library objects --------------------------------------------------


class Lib:
    """Builds library objects from the plain data above (imported lazily)."""

    def __init__(self):
        import loopsv

        self.m = loopsv

    def scalar(self, q):
        return self.m.Scalar(Fraction(q))

    def laurent(self, poly):
        return self.m.LaurentPoly({e: self.scalar(c) for e, c in poly.items()})

    def element(self, alg, terms):
        return alg.element({alg.key(k, self.scalar(g), i): self.scalar(c) for (k, g, i), c in terms.items()})

    def generator(self, alg, tag, data):
        m = self.m
        if tag == "scale":
            return m.Scale(self.scalar(data))
        if tag == "loop-shift":
            return m.LoopShift(tuple(data))
        if tag == "char-twist":
            chi, r = data
            return m.CharTwist(tuple(self.scalar(c) for c in chi), self.scalar(r))
        if tag == "z-flip":
            return m.ZFlip(data)
        if tag == "loop-scale":
            return m.LoopScale(self.scalar(data))
        if tag == "m-shear":
            return m.MShear(m.MShearData(diagonals={
                d: (self.scalar(u), self.scalar(v)) for d, (u, v) in data.items()
            }))
        return m.Inner(self.element(alg, data))

    def word(self, alg, word):
        return self.m.Word(alg, [self.generator(alg, tag, data) for tag, data in word])

    def canonical(self, c):
        m = self.m
        return m.CanonicalDerivation(
            rho=self.laurent(c["rho"]),
            f=m.HomToLaurent((self.laurent(c["f"]),)),
            g=m.GAffine(self.laurent(c["u"]), self.laurent(c["v"])),
            b=self.laurent(c["b"]),
        )

    def window(self, w):
        return self.m.Window(*w)


def rational_poly(poly) -> dict | None:
    """A LaurentPoly as {exponent: Fraction}, or None if a coefficient is irrational."""
    out = {}
    for e, c in poly.items():
        if c.b:
            return None
        out[e] = c.a
    return out


def rational_scalar(s):
    return None if s.b else s.a


# -- in-process workloads -------------------------------------------------------------


def sweep_round(lib: Lib, config: dict, window, rng) -> list:
    """One certificate on a fresh group and algebra: antisymmetry, Jacobi, phi_k cocycle."""
    m = lib.m
    field_d = 0 if config["field"] == "Q" else config["field"]["Q_sqrt"]
    n = window_size(field_d, window)
    k = rng.randrange(-3, 4)
    w = lib.window(window)
    state = {}

    def antisymmetry():
        alg = state["alg"] = m.LoopAlgebra(m.GroupData.from_config(config))
        keys = alg.window_keys(w)
        return m.antisymmetry_witnesses(alg, w), len(keys)

    def jacobi():
        return m.jacobi_witnesses(state["alg"], w)

    def cocycle():
        alg = state["alg"]
        return m.cocycle_witnesses(alg, m.make_phi_k(alg, k), w)

    return [
        Op("antisymmetry_witnesses", antisymmetry, lambda r: r == ([], n),
           lambda r: {"algebra.window_keys.keys": r[1], "algebra.antisymmetry_witnesses.pairs": pairs(r[1])}),
        Op("jacobi_witnesses", jacobi, lambda r: r == ([], jacobi_triples(n)),
           lambda r: {"algebra.jacobi_witnesses.triples": r[1]}, lambda r: r[1]),
        Op("cocycle_witnesses", cocycle, lambda r: r == ([], cocycle_triples(n)),
           lambda r: {"cohomology.cocycle_witnesses.triples": r[1]}, lambda r: r[1]),
    ]


def pipeline_round(lib: Lib, sizes: Sizes, rng) -> list:
    """Element- and operator-level calls on one fresh Q algebra."""
    m = lib.m
    alg = m.LoopAlgebra(m.GroupData.default())
    w = lib.window(sizes.pipeline)
    n = window_size(0, sizes.pipeline)
    ops = []

    cw = lib.window(sizes.central)
    cn = window_size(0, sizes.central)

    def central_jacobi():
        ext = m.central_extend(alg)
        keys = alg.window_keys(cw)
        mono = [alg.monomial(key) for key in keys]
        bad = count = 0
        for i in range(len(mono)):
            for j in range(i, len(mono)):
                for k in range(j, len(mono)):
                    count += 1
                    if not ext.jacobi_defect(mono[i], mono[j], mono[k]).is_zero():
                        bad += 1
        return bad, count, len(keys)

    # first, on the empty cache: what the earlier seeded calls left there would
    # otherwise change its cost from seed to seed.  Its triple count for the
    # traced run is the profiler's count of jacobi_defect calls.
    ops.append(Op("central_jacobi", central_jacobi, lambda r: r == (0, jacobi_triples(cn), cn),
                  lambda r: {"algebra.window_keys.keys": r[2]}, lambda r: r[1]))

    families = [
        ("D_phi", lambda: m.make_D_phi(alg, m.HomToLaurent((lib.laurent(rand_laurent(rng)),)))),
        ("D_g", lambda: m.make_D_g(alg, m.GAffine(lib.laurent(rand_laurent(rng)), lib.laurent(rand_laurent(rng))))),
        ("D_b", lambda: m.make_D_b(alg, lib.laurent(rand_laurent(rng)))),
        ("D_rho", lambda: m.make_D_rho(alg, lib.laurent(rand_laurent(rng)))),
        ("ad", lambda: m.make_ad(alg, lib.element(alg, rand_inner(rng, sizes.pipeline)))),
    ]

    def sweep(check, D):
        """A pair sweep and the size of the window it swept, as the program enumerates it."""
        return lambda: (check(alg, D, w), len(alg.window_keys(w)))

    def swept(metric, keys=False):
        def counts(r):
            out = {metric: pairs(r[1])}  # the pair count the CLI reports for these checks
            if keys:
                out["algebra.window_keys.keys"] = r[1]
            return out

        return counts

    for i, (label, make) in enumerate(families):
        # the first sweep enumerates the window
        ops.append(Op(f"derivation_witnesses[{label}]", sweep(m.derivation_witnesses, make()),
                      lambda r: r == ([], n), swept("derivations.derivation_witnesses.pairs", keys=i == 0)))

    cand = rand_canonical(rng)
    D = lib.canonical(cand).to_operator(alg)

    def decomposed(got):
        want = {"rho": cand["rho"], "f": cand["f"], "u": cand["u"], "v": cand["v"], "b": cand["b"]}
        have = {
            "rho": rational_poly(got.rho),
            "f": rational_poly(got.f.images[0]) if len(got.f.images) == 1 else None,
            "u": rational_poly(got.g.u) if isinstance(got.g, m.GAffine) else None,
            "v": rational_poly(got.g.v) if isinstance(got.g, m.GAffine) else None,
            "b": rational_poly(got.b),
        }
        return have == want and not got.inner

    ops.append(Op("canonical_decompose_degree0", lambda: m.canonical_decompose_degree0(alg, D, w), decomposed))

    word = lib.word(alg, rand_word(rng))
    ops.append(Op("automorphism_witnesses", sweep(m.automorphism_witnesses, word),
                  lambda r: r == ([], n), swept("automorphisms.automorphism_witnesses.pairs")))

    params = rand_factorable(rng)
    fword = lib.word(alg, factorable_word(params))
    ops.append(Op("factor", lambda: m.factor(alg, fword, w),
                  lambda r: r.describe() == factor_payload(params)))

    classes, f = rand_cocycle(rng, sizes.pipeline)
    phi = m.CombinationCocycle(
        alg,
        [(lib.scalar(c), m.make_phi_k(alg, k)) for k, c in classes.items()]
        + [(m.ONE, m.make_coboundary(alg, m.LinearFunctional(
            {alg.key(kind, lib.scalar(g), i): lib.scalar(v) for (kind, g, i), v in f.items()})))],
    )

    def reduced(got):
        if {k: rational_scalar(c) for k, c in got.classes.items()} != classes:
            return False
        if not got.residual_zero():
            return False
        return all(
            got.functional.value(alg.key(kind, lib.scalar(g), i)) == lib.scalar(v)
            for (kind, g, i), v in f.items()
        )

    ops.append(Op("reduce_cocycle", lambda: m.reduce_cocycle(alg, phi, w), reduced))

    sw = lib.window(sizes.solvers)
    ops.append(Op("g_constraint_space", lambda: m.g_constraint_space(alg.group, sw), affine_basis))
    ops.append(Op("shear_constraint_space", lambda: m.shear_constraint_space(alg.group, sw),
                  loop_free_affine_basis))

    elements = [rand_element(rng, sizes.pipeline, terms=rng.randrange(1, 4)) for _ in range(20)]
    texts = [element_str(x) for x in elements]

    def parse_all():
        return [m.parse_element(alg, t) for t in texts]

    ops.append(Op("parse_element", parse_all,
                  lambda got: [str(x) for x in got] == texts
                  and got == [lib.element(alg, x) for x in elements]))
    return ops


def _is_affine(values: dict, gammas) -> bool:
    """values[g] == u*g + v for all g: the paper's two-dimensional solution space."""
    zero = Fraction(0)
    vals = {rational_scalar(g): rational_scalar(c) for g, c in values.items()}
    qs = [rational_scalar(g) for g in gammas]
    v = vals.get(zero, zero)
    pivot = next(g for g in qs if g)
    u = (vals.get(pivot, zero) - v) / pivot
    return all(vals.get(g, zero) == u * g + v for g in qs)


def affine_basis(result) -> bool:
    basis, gammas = result
    return len(basis) == 2 and all(_is_affine(vec, gammas) for vec in basis)


def loop_free_affine_basis(result) -> bool:
    basis, index = result
    if len(basis) != 2:
        return False
    gammas = sorted({g for g, _ in index}, key=rational_scalar)
    loops = sorted({i for _, i in index})
    for vec in basis:
        per_gamma = {}
        for g in gammas:
            column = {vec.get((g, i)) for i in loops}
            if len(column) != 1:
                return False
            value = column.pop()
            if value is not None:
                per_gamma[g] = value
        if not _is_affine(per_gamma, gammas):
            return False
    return True


# -- the CLI workload ---------------------------------------------------------------


@dataclass
class CliCall:
    """One ``python -m loopsv`` invocation; ``expect(code, stdout, stderr)`` judges it.

    ``counts`` maps a per-layer metric to the payload field of the ``--json``
    report that gives it; ``triples`` names the field that counts triples.
    """

    label: str
    argv: list
    expect: Callable[[int, str, str], bool]
    counts: dict = field(default_factory=dict)
    triples: str | None = None


def payload_field(out: str, name: str) -> int:
    """A count from a ``--json`` report on stdout, or 0 if there is none."""
    try:
        value = json.loads(out)["payload"][name]
    except (ValueError, KeyError, TypeError):
        return 0
    return value if isinstance(value, int) else 0


def prints(text: str):
    return lambda code, out, err: code == 0 and out == text + "\n"


def reports(payload: dict):
    """A passing ``--json`` report with exactly this payload and no witnesses."""
    want = {"status": "pass", "payload": payload, "witnesses": []}

    def expect(code, out, err):
        try:
            return code == 0 and json.loads(out) == want
        except ValueError:
            return False

    return expect


def usage_error(code, out, err) -> bool:
    """Exit 2 with nothing on stdout and exactly one ``error:`` line on stderr."""
    return code == 2 and out == "" and err.count("\n") == 1 and err.startswith("error:")


def _writer(tmp: Path, r: int):
    """Writes a generated document to the run's temporary directory; returns its path."""

    def write(name, doc) -> str:
        path = tmp / f"r{r}-{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def _window_flags(window) -> list:
    return ["--gamma-height", str(window[0]), "--loop-bound", str(window[1])]


def cli_round(rng, sizes: Sizes, tmp: Path, r: int) -> list:
    """One call of each subcommand the repository README documents, in a seeded order.

    The README's examples are the only statement of how the tool is used, so
    each subcommand weighs the same: 4 cheap calls (``bracket``, ``grade``,
    ``extend``, ``iso``), 3 document calls, and 4 ``check`` sweeps.
    """

    write = _writer(tmp, r)

    def bracket():
        x = rand_element(rng, (3, 3), terms=rng.randrange(1, 3))
        y = rand_element(rng, (3, 3), terms=rng.randrange(1, 3))
        return CliCall("bracket", ["bracket", "--", element_str(x), element_str(y)],
                       prints(element_str(bracket_terms(x, y))))

    def grade():
        x = rand_element(rng, (3, 3), terms=rng.randrange(2, 5))
        buckets: dict = {}
        for key, c in x.items():
            buckets.setdefault(key[1], {})[key] = c
        lines = [f"{g}: {element_str(part)}" for g, part in sorted(buckets.items())]
        return CliCall("grade", ["grade", "--", element_str(x)], prints("\n".join(lines)))

    def extend():
        a = Fraction(rng.randrange(1, 4))
        x = {("L", a, rng.randrange(-3, 4)): rand_q(rng, True)}
        y = {("L", -a, rng.randrange(-3, 4)): rand_q(rng, True)}
        y.update(rand_element(rng, (3, 3), kinds="MY", terms=1))
        return CliCall("extend", ["extend", "--", element_str(x), element_str(y)],
                       prints(extended_str(bracket_terms(x, y), central_terms(x, y))))

    def iso():
        scale = rng.choice([2, 3, 4, 5])
        doc = {"field": "Q", "gamma_generators": [str(rng.choice([scale, -scale]))],
               "s": str(Fraction(rng.choice([scale, -scale]), 2))}
        return CliCall("iso", ["iso", write("iso-q", Q_CONFIG), write("iso", doc)],
                       prints(str(Fraction(1, scale))))

    n = window_size(0, sizes.cli_check)
    small = window_size(0, sizes.cli_small)
    flags = _window_flags(sizes.cli_check)
    small_flags = _window_flags(sizes.cli_small)

    def decompose():
        cand = rand_canonical(rng)
        want = {
            "rho": laurent_str(cand["rho"]), "f": [laurent_str(cand["f"])],
            "g": {"affine": [laurent_str(cand["u"]), laurent_str(cand["v"])]},
            "b": laurent_str(cand["b"]), "inner": "0", "residual": "0",
        }
        return CliCall("decompose-derivation",
                       ["decompose-derivation", write("decompose", derivation_doc(cand)), *flags],
                       prints(json.dumps(want, separators=(",", ":"))))

    def factor():
        params = rand_factorable(rng)
        return CliCall("factor-automorphism",
                       ["factor-automorphism", write("factor", word_doc(factorable_word(params))), *flags],
                       prints(json.dumps(factor_payload(params), separators=(",", ":"))))

    def cocycle_class():
        classes, f = rand_cocycle(rng, sizes.cli_check)
        want = {"classes": {str(k): str(c) for k, c in sorted(classes.items())}, "residual": "0"}
        return CliCall("cocycle-class", ["cocycle-class", write("class", cocycle_doc(classes, f)), *flags],
                       prints(json.dumps(want, separators=(",", ":"))))

    def check_cocycle():
        classes, f = rand_cocycle(rng, sizes.cli_small)
        return CliCall("check-cocycle",
                       ["check", "cocycle", write("cocycle", cocycle_doc(classes, f)), "--json", *small_flags],
                       reports({"triples": cocycle_triples(small)}),
                       {"cohomology.cocycle_witnesses.triples": "triples"}, "triples")

    def check_jacobi():
        return CliCall("check-jacobi", ["check", "jacobi", "--json", *small_flags],
                       reports({"triples": jacobi_triples(small)}),
                       {"algebra.jacobi_witnesses.triples": "triples"}, "triples")

    def check_derivation():
        doc = derivation_doc(rand_canonical(rng))
        return CliCall("check-derivation",
                       ["check", "derivation", write("derivation", doc), "--json", *flags],
                       reports({"pairs": pairs(n)}),
                       {"derivations.derivation_witnesses.pairs": "pairs"})

    def check_automorphism():
        word = word_doc(rand_word(rng))
        return CliCall("check-automorphism",
                       ["check", "automorphism", write("word", word), "--json", *flags],
                       reports({"pairs": pairs(n)}),
                       {"automorphisms.automorphism_witnesses.pairs": "pairs"})

    calls = [bracket(), grade(), extend(), iso(), decompose(), factor(), cocycle_class(),
             check_jacobi(), check_cocycle(), check_derivation(), check_automorphism()]
    rng.shuffle(calls)
    return calls


def probe_round(rng, sizes: Sizes, tmp: Path, r: int) -> list:
    """Known CLI defects: each call states what a correct program must do.

    ``--loop-bound 0`` must mean loop bound 0, and every malformed document
    must end in exit 2 with one ``error:`` line, never a traceback.
    """

    write = _writer(tmp, r)
    n = window_size(0, (1, 0))
    calls = [CliCall("check-jacobi", ["check", "jacobi", "--gamma-height", "1", "--loop-bound", "0", "--json"],
                     reports({"triples": jacobi_triples(n)}), triples="triples")]
    malformed = [
        ("check-automorphism", ["check", "automorphism", write("twist", [{"char-twist": str(rng.randrange(2, 9))}])]),
        ("check-automorphism", ["check", "automorphism", write("shift", [{"loop-shift": rng.randrange(1, 9)}])]),
        ("cocycle-class", ["cocycle-class", write("classes", {"classes": {"x": str(rng.randrange(1, 9))}})]),
        ("decompose-derivation", ["decompose-derivation", write("affine", {"g": {"affine": ["t"]}})]),
        ("bracket", ["bracket", f"L({rng.randrange(1, 9)}/0,0)", "L(1,0)"]),
    ]
    calls += [CliCall(label, argv, usage_error) for label, argv in malformed]
    return calls
