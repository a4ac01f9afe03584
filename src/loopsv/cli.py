"""The ``lsv`` command line tool.

One subcommand per operation, one process per run.  Configuration comes
from --config, the LSV_CONFIG environment variable, or the built-in default
group (Gamma = Z, s = 1/2); window flags override the config.

Each ``cmd_*`` handler returns its report ``(status, payload, witnesses,
plain)``; ``main`` alone prints it and picks the exit code: 0 for ``pass``,
1 for ``fail``.  An LsvError ends the run in one ``error:`` line and exit 1
for a FactorError, ShapeError or NotACocycleError (a failed computation),
else exit 2: usage or configuration trouble, which includes a DomainError,
an input or window the command cannot work on.

Everything printed is an exact string: ``plain``, or under --json the
report object {"status", "payload", "witnesses"}.  Output for fixed inputs
is byte-stable, so reports are safe to diff across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

# only what every subcommand needs; each handler and loader imports the rest itself,
# so a call loads just the modules its subcommand uses
from .algebra import LoopAlgebra, Window, antisymmetry_witnesses, jacobi_witnesses
from .errors import DomainError, FactorError, GroupConfigError, LsvError, NotACocycleError, ShapeError
from .groups import GroupData
from .scalars import _INTEGER, ONE, ZERO, Scalar

DEFAULT_WINDOW = Window(3, 3)


# -- configuration ----------------------------------------------------------------


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # a key written twice in one object is refused like any other duplicate index
            return json.load(fh, object_pairs_hook=lambda kv: _doc_keyed(kv, "JSON object", str, lambda v: v))
    except OSError as exc:
        raise GroupConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past the int-string digit limit
        raise GroupConfigError(f"{path} is not valid JSON: {exc}") from exc


def _load_context(args) -> tuple:
    path = args.config or os.environ.get("LSV_CONFIG")
    doc = {}
    if path:
        doc = _read_json(path)
        group = GroupData.from_config(doc)
    else:
        group = GroupData.default()
    wdoc = doc.get("window", {}) if isinstance(doc, dict) else {}
    if not isinstance(wdoc, dict):
        raise GroupConfigError("window config must be an object")
    height = _first_given(args.gamma_height, wdoc.get("gamma_height"), DEFAULT_WINDOW.gamma_height)
    loops = _first_given(args.loop_bound, wdoc.get("loop_bound"), DEFAULT_WINDOW.loop_bound)
    try:
        window = Window(_doc_int(height, "window gamma_height"), _doc_int(loops, "window loop_bound"))
    except ValueError as exc:
        raise GroupConfigError(f"bad window bounds: {exc}") from exc
    return LoopAlgebra(group), window


def _first_given(*values):
    """The first value that is not None; an explicit 0 counts as given."""
    return next(v for v in values if v is not None)


def _doc_scalar(group: GroupData, value) -> Scalar:
    if isinstance(value, str):
        return group.parse_scalar(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Scalar(value)
    raise GroupConfigError(f"expected an exact scalar string, got {value!r}")


def _doc_gamma(group: GroupData, value, what: str) -> Scalar:
    """A scalar document entry that must lie in Gamma."""
    gamma = _doc_scalar(group, value)
    if not group.in_gamma(gamma):
        raise GroupConfigError(f"{what} {gamma} is not in Gamma")
    return gamma


def _doc_int(value, what: str) -> int:
    """A JSON integer, or a string holding one: a JSON object key, or a window flag.

    The string is ASCII digits with an optional sign, and may have
    whitespace around it; ``int`` alone would also read ``1_0`` and
    non-ASCII digits.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INTEGER.fullmatch(value.strip()):
        try:
            return int(value)
        except ValueError:  # beyond Python's limit on digits in an int string
            pass
    raise GroupConfigError(f"{what} must be an integer, got {value!r}")


def _doc_list(value, what: str, length: int | None = None) -> list:
    if not isinstance(value, list) or length not in (None, len(value)):
        shape = "a list" if length is None else f"a list of {length} entries"
        raise GroupConfigError(f"{what} must be {shape}, got {value!r}")
    return value


def _doc_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise GroupConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def _doc_keyed(pairs, what: str, read_key, read_value) -> dict:
    """{read_key(k): read_value(v)} over the (k, v) pairs of a document.

    Two keys that name one index, such as "1" and "2/2", are refused rather
    than resolved by their order.
    """
    out = {}
    for k, v in pairs:
        index = read_key(k)
        if index in out:
            name = ", ".join(map(str, index)) if isinstance(index, tuple) else index
            raise GroupConfigError(f"duplicate {what} entry for {name}")
        out[index] = read_value(v)
    return out


def _doc_classes(group: GroupData, doc) -> dict:
    """A class document: loop degree k -> coefficient of phi_k."""
    return _doc_keyed(
        _doc_object(doc, "classes").items(),
        "classes",
        lambda k: _doc_int(k, "a class degree"),
        functools.partial(_doc_scalar, group),
    )


# -- JSON loaders for structured inputs ---------------------------------------------


def _loader(load):
    """``load`` with its shape and cocycle errors turned into usage errors.

    Such an error while a document is read means the document is invalid,
    not that a check failed, so it must not end in exit 1.
    """

    @functools.wraps(load)
    def wrapped(alg: LoopAlgebra, doc):
        try:
            return load(alg, doc)
        except (ShapeError, NotACocycleError) as exc:
            raise GroupConfigError(str(exc)) from exc

    return wrapped


@_loader
def derivation_from_doc(alg: LoopAlgebra, doc: dict):
    """Build the operator described by a derivation document."""
    from .derivations import CanonicalDerivation, GAffine, GTable, HomToLaurent
    from .laurent import LaurentPoly
    from .parser import parse_element, parse_laurent

    if not isinstance(doc, dict):
        raise GroupConfigError("derivation document must be a JSON object")
    group = alg.group
    rho = parse_laurent(alg, doc.get("rho", "0"))
    f_doc = doc.get("f")
    if f_doc is None:
        f = HomToLaurent.zero(group)
    else:
        if not isinstance(f_doc, list) or len(f_doc) != len(group.t_basis):
            raise GroupConfigError(
                f"f needs exactly {len(group.t_basis)} entries, one per T-basis element"
            )
        f = HomToLaurent(tuple(parse_laurent(alg, s) for s in f_doc))
    g_doc = doc.get("g")
    if g_doc is None:
        g = GAffine(LaurentPoly.zero(), LaurentPoly.zero())
    elif isinstance(g_doc, dict) and "affine" in g_doc:
        u, v = _doc_list(g_doc["affine"], "g.affine", 2)
        g = GAffine(parse_laurent(alg, u), parse_laurent(alg, v))
    elif isinstance(g_doc, dict) and "table" in g_doc:
        g = GTable(
            _doc_keyed(
                _doc_object(g_doc["table"], "g.table").items(),
                "g.table",
                lambda k: _doc_gamma(group, k, "g.table index"),
                functools.partial(parse_laurent, alg),
            )
        )
    else:
        raise GroupConfigError('g must be {"affine": [u, v]} or {"table": {...}}')
    b = parse_laurent(alg, doc.get("b", "0"))
    inner = parse_element(alg, doc.get("inner", "0"))
    return CanonicalDerivation(rho, f, g, b, inner if inner else None).to_operator(alg)


def _shear_from_doc(alg: LoopAlgebra, doc: dict):
    from .automorphisms import MShearData

    group = alg.group
    if isinstance(doc, dict) and "diagonals" in doc:
        diagonals = _doc_keyed(
            _doc_object(doc["diagonals"], "shear diagonals").items(),
            "shear diagonals",
            lambda d: _doc_int(d, "a shear offset"),
            lambda pair: tuple(_doc_scalar(group, x) for x in _doc_list(pair, "a shear diagonal", 2)),
        )
        return MShearData(diagonals=diagonals)
    if isinstance(doc, dict) and "table" in doc:
        rows = (_doc_list(row, "a shear table row", 4) for row in _doc_list(doc["table"], "shear table"))
        table = _doc_keyed(
            ((tuple(row[:3]), row[3]) for row in rows),
            "shear table",
            lambda at: (
                _doc_gamma(group, at[0], "shear table index"),
                _doc_int(at[1], "a loop index"),
                _doc_int(at[2], "a loop index"),
            ),
            functools.partial(_doc_scalar, group),
        )
        return MShearData(table=table)
    raise GroupConfigError('shear data must be {"diagonals": {...}} or {"table": [...]}')


@_loader
def word_from_doc(alg: LoopAlgebra, doc):
    """Build a generator word from its JSON form (applied first to last)."""
    from .automorphisms import CharTwist, Inner, LoopScale, LoopShift, MShear, Scale, Word, ZFlip
    from .parser import parse_element

    if not isinstance(doc, list):
        raise GroupConfigError("a word is a JSON list of generator objects")
    group = alg.group
    gens = []
    for item in doc:
        if not isinstance(item, dict) or len(item) != 1:
            raise GroupConfigError(f"each generator is a one-key object, got {item!r}")
        (tag, value), = item.items()
        if tag == "scale":
            gens.append(Scale(_doc_scalar(group, value)))
        elif tag == "loop-shift":
            images = _doc_list(value, "loop-shift")
            gens.append(LoopShift(tuple(_doc_int(n, "a loop-shift entry") for n in images)))
        elif tag == "char-twist":
            value = _doc_object(value, "char-twist")
            chi = tuple(_doc_scalar(group, v) for v in _doc_list(value.get("chi"), "char-twist chi"))
            gens.append(CharTwist(chi, _doc_scalar(group, value.get("r", 1))))
        elif tag == "z-flip":
            gens.append(ZFlip(_doc_int(value, "z-flip")))
        elif tag == "loop-scale":
            gens.append(LoopScale(_doc_scalar(group, value)))
        elif tag == "m-shear":
            gens.append(MShear(_shear_from_doc(alg, value)))
        elif tag == "inner":
            gens.append(Inner(parse_element(alg, value)))
        else:
            raise GroupConfigError(f"unknown generator tag {tag!r}")
    return Word(alg, gens)


@_loader
def cocycle_from_doc(alg: LoopAlgebra, doc: dict):
    from .cohomology import CombinationCocycle, LinearFunctional, TableCocycle, make_coboundary, make_phi_k
    from .parser import parse_key

    if not isinstance(doc, dict):
        raise GroupConfigError("cocycle document must be a JSON object")
    group = alg.group
    classes = _doc_classes(group, doc.get("classes", {}))
    terms = [(coeff, make_phi_k(alg, k)) for k, coeff in classes.items() if coeff]
    f_doc = doc.get("f")
    if f_doc:
        f = _doc_keyed(
            _doc_object(f_doc, "f").items(),
            "f",
            functools.partial(parse_key, alg),
            functools.partial(_doc_scalar, group),
        )
        terms.append((ONE, make_coboundary(alg, LinearFunctional(f))))
    table_doc = doc.get("table")
    if table_doc is not None:
        rows = (_doc_list(row, "a table row", 3) for row in _doc_list(table_doc, "table"))
        entries = _doc_keyed(
            (((k1, k2), v) for k1, k2, v in rows),
            "table",
            lambda pair: (parse_key(alg, pair[0]), parse_key(alg, pair[1])),
            functools.partial(_doc_scalar, group),
        )
        terms.append((ONE, TableCocycle(alg, entries)))
    return CombinationCocycle(alg, terms)


# -- subcommands: each returns (status, payload, witnesses, plain) ------------------


_compact = functools.partial(json.dumps, separators=(",", ":"))


def _pair_str(pair) -> str:
    return "(" + ", ".join(str(p) for p in pair) + ")"


def cmd_bracket(alg, window, args) -> tuple:
    from .parser import parse_element

    x = parse_element(alg, args.x)
    y = parse_element(alg, args.y)
    out = str(alg.bracket(x, y))
    return "pass", out, [], out


def cmd_grade(alg, window, args) -> tuple:
    from .parser import parse_element

    x = parse_element(alg, args.x)
    graded = alg.grade(x)
    payload = {str(g): str(part) for g, part in sorted(graded.items())}
    plain = "\n".join(f"{g}: {part}" for g, part in payload.items()) or "0"
    return "pass", payload, [], plain


def cmd_check(alg, window, args) -> tuple:
    what = args.what
    if what == "jacobi":
        if args.file:
            raise GroupConfigError("check jacobi takes no input file")
        anti = antisymmetry_witnesses(alg, window)
        jac, count = jacobi_witnesses(alg, window)
        witnesses = [_pair_str(w) for w in anti + jac]
        payload = {"triples": count}
    elif what in ("derivation", "automorphism"):
        doc = _read_json(_require_file(args))
        if what == "derivation":
            from .derivations import derivation_witnesses

            bad = derivation_witnesses(alg, derivation_from_doc(alg, doc), window)
        else:
            from .automorphisms import automorphism_witnesses

            bad = automorphism_witnesses(alg, word_from_doc(alg, doc), window)
        witnesses = [_pair_str(w) for w in bad]
        payload = {"pairs": bad.pairs}
    else:  # cocycle
        from .cohomology import cocycle_witnesses

        doc = _read_json(_require_file(args))
        phi = cocycle_from_doc(alg, doc)
        bad, count = cocycle_witnesses(alg, phi, window)
        witnesses = [_pair_str(w) for w in bad]
        payload = {"triples": count}
    status = "fail" if witnesses else "pass"
    return status, payload, witnesses, "\n".join([status, *witnesses])


def _require_file(args) -> str:
    if not args.file:
        raise GroupConfigError(f"check {args.what} needs an input file")
    return args.file


def cmd_decompose(alg, window, args) -> tuple:
    from .derivations import (
        CanonicalDerivation,
        Operator,
        canonical_decompose_degree0,
        degree_decompose,
        operators_agree,
        reduce_nonzero_degree,
    )

    doc = _read_json(args.file)
    D = derivation_from_doc(alg, doc)
    components = degree_decompose(alg, D, window)
    inner = alg.zero()
    for degree in sorted(components):
        if degree:
            inner = inner + reduce_nonzero_degree(alg, components[degree], window)
    zero_part = components.get(ZERO, Operator.zero(alg))
    pieces = canonical_decompose_degree0(alg, zero_part, window)
    rebuilt = CanonicalDerivation(
        pieces.rho, pieces.f, pieces.g, pieces.b, inner if inner else None
    )
    witness = operators_agree(rebuilt.to_operator(alg), D, alg.window_keys(window))
    if witness is not None:
        return "fail", None, [str(witness)], f"fail\n{witness}"
    payload = {
        "rho": str(pieces.rho),
        "f": [str(img) for img in pieces.f.images],
        "g": {"affine": [str(pieces.g.u), str(pieces.g.v)]},
        "b": str(pieces.b),
        "inner": str(inner),
        "residual": "0",
    }
    return "pass", payload, [], _compact(payload)


def cmd_factor(alg, window, args) -> tuple:
    from .automorphisms import factor

    doc = _read_json(args.file)
    word = word_from_doc(alg, doc)
    factored = factor(alg, word, window)
    payload = factored.describe()
    return "pass", payload, [], _compact(payload)


def cmd_cocycle_class(alg, window, args) -> tuple:
    from .cohomology import reduce_cocycle

    doc = _read_json(args.file)
    phi = cocycle_from_doc(alg, doc)
    reduced = reduce_cocycle(alg, phi, window)
    payload = {
        "classes": reduced.classes_payload(),
        "residual": reduced.residual_payload(),
    }
    if args.json:
        payload["f"] = reduced.functional.describe()
        payload["diagnostics"] = list(reduced.diagnostics)
    witnesses = [_pair_str(e.pair) for e in reduced.residual]
    return "fail" if witnesses else "pass", payload, witnesses, _compact(payload)


def cmd_extend(alg, window, args) -> tuple:
    from .cohomology import central_extend
    from .parser import parse_element

    classes = None
    if args.classes:
        classes = _doc_classes(alg.group, _read_json(args.classes))
    ext = central_extend(alg, classes)
    x = parse_element(alg, args.x)
    y = parse_element(alg, args.y)
    out = str(ext.bracket(x, y))
    return "pass", out, [], out


def cmd_iso(alg, window, args) -> tuple:
    from .automorphisms import iso_test

    g1 = GroupData.from_config(_read_json(args.first))
    g2 = GroupData.from_config(_read_json(args.second))
    a = iso_test(g1, g2)
    if a is None:
        return "fail", "none", [], "none"
    return "pass", str(a), [], str(a)


# -- argument wiring ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # the shared flags are accepted before or after the subcommand, so they
    # live on a parent parser with SUPPRESS defaults; main presets their values
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        default=argparse.SUPPRESS,
        help="path to a group/window configuration file",
    )
    # the window flags stay strings here: _load_context reads them with _doc_int
    common.add_argument(
        "--gamma-height",
        default=argparse.SUPPRESS,
        help="window bound on index height",
    )
    common.add_argument(
        "--loop-bound",
        default=argparse.SUPPRESS,
        help="window bound on |loop degree|",
    )
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit a JSON report",
    )

    top = argparse.ArgumentParser(
        prog="lsv",
        description="Exact computations in the loop Schroedinger-Virasoro algebra.",
        parents=[common],
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("bracket", help="bracket of two elements")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=cmd_bracket)

    p = add_parser("grade", help="split an element by weight")
    p.add_argument("x")
    p.set_defaults(handler=cmd_grade)

    p = add_parser("check", help="run a verification sweep over the window")
    p.add_argument("what", choices=["jacobi", "derivation", "automorphism", "cocycle"])
    p.add_argument("file", nargs="?", help="JSON file describing the object checked")
    p.set_defaults(handler=cmd_check)

    p = add_parser(
        "decompose-derivation", help="canonical pieces of a derivation"
    )
    p.add_argument("file", help="derivation description JSON")
    p.set_defaults(handler=cmd_decompose)

    p = add_parser(
        "factor-automorphism", help="factor a word into the canonical form"
    )
    p.add_argument("file", help="automorphism word JSON")
    p.set_defaults(handler=cmd_factor)

    p = add_parser("cocycle-class", help="reduce a cocycle to class coefficients")
    p.add_argument("file", help="cocycle JSON")
    p.set_defaults(handler=cmd_cocycle_class)

    p = add_parser("extend", help="bracket in the centrally extended algebra")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--classes", help="JSON map of loop degree to class coefficient")
    p.set_defaults(handler=cmd_extend)

    p = add_parser("iso", help="index-rescaling isomorphism test for two groups")
    p.add_argument("first", help="first group configuration file")
    p.add_argument("second", help="second group configuration file")
    p.set_defaults(handler=cmd_iso)

    return top


def main(argv=None) -> int:
    # the shared flags' defaults; their SUPPRESS defaults keep a subparser from overwriting them
    args = _build_parser().parse_args(
        argv, argparse.Namespace(config=None, gamma_height=None, loop_bound=None, json=False)
    )
    try:
        status, payload, witnesses, plain = args.handler(*_load_context(args), args)
    except LsvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a DomainError means the input or window does not fit the command: usage trouble
        failed = isinstance(exc, (FactorError, ShapeError, NotACocycleError)) and not isinstance(exc, DomainError)
        return 1 if failed else 2
    print(_compact({"status": status, "payload": payload, "witnesses": witnesses}) if args.json else plain)
    return 0 if status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
