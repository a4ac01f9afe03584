"""The ``lsv`` command line tool.

One subcommand per operation, one process per run.  Configuration comes
from --config, the LSV_CONFIG environment variable, or the built-in default
group (Gamma = Z, s = 1/2); window flags override the config.  Exit codes:
0 pass, 1 fail with witnesses, 2 usage or configuration trouble, which
includes an input or window the command cannot work on.

Everything printed is an exact string; --json wraps the same data in a
report object {"status", "payload", "witnesses"}.  Output for fixed inputs
is byte-stable, so reports are safe to diff across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .algebra import LoopAlgebra, Window, antisymmetry_witnesses, jacobi_witnesses
from .automorphisms import (
    CharTwist,
    Inner,
    LoopScale,
    LoopShift,
    MShear,
    MShearData,
    Scale,
    Word,
    ZFlip,
    automorphism_witnesses,
    factor,
    iso_test,
)
from .cohomology import (
    CombinationCocycle,
    LinearFunctional,
    TableCocycle,
    central_extend,
    cocycle_witnesses,
    make_coboundary,
    make_phi_k,
    reduce_cocycle,
)
from .derivations import (
    CanonicalDerivation,
    GAffine,
    GTable,
    HomToLaurent,
    Operator,
    canonical_decompose_degree0,
    degree_decompose,
    derivation_witnesses,
    operators_agree,
    reduce_nonzero_degree,
)
from .errors import DomainError, FactorError, GroupConfigError, LsvError, NotACocycleError, ShapeError
from .groups import GroupData
from .laurent import LaurentPoly
from .parser import parse_element, parse_key, parse_laurent
from .scalars import ONE, ZERO, Scalar

DEFAULT_WINDOW = Window(3, 3)


# -- configuration ----------------------------------------------------------------


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
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
    """A JSON integer, or a string holding one (JSON object keys are strings)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
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
def derivation_from_doc(alg: LoopAlgebra, doc: dict) -> Operator:
    """Build the operator described by a derivation document."""
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
            {
                _doc_gamma(group, k, "g.table index"): parse_laurent(alg, v)
                for k, v in _doc_object(g_doc["table"], "g.table").items()
            }
        )
    else:
        raise GroupConfigError('g must be {"affine": [u, v]} or {"table": {...}}')
    b = parse_laurent(alg, doc.get("b", "0"))
    inner = parse_element(alg, doc.get("inner", "0"))
    return CanonicalDerivation(rho, f, g, b, inner if inner else None).to_operator(alg)


def _shear_from_doc(alg: LoopAlgebra, doc: dict):
    group = alg.group
    if isinstance(doc, dict) and "diagonals" in doc:
        diagonals = {}
        for d, pair in _doc_object(doc["diagonals"], "shear diagonals").items():
            u, v = _doc_list(pair, "a shear diagonal", 2)
            diagonals[_doc_int(d, "a shear offset")] = (_doc_scalar(group, u), _doc_scalar(group, v))
        return MShearData(diagonals=diagonals)
    if isinstance(doc, dict) and "table" in doc:
        table = {}
        for row in _doc_list(doc["table"], "shear table"):
            g, i, k, v = _doc_list(row, "a shear table row", 4)
            gamma = _doc_gamma(group, g, "shear table index")
            index = (gamma, _doc_int(i, "a loop index"), _doc_int(k, "a loop index"))
            table[index] = _doc_scalar(group, v)
        return MShearData(table=table)
    raise GroupConfigError('shear data must be {"diagonals": {...}} or {"table": [...]}')


@_loader
def word_from_doc(alg: LoopAlgebra, doc) -> Word:
    """Build a generator word from its JSON form (applied first to last)."""
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
    if not isinstance(doc, dict):
        raise GroupConfigError("cocycle document must be a JSON object")
    group = alg.group
    terms = []
    for k, v in _doc_object(doc.get("classes", {}), "classes").items():
        coeff = _doc_scalar(group, v)
        if coeff:
            terms.append((coeff, make_phi_k(alg, _doc_int(k, "a class degree"))))
    f_doc = doc.get("f")
    if f_doc:
        f = LinearFunctional(
            {parse_key(alg, key): _doc_scalar(group, v) for key, v in _doc_object(f_doc, "f").items()}
        )
        terms.append((ONE, make_coboundary(alg, f)))
    table_doc = doc.get("table")
    if table_doc is not None:
        entries = {}
        for row in _doc_list(table_doc, "table"):
            k1, k2, v = _doc_list(row, "a table row", 3)
            pair = (parse_key(alg, k1), parse_key(alg, k2))
            if pair in entries:
                raise GroupConfigError(f"duplicate table entry for {k1}, {k2}")
            entries[pair] = _doc_scalar(group, v)
        terms.append((ONE, TableCocycle(alg, entries)))
    return CombinationCocycle(alg, terms)


# -- reporting ----------------------------------------------------------------------


def _emit(args, status: str, payload, witnesses, plain: str) -> None:
    if args.json:
        report = {"status": status, "payload": payload, "witnesses": witnesses}
        print(json.dumps(report, separators=(",", ":")))
    elif plain:
        print(plain)


def _pair_str(pair) -> str:
    return "(" + ", ".join(str(p) for p in pair) + ")"


# -- subcommands --------------------------------------------------------------------


def cmd_bracket(alg, window, args) -> int:
    x = parse_element(alg, args.x)
    y = parse_element(alg, args.y)
    out = str(alg.bracket(x, y))
    _emit(args, "pass", out, [], out)
    return 0


def cmd_grade(alg, window, args) -> int:
    x = parse_element(alg, args.x)
    graded = alg.grade(x)
    payload = {str(g): str(part) for g, part in sorted(graded.items())}
    plain = "\n".join(f"{g}: {part}" for g, part in payload.items()) or "0"
    _emit(args, "pass", payload, [], plain)
    return 0


def cmd_check(alg, window, args) -> int:
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
            bad = derivation_witnesses(alg, derivation_from_doc(alg, doc), window)
        else:
            bad = automorphism_witnesses(alg, word_from_doc(alg, doc), window)
        witnesses = [_pair_str(w) for w in bad]
        payload = {"pairs": bad.pairs}
    else:  # cocycle
        doc = _read_json(_require_file(args))
        phi = cocycle_from_doc(alg, doc)
        bad, count = cocycle_witnesses(alg, phi, window)
        witnesses = [_pair_str(w) for w in bad]
        payload = {"triples": count}
    if witnesses:
        _emit(args, "fail", payload, witnesses, "fail\n" + "\n".join(witnesses))
        return 1
    _emit(args, "pass", payload, [], "pass")
    return 0


def _require_file(args) -> str:
    if not args.file:
        raise GroupConfigError(f"check {args.what} needs an input file")
    return args.file


def cmd_decompose(alg, window, args) -> int:
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
        _emit(args, "fail", None, [str(witness)], f"fail\n{witness}")
        return 1
    payload = {
        "rho": str(pieces.rho),
        "f": [str(img) for img in pieces.f.images],
        "g": {"affine": [str(pieces.g.u), str(pieces.g.v)]},
        "b": str(pieces.b),
        "inner": str(inner),
        "residual": "0",
    }
    _emit(args, "pass", payload, [], json.dumps(payload, separators=(",", ":")))
    return 0


def cmd_factor(alg, window, args) -> int:
    doc = _read_json(args.file)
    word = word_from_doc(alg, doc)
    factored = factor(alg, word, window)
    payload = factored.describe()
    _emit(args, "pass", payload, [], json.dumps(payload, separators=(",", ":")))
    return 0


def cmd_cocycle_class(alg, window, args) -> int:
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
    status = "pass" if reduced.residual_zero() else "fail"
    witnesses = [] if reduced.residual_zero() else [
        _pair_str(e.pair) for e in reduced.residual
    ]
    _emit(args, status, payload, witnesses, json.dumps(payload, separators=(",", ":")))
    return 0 if reduced.residual_zero() else 1


def cmd_extend(alg, window, args) -> int:
    classes = None
    if args.classes:
        doc = _doc_object(_read_json(args.classes), "classes")
        classes = {_doc_int(k, "a class degree"): _doc_scalar(alg.group, v) for k, v in doc.items()}
    ext = central_extend(alg, classes)
    x = parse_element(alg, args.x)
    y = parse_element(alg, args.y)
    out = str(ext.bracket(x, y))
    _emit(args, "pass", out, [], out)
    return 0


def cmd_iso(alg, window, args) -> int:
    g1 = GroupData.from_config(_read_json(args.first))
    g2 = GroupData.from_config(_read_json(args.second))
    a = iso_test(g1, g2)
    if a is None:
        _emit(args, "fail", "none", [], "none")
        return 1
    _emit(args, "pass", str(a), [], str(a))
    return 0


# -- argument wiring ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # the shared flags are accepted before or after the subcommand, so they
    # live on a parent parser with SUPPRESS defaults and are normalized later
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        default=argparse.SUPPRESS,
        help="path to a group/window configuration file",
    )
    common.add_argument(
        "--gamma-height",
        type=int,
        default=argparse.SUPPRESS,
        help="window bound on index height",
    )
    common.add_argument(
        "--loop-bound",
        type=int,
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
    args = _build_parser().parse_args(argv)
    for name, default in (
        ("config", None),
        ("gamma_height", None),
        ("loop_bound", None),
        ("json", False),
    ):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        alg, window = _load_context(args)
        return args.handler(alg, window, args)
    except DomainError as exc:  # the input or window does not fit the command: usage trouble
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FactorError, ShapeError, NotACocycleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LsvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
