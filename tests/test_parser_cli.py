"""Grammar round-trips and the command line surface."""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import loopsv
from loopsv import (
    DomainError,
    FactorError,
    GroupConfigError,
    GroupData,
    InvalidKeyError,
    LsvError,
    NotACocycleError,
    ParseError,
    Scalar,
    ShapeError,
    Window,
    cli,
    parse_element,
    parse_key,
    parse_laurent,
    parse_scalar,
)
from loopsv.cli import cocycle_from_doc, derivation_from_doc, word_from_doc

from support import cli_env, rand_element, run_cli

ONE = Scalar(1)

MALFORMED_ELEMENTS = [
    "", "L(1,0", "L(1,0))", "X(1,0)", "2*", "L(1,0) + + L(2,0)", "L(1,0) L(2,0)", "3/2 M(0,3)", "(2)L(1,0)",
]
# the cases of test_laurent.py::test_parse_errors
MALFORMED_LAURENT = ["t^x", "2*", "", "(2)t", "t^- 1"]


class TestParseElement:
    def test_documented_forms(self, alg):
        x = parse_element(alg, "L(1,-2) + 3/2*M(0,3)")
        expected = alg.monomial(alg.key("L", 1, -2)) + alg.monomial(
            alg.key("M", 0, 3), Scalar.of(Fraction(3, 2))
        )
        assert x == expected

        assert parse_element(alg, "0") == alg.zero()
        assert parse_element(alg, "L(1,0) - L(1,0)") == alg.zero()
        assert parse_element(alg, "-Y(1/2,0)") == alg.monomial(
            alg.key("Y", Fraction(1, 2), 0), Scalar(-1)
        )

    def test_composite_coefficient(self, root2_alg):
        x = parse_element(root2_alg, "(1+sqrt2)*L(0,0)")
        assert x == root2_alg.monomial(root2_alg.key("L", 0, 0), Scalar(1, 1, 2))

    def test_membership_is_a_semantic_error(self, alg):
        with pytest.raises(InvalidKeyError):
            parse_element(alg, "M(1/2,0)")
        with pytest.raises(InvalidKeyError):
            parse_element(alg, "Y(1,0)")

    @pytest.mark.parametrize("bad", MALFORMED_ELEMENTS)
    def test_malformed_text(self, alg, bad):
        with pytest.raises(ParseError):
            parse_element(alg, bad)

    @pytest.mark.parametrize(
        "parse, bad",
        [(parse_element, "L(1,0) + 2*")]
        + [(parse_element, bad) for bad in MALFORMED_ELEMENTS]
        + [(parse_laurent, bad) for bad in MALFORMED_LAURENT]
        + [(parse_key, "-L(1,0)"), (parse_key, "L(1,0)+M(0,0)")],
    )
    def test_error_carries_position_and_expectation(self, alg, parse, bad):
        with pytest.raises(ParseError) as err:
            parse(alg, bad)
        assert isinstance(err.value.position, int)
        assert err.value.expected

    def test_round_trip_default_group(self, alg, window):
        rng = random.Random(61)
        for _ in range(40):
            x = rand_element(alg, rng, window, terms=rng.randrange(1, 4))
            assert parse_element(alg, str(x)) == x

    def test_round_trip_root_field(self, root2_alg):
        rng = random.Random(67)
        w = Window(1, 2)
        for _ in range(25):
            x = rand_element(root2_alg, rng, w, terms=rng.randrange(1, 4))
            assert parse_element(root2_alg, str(x)) == x


# the fuzz alphabet: every character the grammar uses, and the root literal
FUZZ_TEXT = st.lists(st.sampled_from(list("LMYt()+-*/^, 0123456789") + ["sqrt2"]), max_size=24).map("".join)


@settings(max_examples=400, deadline=None)
@given(text=FUZZ_TEXT)
def test_parsers_accept_or_raise_lsv_error(alg, root2_alg, text):
    # whatever the text, each parser returns a value that prints back to
    # itself, or raises one of the package's own errors
    for algebra in (alg, root2_alg):
        for parse in (parse_element, parse_key, parse_laurent):
            try:
                value = parse(algebra, text)
            except LsvError:
                continue
            assert parse(algebra, str(value)) == value, (parse.__name__, text)


class TestParseKey:
    def test_bare_key(self, alg):
        assert parse_key(alg, "Y(-1/2,3)") == alg.key("Y", Fraction(-1, 2), 3)

    def test_rejects_decorated_keys(self, alg):
        with pytest.raises(ParseError):
            parse_key(alg, "2*L(1,0)")


# a space between two digits, beside '/' or inside sqrt<d> would join or split a numeral
@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_element, "1 2*L(1,0)"),
        (parse_element, "L(1 2,0)"),
        (parse_element, "1 /2*L(1,0)"),
        (parse_element, "(1 + sqrt 2)*L(0,0)"),
        (parse_key, "L(1 2,0)"),
        (parse_key, "Y(1/ 2,0)"),
        (parse_key, "L(sq rt2,0)"),
        (parse_laurent, "1 2*t"),
        (parse_laurent, "3/2 0*t^2"),
        (parse_laurent, "(1 - sqrt2 3)*t"),
    ],
)
def test_space_inside_a_numeral_is_refused(root2_alg, parse, text):
    with pytest.raises(ParseError, match="cannot parse scalar"):
        parse(root2_alg, text)


@pytest.mark.parametrize(
    "parse, text, printed",
    [
        (parse_element, "(1 + sqrt2)*L(0,0)", "(1+sqrt2)*L(0,0)"),
        (parse_element, "L(- 1,0)", "L(-1,0)"),
        (parse_element, "2 * sqrt2*L(0,0)", "2*sqrt2*L(0,0)"),
        (parse_element, "( - 1 - 1/2 * sqrt2 )*Y(- 1/2 + sqrt2,1)", "-(1+1/2*sqrt2)*Y(-1/2+sqrt2,1)"),
        (parse_key, "L( - 12 , 0 )", "L(-12,0)"),
        (parse_laurent, "- 12 * t ^ 2 + (3/2 - sqrt2)", "(3/2-sqrt2) - 12*t^2"),
    ],
)
def test_space_around_a_sign_or_star_is_accepted(root2_alg, parse, text, printed):
    assert str(parse(root2_alg, text)) == printed


# Arabic-Indic digits: Unicode decimal digits that no printer writes
@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_element, "L(\u0661,0)"),
        (parse_element, "L(1,\u0661)"),
        (parse_element, "\u0662*L(1,0)"),
        (parse_element, "sqrt\u0662*L(0,0)"),
        (parse_key, "Y(1/\u0662,0)"),
        (parse_laurent, "t^\u0661"),
        (parse_laurent, "\u0661\u0662*t"),
    ],
)
def test_non_ascii_digit_is_refused(root2_alg, parse, text):
    with pytest.raises(ParseError):
        parse(root2_alg, text)


@pytest.mark.parametrize("text", ["\u0661\u0662", "1/\u0662", "sqrt\u0662", "1+sqrt\u0662", "\uff11"])
def test_parse_scalar_refuses_non_ascii_digits(text):
    with pytest.raises(ParseError, match="cannot parse scalar"):
        parse_scalar(text)


@pytest.mark.parametrize("gens, s", [(["1 2", "sqrt2"], "1/2"), (["1", "sqrt 2"], "1/2"), (["1", "sqrt2"], "1 /2")])
def test_config_refuses_a_space_inside_a_numeral(gens, s):
    with pytest.raises(GroupConfigError, match="cannot parse scalar"):
        GroupData.from_config({"field": {"Q_sqrt": 2}, "gamma_generators": gens, "s": s})


def test_config_reads_spaces_around_a_sign_or_star():
    spaced = {"field": {"Q_sqrt": 2}, "gamma_generators": ["1", "- 1 + 2 * sqrt2"], "s": "- 1/2"}
    plain = {"field": {"Q_sqrt": 2}, "gamma_generators": ["1", "-1+2*sqrt2"], "s": "-1/2"}
    assert GroupData.from_config(spaced).describe() == GroupData.from_config(plain).describe()


# -- command line -------------------------------------------------------------------


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    base = tmp_path_factory.mktemp("configs")
    paths = {}

    def write(name, doc):
        p = base / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)

    write("default.json", {"field": "Q", "gamma_generators": ["1"], "s": "1/2"})
    write("scaled.json", {"field": "Q", "gamma_generators": ["2"], "s": "1"})
    write(
        "root2.json",
        {
            "field": {"Q_sqrt": 2},
            "gamma_generators": ["1", "sqrt2"],
            "s": "1/2",
            "window": {"gamma_height": 1, "loop_bound": 1},
        },
    )
    return paths


def test_cli_child_imports_package_under_test():
    # A stale installed loopsv or a relative PYTHONPATH would otherwise let the
    # CLI tests below pass or fail on code other than the package under test.
    proc = subprocess.run(
        [sys.executable, "-c", "import loopsv; print(loopsv.__file__)"],
        capture_output=True,
        text=True,
        env=cli_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(loopsv.__file__).resolve()


class TestCliDocumented:
    def test_bracket(self):
        proc = run_cli("bracket", "L(1,0)", "L(2,3)")
        assert proc.returncode == 0
        assert proc.stdout == "L(3,3)\n"

    def test_check_jacobi(self):
        proc = run_cli("check", "jacobi", "--gamma-height", "3", "--loop-bound", "2")
        assert proc.returncode == 0
        assert proc.stdout == "pass\n"

    def test_cocycle_class(self, tmp_path):
        doc = tmp_path / "cocycle.json"
        doc.write_text(json.dumps({"classes": {"0": "3"}}))
        proc = run_cli("cocycle-class", str(doc), "--gamma-height", "2", "--loop-bound", "2")
        assert proc.returncode == 0
        assert proc.stdout == '{"classes":{"0":"3"},"residual":"0"}\n'


class TestCliBehavior:
    def test_flags_before_subcommand(self):
        proc = run_cli("--gamma-height", "2", "--loop-bound", "1", "check", "jacobi")
        assert proc.returncode == 0
        assert proc.stdout == "pass\n"

    @pytest.mark.parametrize(
        "argv, window, as_json",
        [
            (["check", "jacobi"], Window(3, 3), False),
            (["--gamma-height", "2", "--loop-bound", "1", "--json", "check", "jacobi"], Window(2, 1), True),
            (["check", "jacobi", "--gamma-height", "2", "--loop-bound", "1", "--json"], Window(2, 1), True),
            (["--gamma-height", "2", "check", "jacobi", "--loop-bound", "1"], Window(2, 1), False),
            (["--json", "--loop-bound", "0", "check", "jacobi", "--gamma-height", "1"], Window(1, 0), True),
            # given on both sides, the flag after the subcommand wins
            (["--gamma-height", "1", "--json", "check", "jacobi", "--gamma-height", "2", "--json"], Window(2, 3), True),
            # a flag is an integer with an optional sign and spaces around it
            (["check", "jacobi", "--gamma-height", " +2 ", "--loop-bound", "01"], Window(2, 1), False),
        ],
        ids=["none", "before", "after", "split", "split-json-first", "both-sides", "signed-spaced"],
    )
    def test_shared_flags_in_every_position(self, monkeypatch, capsys, argv, window, as_json):
        seen = {}

        def report(alg, used, args):
            seen.update(window=used, json=args.json)
            return "pass", "p", [], "plain"

        monkeypatch.setattr(cli, "cmd_check", report)
        assert cli.main(argv) == 0
        assert seen == {"window": window, "json": as_json}
        out = '{"status":"pass","payload":"p","witnesses":[]}' if as_json else "plain"
        assert capsys.readouterr() == (out + "\n", "")

    @pytest.mark.parametrize(
        "argv, docs, status",
        [
            (["bracket", "L(1,0)", "L(2,3)"], [], "pass"),
            (["grade", "L(1,0) + Y(3/2,0)"], [], "pass"),
            (["check", "jacobi"], [], "pass"),
            (["check", "derivation"], [{"b": "t"}], "pass"),
            (["check", "automorphism"], [[{"z-flip": -1}, {"inner": "M(1,0)"}]], "pass"),
            (["check", "cocycle"], [{"classes": {"1": "2"}}], "pass"),
            (["check", "cocycle"], [{"table": [["L(1,1)", "L(-1,-1)", "7"]]}], "fail"),
            (["decompose-derivation"], [{"rho": "t", "b": "t^2"}], "pass"),
            (["factor-automorphism"], [[{"loop-scale": "2"}, {"scale": "-1"}]], "pass"),
            (["cocycle-class"], [{"classes": {"0": "3"}}], "pass"),
            (["cocycle-class"], [{"table": [["L(1,0)", "M(-1,0)", "1"]]}], "fail"),
            (["extend", "L(2,1)", "L(-2,-1)"], [], "pass"),
            (["iso"], [{"gamma_generators": ["1"], "s": "1/2"}, {"gamma_generators": ["2"], "s": "1"}], "pass"),
            (
                ["iso"],
                [{"gamma_generators": ["1"], "s": "1/2"}, {"field": {"Q_sqrt": 2}, "gamma_generators": ["1", "sqrt2"], "s": "1/2"}],
                "fail",
            ),
        ],
        ids=[
            "bracket", "grade", "jacobi", "derivation", "automorphism", "cocycle", "cocycle-fail", "decompose", "factor",
            "cocycle-class", "cocycle-class-fail", "extend", "iso", "iso-none",
        ],
    )
    def test_exit_code_follows_the_status(self, tmp_path, argv, docs, status):
        # 0 exactly when the report says pass, 1 exactly when it says fail, plain or --json
        for i, doc in enumerate(docs):
            path = tmp_path / f"doc{i}.json"
            path.write_text(json.dumps(doc))
            argv = [*argv, str(path)]
        code = {"pass": 0, "fail": 1}[status]
        report = run_cli(*argv, "--gamma-height", "2", "--loop-bound", "1", "--json")
        assert (report.returncode, report.stderr) == (code, "")
        assert json.loads(report.stdout)["status"] == status
        plain = run_cli(*argv, "--gamma-height", "2", "--loop-bound", "1")
        assert (plain.returncode, plain.stderr) == (code, "")
        assert plain.stdout.strip() and not plain.stdout.startswith('{"status"')

    def test_grade(self):
        proc = run_cli("grade", "L(1,0) + M(1,2) + Y(3/2,0)")
        assert proc.returncode == 0
        assert proc.stdout == "1: L(1,0) + M(1,2)\n3/2: Y(3/2,0)\n"

    def test_grade_zero(self):
        proc = run_cli("grade", "0")
        assert proc.returncode == 0
        assert proc.stdout == "0\n"

    def test_json_report_shape(self):
        proc = run_cli("bracket", "L(1,0)", "L(2,3)", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report == {"status": "pass", "payload": "L(3,3)", "witnesses": []}

    def test_extend(self):
        proc = run_cli("extend", "L(2,1)", "L(-2,-1)")
        assert proc.returncode == 0
        assert proc.stdout == "-4*L(0,0) + 1/2*C(0)\n"

    def test_extend_weighted(self, tmp_path):
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps({"0": "3"}))
        proc = run_cli("extend", "L(2,1)", "L(-2,-1)", "--classes", str(classes))
        assert proc.returncode == 0
        assert proc.stdout == "-4*L(0,0) + 3/2*C(0)\n"

    def test_decompose_derivation(self, tmp_path):
        doc = tmp_path / "deriv.json"
        doc.write_text(json.dumps({"rho": "t", "b": "t^2"}))
        proc = run_cli(
            "decompose-derivation", str(doc), "--gamma-height", "2", "--loop-bound", "2"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload == {
            "rho": "t",
            "f": ["0"],
            "g": {"affine": ["0", "0"]},
            "b": "t^2",
            "inner": "0",
            "residual": "0",
        }

    def test_decompose_recovers_inner(self, tmp_path):
        doc = tmp_path / "deriv.json"
        doc.write_text(json.dumps({"inner": "M(1,0) + Y(1/2,2)"}))
        proc = run_cli(
            "decompose-derivation", str(doc), "--gamma-height", "2", "--loop-bound", "2"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["inner"] == "M(1,0) + Y(1/2,2)"
        assert payload["residual"] == "0"

    def test_decompose_reports_a_weight_zero_inner_as_f(self, tmp_path):
        # ad L(0,0) scales every key by its weight: D_f with f(gamma) = gamma, so f = 1/2 on the T-basis element 1/2
        doc = tmp_path / "deriv.json"
        doc.write_text(json.dumps({"inner": "L(0,0)"}))
        proc = run_cli("decompose-derivation", str(doc), "--gamma-height", "1", "--loop-bound", "1")
        assert proc.returncode == 0
        assert proc.stdout == '{"rho":"0","f":["1/2"],"g":{"affine":["0","0"]},"b":"0","inner":"0","residual":"0"}\n'

    def test_decompose_at_loop_bound_zero_reads_rho_as_zero(self, tmp_path):
        # D_rho kills every loop-0 key, so no window key at loop bound 0 sees rho
        doc = tmp_path / "deriv.json"
        doc.write_text(json.dumps({"b": "t"}))
        proc = run_cli("decompose-derivation", str(doc), "--gamma-height", "1", "--loop-bound", "0")
        assert proc.returncode == 0
        assert proc.stdout == '{"rho":"0","f":["0"],"g":{"affine":["0","0"]},"b":"t","inner":"0","residual":"0"}\n'

    def test_factor_automorphism(self, tmp_path):
        doc = tmp_path / "word.json"
        doc.write_text(
            json.dumps(
                [
                    {"m-shear": {"diagonals": {"1": ["0", "1"]}}},
                    {"loop-scale": "2"},
                    {"scale": "-1"},
                ]
            )
        )
        proc = run_cli("factor-automorphism", str(doc), "--gamma-height", "2", "--loop-bound", "2")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["a"] == "-1"
        assert payload["b"] == "2"
        assert payload["e"] == {"diagonals": {"1": ["0", "1"]}}
        assert payload["inner"] == []
        assert payload["residual"] == "0"

    def test_check_derivation_file(self, tmp_path):
        doc = tmp_path / "deriv.json"
        doc.write_text(json.dumps({"f": ["2*t"], "g": {"affine": ["t", "0"]}}))
        proc = run_cli("check", "derivation", str(doc), "--gamma-height", "2", "--loop-bound", "1")
        assert proc.returncode == 0
        assert proc.stdout == "pass\n"

    @pytest.mark.parametrize(
        "flags, out", [((), "pass\n"), (("--json",), '{"status":"pass","payload":{"pairs":903},"witnesses":[]}\n')]
    )
    def test_g_table_is_checked_like_its_affine_document(self, tmp_path, flags, out):
        # the Leibniz sweep reads g at -3 and 3, past the table's last entries
        table = {"g": {"table": {"-2": "-2*t", "-1": "-t", "0": "0", "1": "t", "2": "2*t"}}}
        for name, doc in (("table", table), ("affine", {"g": {"affine": ["t", "0"]}})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            proc = run_cli("check", "derivation", str(path), "--gamma-height", "2", "--loop-bound", "1", *flags)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, ""), name

    def test_shear_table_is_checked_and_factored_like_its_diagonals(self, tmp_path):
        # GAffine(0, t) written at loop 0 only; the sweep reads it at every other loop index
        table = [{"m-shear": {"table": [["0", 0, 1, "1"], ["1", 0, 1, "1"], ["2", 0, 1, "1"]]}}]
        outs = []
        for name, doc in (("table", table), ("diagonals", [{"m-shear": {"diagonals": {"1": ["0", "1"]}}}])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            window = ("--gamma-height", "3", "--loop-bound", "2")
            proc = run_cli("check", "automorphism", str(path), *window)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "pass\n", ""), name
            proc = run_cli("factor-automorphism", str(path), *window)
            assert proc.returncode == 0, name
            assert json.loads(proc.stdout)["e"] == {"diagonals": {"1": ["0", "1"]}}
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_check_automorphism_file(self, tmp_path):
        doc = tmp_path / "word.json"
        doc.write_text(json.dumps([{"z-flip": -1}, {"inner": "M(1,0)"}]))
        proc = run_cli("check", "automorphism", str(doc), "--gamma-height", "2", "--loop-bound", "1")
        assert proc.returncode == 0
        assert proc.stdout == "pass\n"

    def test_check_cocycle_file(self, tmp_path):
        doc = tmp_path / "cocycle.json"
        doc.write_text(json.dumps({"classes": {"1": "2"}, "f": {"L(0,0)": "1"}}))
        proc = run_cli("check", "cocycle", str(doc), "--gamma-height", "2", "--loop-bound", "1")
        assert proc.returncode == 0
        assert proc.stdout == "pass\n"

    def test_check_reports_pairs_compared(self, tmp_path):
        # a sweep that finds fewer witnesses than the limit compares every pair; one that
        # stops at the limit is test_automorphisms.py::TestShearData::test_pair_sweep_stops_at_its_limit
        doc = tmp_path / "deriv.json"
        doc.write_text(json.dumps({"b": "t"}))
        proc = run_cli("check", "derivation", str(doc), "--gamma-height", "2", "--loop-bound", "1", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payload"] == {"pairs": 903}

    def test_config_env_variable(self, configs):
        proc = run_cli("grade", "L(sqrt2,0)", env_extra={"LSV_CONFIG": configs["root2.json"]})
        assert proc.returncode == 0
        assert proc.stdout == "sqrt2: L(sqrt2,0)\n"

    def test_config_flag_beats_env(self, configs):
        proc = run_cli(
            "--config",
            configs["root2.json"],
            "grade",
            "L(sqrt2,0)",
            env_extra={"LSV_CONFIG": "/nonexistent/broken.json"},
        )
        assert proc.returncode == 0

    def test_window_from_config_object(self, configs):
        proc = run_cli("check", "jacobi", "--json", "--config", configs["root2.json"])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        from loopsv import GroupData, LoopAlgebra

        alg = LoopAlgebra(GroupData.from_config(json.loads(Path(configs["root2.json"]).read_text())))
        n = len(alg.window_keys(Window(1, 1)))
        assert report["payload"]["triples"] == n * (n + 1) * (n + 2) // 6

    def test_explicit_zero_loop_bound_flag(self):
        proc = run_cli("check", "jacobi", "--gamma-height", "1", "--loop-bound", "0", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payload"] == {"triples": 120}  # 8 keys

    def test_explicit_zero_loop_bound_in_config(self, tmp_path):
        config = tmp_path / "zero.json"
        config.write_text(
            json.dumps({"gamma_generators": ["1"], "s": "1/2", "window": {"gamma_height": 1, "loop_bound": 0}})
        )
        proc = run_cli("check", "jacobi", "--json", "--config", str(config))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payload"] == {"triples": 120}

    def test_iso_pass(self, configs):
        proc = run_cli("iso", configs["default.json"], configs["scaled.json"])
        assert proc.returncode == 0
        assert proc.stdout == "1/2\n"

    @pytest.mark.parametrize(
        "x, gens, s, inverse",
        [
            ("99+70*sqrt2", ["99+70*sqrt2", "1400+990*sqrt2"], "99/2+35*sqrt2", "99-70*sqrt2"),
            ("17+12*sqrt2", ["17+12*sqrt2", "240+170*sqrt2"], "17/2+6*sqrt2", "17-12*sqrt2"),
        ],
    )
    def test_iso_finds_a_rescaling_in_both_orders(self, tmp_path, x, gens, s, inverse):
        # g2 = x * g1 with g1 = (Z + 10 sqrt2 Z, 1/2): x^-1 carries g2 onto g1, and x carries g1 onto g2
        g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
        g1.write_text(json.dumps({"field": {"Q_sqrt": 2}, "gamma_generators": ["1", "10*sqrt2"], "s": "1/2"}))
        g2.write_text(json.dumps({"field": {"Q_sqrt": 2}, "gamma_generators": gens, "s": s}))
        for first, second, want in ((g1, g2, inverse), (g2, g1, x)):
            proc = run_cli("iso", str(first), str(second))
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, want + "\n", "")

    def test_iso_none(self, configs):
        proc = run_cli("iso", configs["default.json"], configs["root2.json"])
        assert proc.returncode == 1
        assert proc.stdout == "none\n"


def assert_usage_error(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


class TestCliFailures:
    def test_zero_gamma_height_is_usage(self):
        assert_usage_error(run_cli("check", "jacobi", "--gamma-height", "0"))

    def test_negative_loop_bound_names_both_bounds(self):
        proc = run_cli("check", "jacobi", "--loop-bound", "-1")
        assert_usage_error(proc)
        assert proc.stderr == "error: bad window bounds: gamma_height must be >= 1 and loop_bound >= 0\n"

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["bracket", "L(1/0,0)", "L(1,0)"], None),
            (["check", "automorphism"], [{"char-twist": "3"}]),
            (["check", "automorphism"], [{"loop-shift": 1}]),
            (["cocycle-class"], {"classes": {"x": "3"}}),
            (["decompose-derivation"], {"g": {"affine": ["t"]}}),
            (["check", "automorphism"], [{"scale": True}]),
            (["cocycle-class"], {"classes": {"0": True}}),
            (["bracket", "L(1," + "9" * 4400 + ")", "L(1,0)"], None),
            (["bracket", "sqrt100000000000000000039*L(0,0)", "L(1,0)"], None),
            (["bracket", "sqrt" + "7" * 4400 + "*L(0,0)", "L(1,0)"], None),
            (["bracket", "9" * 3000 + "*L(1,0)", "9" * 3000 + "*L(2,0)"], None),
            (["bracket", "L(1," + "9" * 4300 + ")", "L(2," + "9" * 4300 + ")"], None),
            # documents the library refuses while they are loaded: invalid input, not a failed check
            (["check", "automorphism"], [{"z-flip": 3}]),
            (["check", "automorphism"], [{"loop-shift": [1, 2]}]),
            (["check", "automorphism"], [{"char-twist": {"chi": ["0"]}}]),
            (["check", "automorphism"], [{"loop-scale": "0"}]),
            (["check", "automorphism"], [{"inner": "L(1,0)"}]),
            (["check", "automorphism"], [{"scale": "2"}]),
            (["check", "automorphism"], [{"m-shear": {"table": [["1", 0, 0, "1"], ["2", 0, 0, "2"], ["3", 0, 0, "1"]]}}]),
            (["factor-automorphism"], [{"m-shear": {"table": [["1", 0, 0, "1"], ["2", 0, 0, "2"], ["3", 0, 0, "1"]]}}]),
            (["check", "derivation"], {"g": {"table": {"1": "t", "2": "3*t", "3": "t"}}}),
            (["decompose-derivation"], {"g": {"table": {"1": "t", "2": "3*t", "3": "t"}}}),
            (["check", "cocycle"], {"table": [["L(1,0)", "L(1,0)", "1"]]}),
            (["cocycle-class"], {"table": [["L(1,0)", "L(1,0)", "1"]]}),
            (["check", "cocycle"], {"table": [["L(1,0)", "L(-1,0)", "1"], ["L(-1,0)", "L(1,0)", "1"]]}),
            (["cocycle-class"], {"table": [["L(1,0)", "L(-1,0)", "1"], ["L(-1,0)", "L(1,0)", "1"]]}),
            # inputs the window is too small for, or data undefined where the command looks
            (["cocycle-class"], {"classes": {"0": "1"}}),
            (["decompose-derivation"], {"f": ["0", "t"]}),
            (["check", "derivation"], {"g": {"table": {"1": "t"}}}),
            (["decompose-derivation"], {"g": {"table": {"1": "t"}}}),
            # table indices outside Gamma name no key, so they are refused rather than dropped
            (["check", "automorphism"], [{"m-shear": {"table": [["1/3", 0, 0, "5"]]}}]),
            (["factor-automorphism"], [{"m-shear": {"table": [["1/3", 0, 0, "5"]]}}]),
            (["check", "derivation"], {"g": {"table": {"-2": "-2*t", "-1": "-t", "0": "0", "1": "t", "2": "2*t", "1/2": "7"}}}),
            (["decompose-derivation"], {"g": {"table": {"-2": "-2*t", "-1": "-t", "0": "0", "1": "t", "2": "2*t", "1/2": "7"}}}),
            # a config generator that is not a string is refused before it is parsed
            (["grade", "L(1,0)", "--config"], {"gamma_generators": [1], "s": "1/2"}),
            # a space inside a numeral is refused, not read as 12
            (["bracket", "1 2*L(1,0)", "L(0,0)"], None),
            (["grade", "L(1,0)", "--config"], {"field": {"Q_sqrt": 2}, "gamma_generators": ["1 2", "sqrt2"], "s": "1/2"}),
            # a document integer is ASCII digits: int() alone reads 1_0 as 10 and other scripts' digits
            (["factor-automorphism"], [{"loop-shift": ["1_0"]}]),
            (["factor-automorphism"], [{"loop-shift": ["\u0661"]}]),
            (["cocycle-class"], {"classes": {"1_0": "1"}}),
        ],
    )
    def test_malformed_input_is_usage(self, tmp_path, argv, doc):
        if doc is not None:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            argv = [*argv, str(path)]
        assert_usage_error(run_cli(*argv, "--gamma-height", "1", "--loop-bound", "0"))

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["bracket", "L(1/2,0)", "L(1,0)"], None),
            (["check", "jacobi", "--gamma-height", "0"], None),
            (["check", "automorphism"], [{"z-flip": 3}]),
            (["cocycle-class", "--gamma-height", "1", "--loop-bound", "0"], {"classes": {"0": "1"}}),
            (["iso", "/nonexistent/g1.json"], {"gamma_generators": ["1"], "s": "1/2"}),
            (["grade", "L(1,0)", "--loop-bound", "0_1"], None),
            (["grade", "L(1,0)", "--gamma-height", "\u0661"], None),
            (["grade", "L(1,0)", "--config"], {"gamma_generators": ["1"], "s": "1/2", "window": {"loop_bound": "0_1"}}),
        ],
        ids=["key", "window", "document", "domain", "missing-file", "flag-underscore", "flag-digit", "config-window"],
    )
    def test_error_is_one_line_plain_or_json(self, tmp_path, argv, doc):
        if doc is not None:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            argv = [*argv, str(path)]
        for flags in ((), ("--json",)):
            assert_usage_error(run_cli(*argv, *flags))

    @pytest.mark.parametrize(
        "error, code",
        [
            (FactorError("shear", "not affine"), 1),
            (ShapeError("not a derivation"), 1),
            (NotACocycleError("not alternating"), 1),
            (DomainError("no pivot"), 2),
            (GroupConfigError("bad config"), 2),
            (ParseError("bad text"), 2),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
    )
    def test_main_maps_each_error_to_its_exit_code(self, monkeypatch, capsys, error, code):
        def fail(alg, window, args):
            raise error

        monkeypatch.setattr(cli, "cmd_bracket", fail)
        for flags in ([], ["--json"]):
            assert cli.main(["bracket", "L(1,0)", "L(1,0)", *flags]) == code
            assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["grade", "L(1,0)", "--config"], '{"field": {"Q_sqrt": ' + "7" * 4401 + '}, "gamma_generators": ["1"], "s": "1/2"}'),
            (["cocycle-class"], '{"classes": {"0": ' + "7" * 4401 + "}}"),
        ],
        ids=["config", "cocycle"],
    )
    def test_integer_past_the_digit_limit_in_json_is_usage(self, tmp_path, argv, text):
        # written by hand: json.dumps refuses such an integer itself
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert_usage_error(run_cli(*argv, str(path), "--gamma-height", "1", "--loop-bound", "0"))

    def test_check_jacobi_refuses_a_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("{}")
        assert_usage_error(run_cli("check", "jacobi", str(path), "--gamma-height", "1", "--loop-bound", "0"))

    @pytest.mark.parametrize(
        "bounds", [{"gamma_height": 1.9, "loop_bound": 0.5}, {"gamma_height": True, "loop_bound": 0}]
    )
    def test_non_integer_window_in_config_is_usage(self, tmp_path, bounds):
        config = tmp_path / "window.json"
        config.write_text(json.dumps({"gamma_generators": ["1"], "s": "1/2", "window": bounds}))
        assert_usage_error(run_cli("check", "jacobi", "--json", "--config", str(config)))
        # flags override the config, so its window values are never read
        proc = run_cli("check", "jacobi", "--config", str(config), "--gamma-height", "1", "--loop-bound", "0")
        assert proc.returncode == 0

    def test_large_field_radicand_in_config_is_usage(self, tmp_path):
        # refused before the trial-division squarefree test, which would run for hours
        config = tmp_path / "big.json"
        config.write_text(json.dumps({"field": {"Q_sqrt": 100000000000000000039}, "gamma_generators": ["1"], "s": "1/2"}))
        assert_usage_error(run_cli("grade", "L(1,0)", "--config", str(config)))

    def test_semantic_key_error_is_usage(self):
        proc = run_cli("bracket", "L(1/2,0)", "L(1,0)")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""

    def test_malformed_element_is_usage(self):
        proc = run_cli("bracket", "L(1,", "L(1,0)")
        assert proc.returncode == 2

    def test_missing_config_file(self):
        proc = run_cli("--config", "/nonexistent/nowhere.json", "bracket", "L(1,0)", "L(1,0)")
        assert proc.returncode == 2

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("--config", str(bad), "bracket", "L(1,0)", "L(1,0)")
        assert proc.returncode == 2

    def test_unknown_generator_tag(self, tmp_path):
        doc = tmp_path / "word.json"
        doc.write_text(json.dumps([{"twirl": "1"}]))
        proc = run_cli("factor-automorphism", str(doc), "--gamma-height", "2", "--loop-bound", "1")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv, doc, error",
        [
            (
                ["factor-automorphism"],
                [{"m-shear": {"table": [["0", 0, 0, "0"], ["1", 0, 0, "1"], ["1", 1, 1, "2"]]}}],
                "shear value at offset 0 depends on the loop index",
            ),
            (
                ["check", "automorphism"],
                [{"m-shear": {"table": [["0", 0, 1, "0"], ["1", 0, 1, "1"], ["2", 0, 1, "1"]]}}],
                "shear table is not affine at 2",
            ),
            (
                ["factor-automorphism"],
                [{"m-shear": {"table": [["1", 0, 0, "1"]]}}],
                "shear table needs values at 0 and at a nonzero index",
            ),
            (
                ["check", "automorphism"],
                [{"m-shear": {"table": [["0", 0, 1, "0"], ["1", 0, 1, "1"], ["1", 0, 1, "2"]]}}],
                "duplicate shear table entry for 1, 0, 1",
            ),
            (
                ["check", "automorphism"],
                [{"m-shear": {"diagonals": {"1": ["0", "1"], "+1": ["0", "2"]}}}],
                "duplicate shear diagonals entry for 1",
            ),
            (["check", "derivation"], {"g": {"table": {"0": "0", "1": "t", "2/2": "3*t"}}}, "duplicate g.table entry for 1"),
            (["check", "cocycle"], {"f": {"L(1,0)": "1", "L(1, 0)": "2"}}, "duplicate f entry for L(1,0)"),
            (["cocycle-class"], {"classes": {"1": "2", "01": "3"}}, "duplicate classes entry for 1"),
            (["extend", "L(1,0)", "L(-1,0)", "--classes"], {"1": "2", "01": "3"}, "duplicate classes entry for 1"),
        ],
        ids=[
            "loop-dependent", "off-the-line", "no-line-at-0", "table-row", "diagonals", "g-table", "f", "classes",
            "classes-flag",
        ],
    )
    def test_refused_document_names_its_index(self, tmp_path, argv, doc, error):
        # a shear table that loads is affine data, so no document reaches factor's shear
        # refusal; tests/test_automorphisms.py pins that step with LoopDependentShear
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(*argv, str(path), "--gamma-height", "2", "--loop-bound", "1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {error}\n")

    def test_key_written_twice_in_one_object_is_refused(self, tmp_path):
        # json.dumps cannot write such an object
        path = tmp_path / "doc.json"
        path.write_text('{"classes": {"1": "2", "1": "3"}}')
        proc = run_cli("cocycle-class", str(path), "--gamma-height", "2", "--loop-bound", "1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: duplicate JSON object entry for 1\n")

    def test_lm_diagonal_is_diagnosed(self, tmp_path):
        doc = tmp_path / "cocycle.json"
        doc.write_text(json.dumps({"table": [["L(1,0)", "M(-1,0)", "1"]]}))
        proc = run_cli("cocycle-class", str(doc), "--json", "--gamma-height", "2", "--loop-bound", "1")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert len(report["witnesses"]) == 17
        diagonal = [d for d in report["payload"]["diagnostics"] if d.startswith("L-M diagonal at ")]
        assert len(diagonal) == 3

    def test_corrupted_cocycle_table_fails_check(self, alg, tmp_path, small_window):
        from loopsv import make_phi_k

        phi0 = make_phi_k(alg, 0)
        keys = alg.window_keys(small_window)
        table = []
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1 :]:
                v = phi0.value(k1, k2)
                if v:
                    table.append([str(k1), str(k2), str(v)])
        table.append(["L(1,1)", "L(-1,-1)", "7"])
        doc = tmp_path / "cocycle.json"
        doc.write_text(json.dumps({"table": table}))
        proc = run_cli("check", "cocycle", str(doc), "--gamma-height", "2", "--loop-bound", "2")
        assert proc.returncode == 1
        assert proc.stdout.startswith("fail\n")

    def test_truncated_table_reduction_exits_nonzero(self, alg, tmp_path, small_window):
        target = alg.key("L", 0, 4)
        keys = alg.window_keys(small_window)
        table = []
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1 :]:
                t = alg.structure(k1, k2)
                if t is not None and t[0] == target:
                    table.append([str(k1), str(k2), str(t[1])])
        doc = tmp_path / "cocycle.json"
        doc.write_text(json.dumps({"table": table}))
        proc = run_cli("cocycle-class", str(doc), "--gamma-height", "2", "--loop-bound", "2")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["residual"] != "0"
        assert all(entry["kind"] == "boundary" for entry in payload["residual"])


# words the loaders look for, so fuzzed documents reach past the first check
LOADER_WORDS = [
    "rho", "f", "g", "b", "inner", "affine", "table", "classes", "scale", "loop-shift", "char-twist",
    "chi", "r", "z-flip", "loop-scale", "m-shear", "diagonals", "0", "1", "-1", "2", "1/2", "3/2", "t",
    "t^-1", "sqrt2", "L(1,0)", "L(-1,0)", "M(0,1)", "Y(1/2,0)", "M(1,0) - Y(1/2,1)",
]
JSON_TEXT = st.sampled_from(LOADER_WORDS) | st.text(max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(doc=JSON_VALUES, loader=st.sampled_from([word_from_doc, derivation_from_doc, cocycle_from_doc]))
def test_loaders_load_or_raise_lsv_error(alg, doc, loader):
    try:
        loader(alg, doc)
    except LsvError:
        pass
