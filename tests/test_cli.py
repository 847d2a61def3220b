import contextlib
import functools
import io
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import domkit
from domkit.cli import AXIOM_LABELS, eval_expr, format_value, main, parse_carrier, parse_expr
from domkit.doms import sign_of
from domkit.tables import parse_table, serialize_table, validate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_examples(capsys):
    code, out, _ = run(capsys, "eval", "--carrier", "cuts(Zloc(2))",
                       "fill(1/2) + fill(1/2)")
    assert code == 0 and out.strip() == "cut(1)-"
    code, out, _ = run(capsys, "eval", "--carrier", "cuts(Z)", "cut(0)+ +R cut(0)+")
    assert code == 0 and out.strip() == "cut(1)+"
    code, out, _ = run(capsys, "eval", "--carrier", "cuts(lex(Q,Q))",
                       "width(edge(1)+0)")
    assert code == 0 and out.strip() == "edge(1)+0"
    # the one element of the trivial group
    assert run(capsys, "eval", "--carrier", "triv", "()") == (0, "()\n", "")


def test_eval_operators_and_unaries(capsys):
    code, out, _ = run(capsys, "eval", "--carrier", "cuts(lex(Q,Q))",
                       "edge(1)+0 - edge(1)+0")
    assert code == 0 and out.strip() == "edge(1)+0"
    code, out, _ = run(capsys, "eval", "--carrier", "cuts(lex(Q,Q))",
                       "edge(1)+0 -L edge(1)+0")
    assert code == 0 and out.strip() == "edge(1)-0"
    code, out, _ = run(capsys, "eval", "--carrier", "cuts(Q)", "neg(cut(2)+)")
    assert code == 0 and out.strip() == "cut(-2)-"
    code, out, _ = run(capsys, "eval", "--carrier", "cuts(Q)", "abs(cut(-3)-)")
    assert code == 0 and out.strip() == "cut(3)+"
    code, out, _ = run(capsys, "eval", "--carrier", "cuts(Q,r2)", "sign(fill(r2))")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "eval", "--carrier", "cuts(Q)", "sign(cut(1)+)")
    assert code == 0 and out.strip() == "+1"
    code, out, _ = run(capsys, "eval", "--carrier", "tilde(Q)", "g(2) + cut(3)-")
    assert code == 0 and out.strip() == "cut(5)-"
    code, out, _ = run(capsys, "eval", "--carrier", "Zloc(3)", "1/2 + 1/2")
    assert code == 0 and out.strip() == "1"


def test_eval_round_trip(capsys):
    carrier = "cuts(lex(Q,Q))"
    for expr in ("edge(1)+0 + cut((0,1/2))-", "fill((1,1/2)) - cut((0,0))+",
                 "width(cut((1,2))-)"):
        code, out, _ = run(capsys, "eval", "--carrier", carrier, expr)
        assert code == 0
        code2, out2, _ = run(capsys, "eval", "--carrier", carrier, out.strip())
        assert code2 == 0 and out2 == out


def _nested(depth, inner, head="neg("):
    return head * depth + inner + ")" * depth


def test_eval_nesting_limit(capsys):
    # parentheses nested up to the limit evaluate; one level more is a
    # parse error, found before evaluation recurses
    for carrier, inner, want in (("Q", "1", "1"), ("tilde(Q)", "0", "g(0)")):
        code, out, _ = run(capsys, "eval", "--carrier", carrier, _nested(256, inner))
        assert (code, out) == (0, want + "\n"), carrier
        code, out, err = run(capsys, "eval", "--carrier", carrier, _nested(257, inner))
        assert (code, out) == (2, "") and "nested deeper than 256" in err, carrier
    code, out, _ = run(capsys, "eval", "--carrier", "cuts(Q)", _nested(255, "cut(0)+"))
    assert (code, out) == (0, "cut(0)-\n")


def test_carrier_nesting_limit(capsys):
    # a descriptor with 256 parentheses open at once parses, the one of
    # cuts( or tilde( and that of Zloc( included; one more is a parse error
    for outer, inner in (("{}", "Q"), ("cuts({})", "Q"), ("tilde({},r2)", "Q"),
                         ("{}", "Zloc(2)"), ("cuts({})", "Zloc(3)")):
        opened = 256 - (outer != "{}") - inner.startswith("Zloc(")
        for depth, want in ((opened, 0), (opened + 1, 2)):
            carrier = outer.format(_nested(depth, inner, "lex("))
            code, out, err = run(capsys, "classify", "--carrier", carrier)
            assert code == want, (outer, inner, depth, err)
            assert want == 0 or (out == "" and "nested deeper than 256" in err)


def test_cut_literal_outside_the_carrier_is_a_type_error(capsys):
    # a cut literal that scans but names no cut of the carrier is a type
    # error, as a group literal outside its group is: a wrong coordinate
    # count, a level out of range, a coordinate outside its atom, and any
    # finite cut of the trivial group
    for carrier, expr in (("cuts(Q)", "cut((1,2))+"), ("cuts(Q)", "edge(1)+0"),
                          ("cuts(lex(Z,Q))", "cut((1/2,0))+"), ("tilde(Q)", "cut((1,2))+"),
                          ("cuts(triv)", "cut(0)+"), ("cuts(Q)", "edge(2)+"),
                          ("Q", "(1,2)"), ("lex(Z,Q)", "(1/2,0)")):
        code, out, err = run(capsys, "eval", "--carrier", carrier, expr)
        assert (code, out) == (3, "") and err.startswith("type error: "), (carrier, expr, err)


def test_a_group_carrier_is_named_by_its_descriptor(capsys):
    # a message about a group carrier names it as --carrier reads it
    code, out, err = run(capsys, "eval", "--carrier", "lex(Q,Z)", "cut((0,0))+")
    assert (code, out) == (3, "")
    assert err == "type error: 'cut((0,0))+' is a cut literal, not an element of lex(Q,Z)\n"
    assert parse_carrier("lex(Q,Z)").name == "lex(Q,Z)"


def test_eval_error_codes(capsys):
    code, _, err = run(capsys, "eval", "--carrier", "cuts(Q)", "cut(")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "eval", "--carrier", "cuts(Q)", "3/4 + cut(0)+")
    assert code == 3 and "type error" in err
    code, _, err = run(capsys, "eval", "--carrier", "cuts(Q)", "cut(0)+ +")
    assert code == 2
    code, _, err = run(capsys, "eval", "--carrier", "Z", "1/2")
    assert code == 3
    # the inner part of sign(..) is a plain expression, in which sign(..)
    # is refused: on a cut carrier and on a group alike, and before a
    # literal inside it is read
    for carrier, expr in (("cuts(Q)", "sign(sign(cut(0)+))"), ("Q", "sign(sign(1))"),
                          ("cuts(Q)", "neg(sign(5))"), ("Q", "sign(1) + 1")):
        code, out, err = run(capsys, "eval", "--carrier", carrier, expr)
        assert (code, out) == (2, ""), (carrier, expr)
        assert "may only be the outermost operation" in err
    code, out, err = run(capsys, "eval", "--carrier", "Qr2", "2+r2/3")
    assert (code, out) == (2, "") and "after r2" in err
    # a cut literal on a group carrier is a type error, as a group literal
    # on a cut carrier is
    for carrier, expr in (("Q", "fill(1)"), ("Q", "cut(0)+"), ("Q", "-inf"),
                          ("Z", "1 + +inf"), ("lex(Q,Q)", "edge(1)")):
        code, out, err = run(capsys, "eval", "--carrier", carrier, expr)
        assert (code, out) == (3, ""), (carrier, expr)
        assert "type error" in err and "cut literal" in err
    # a group that does not parse is a parse error, inside cuts(..) and
    # tilde(..) as well as bare; Zloc(p) takes a run of ASCII digits
    for carrier in ("Zloc(4)", "cuts(Zloc(4))", "tilde(Zloc(4))", "cuts(lex(Q,))",
                    "Zloc(1_1)", "Zloc(+3)", "Zloc(\u0663)", "cuts(Zloc(+3))"):
        code, out, err = run(capsys, "eval", "--carrier", carrier, "cut(0)+")
        assert (code, out) == (2, ""), carrier
        assert "parse error" in err, carrier
    # and so does the level of edge(k)
    for expr in ("edge(+1)+0", "edge(\u0661)+0", "edge(1_0)+0"):
        code, out, err = run(capsys, "eval", "--carrier", "cuts(lex(Q,Q))", expr)
        assert (code, out) == (2, ""), expr
        assert "is not an integer" in err, expr
    # a cut(..) literal needs its ")" before the side, and edge( its ")"
    for expr in ("cut(5/22-", "cut(0(+", "cut(15-", "edge(1"):
        code, out, err = run(capsys, "eval", "--carrier", "cuts(Q)", expr)
        assert (code, out) == (2, ""), expr
        assert f"parse error: cannot parse cut '{expr}'" in err, expr


def test_readme_examples(capsys):
    # each `dom eval` and `dom classify` line of the README prints what its
    # comment says
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = [line.split("#", 1) for line in readme.read_text().splitlines()
                if line.startswith(("dom eval ", "dom classify "))]
    assert len(examples) == 6
    for command, comment in examples:
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert (code, out, err) == (0, comment.strip() + "\n", ""), command


def test_eval_zero_denominator(capsys):
    # a ZeroDivisionError escaping main would fail the test as a traceback;
    # a literal that does not parse is a parse error, for cuts and group
    # elements alike
    for carrier, expr, expected in (
            ("cuts(Q)", "cut(1/0)+", 2),
            ("cuts(Q,r2)", "fill(1/0r2)", 2),
            ("cuts(Q,r2)", "fill(1+1/0r2)", 2),
            ("Q", "1/0", 2),
            ("Qr2", "1/0r2", 2)):
        code, out, err = run(capsys, "eval", "--carrier", carrier, expr)
        assert (code, out) == (expected, ""), (carrier, expr)
        assert "zero denominator" in err
    code, out, err = run(capsys, "eval", "--carrier", "Q", "abc")
    assert (code, out) == (2, "") and "parse error" in err


def test_eval_cut_outside_anchor_field(capsys):
    # cuts(Q) has rational anchors only: fill(r2) is a type error there
    for carrier, expr in (("cuts(Q)", "fill(r2)"), ("cuts(Q)", "cut(1+r2)-"),
                          ("cuts(lex(Q,Q))", "edge(1)fill(r2)"),
                          ("tilde(Q)", "g(1) + fill(r2)")):
        code, out, err = run(capsys, "eval", "--carrier", carrier, expr)
        assert (code, out) == (3, ""), (carrier, expr)
        assert "type error" in err
    code, out, _ = run(capsys, "eval", "--carrier", "cuts(Q,r2)", "fill(r2)")
    assert code == 0 and out.strip() == "fill(r2)"
    code, out, _ = run(capsys, "eval", "--carrier", "tilde(Q,r2)", "g(1) + fill(r2)")
    assert code == 0 and out.strip() == "fill(1+r2)"


def test_malformed_tokens_are_parse_errors_on_every_carrier(capsys):
    # a token that is neither a cut literal nor a group literal does not
    # parse, whatever the carrier; a literal of the other kind is a type error
    for carrier in ("cuts(Q)", "cuts(Z)", "tilde(Q)", "Q"):
        # scalar literals are [-]digits or [-]digits/digits in ASCII digits:
        # Fraction's own exponents, decimals, signs and underscores are not
        for expr in ("foo", "1/0", "(cut(1)+", "foo + cut(0)+", "1e5000", "1e300000000",
                     "1_0", "+1", "\u0663", "1.5", ".5", "1e3"):
            code, out, err = run(capsys, "eval", "--carrier", carrier, expr)
            assert (code, out) == (2, "") and err.startswith("parse error: "), (carrier, expr)
    code, out, err = run(capsys, "eval", "--carrier", "cuts(Q)", "1/2")
    assert (code, out) == (3, "") and err.startswith("type error: ")


def test_check_table_output(capsys, tmp_path):
    bad = tmp_path / "bad3.tbl"
    bad.write_text("3\n0 0 2\n0 1 2\n2 2 2\n")
    code, out, _ = run(capsys, "check-table", str(bad))
    assert code == 1
    lines = out.strip().splitlines()
    assert "MC(b): FAIL witness x=0" in lines
    assert "MC(a): PASS" in lines and "MA: PASS" in lines and "MB: PASS" in lines
    assert "associativity: PASS" in lines
    good = tmp_path / "t5.tbl"
    good.write_text("5\n0 0 0 0 0\n0 1 1 1 4\n0 1 2 3 4\n0 1 3 3 4\n0 4 4 4 4\n")
    code, out, _ = run(capsys, "check-table", str(good))
    assert code == 0 and "FAIL" not in out
    missing = tmp_path / "nope.tbl"
    code, _, err = run(capsys, "check-table", str(missing))
    assert code == 2
    # numbers int() reads but a table file does not hold
    for text in ("+1\n0\n", "1_0\n", "2\n0 0\n0 \u0661\n"):
        odd = tmp_path / "odd.tbl"
        odd.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check-table", str(odd))
        assert (code, out) == (2, "") and "not an integer" in err, text


def test_tables_of_more_than_256_elements_exit_4(capsys, tmp_path):
    # a table is checked on a byte layout: 257 elements parse, but are
    # refused as a precondition, and the search refuses them whatever the bound
    big = tmp_path / "big.tbl"
    big.write_text("257\n" + ("0 " * 257 + "\n") * 257)
    code, out, err = run(capsys, "check-table", str(big))
    assert (code, out) == (4, "") and err.startswith("error: ") and "exceeds 256" in err
    for argv in (["enumerate", "257", "--bound", "1000"], ["enumerate", "300"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "") and "exceeds 256" in err, argv


def test_construct_numbers_are_ascii_digit_runs(capsys, tmp_path):
    for argv in (["trivial", "+3"], ["trivial", "1_0"], ["cuts", "trivial:\u0663"],
                 ["cuts", "trivial:+3"], ["split", "trivial:5", "+3"], ["embed", "\u0664"]):
        code, out, err = run(capsys, "construct", *argv)
        assert (code, out) == (2, "") and err.startswith("parse error: "), argv
    bad = tmp_path / "bad.tbl"
    bad.write_text("2\n0 0\n0 +1\n", encoding="utf-8")
    code, out, err = run(capsys, "construct", "dual", str(bad))
    assert (code, out) == (2, "") and "not an integer" in err
    # a well-formed size below 1 is a precondition, not a parse error
    code, out, err = run(capsys, "construct", "trivial", "0")
    assert (code, out) == (4, "") and "at least one" in err


def test_construct_refuses_chains_past_the_table_limit(capsys):
    # a chain is a table, so past 256 elements it is refused before it is
    # built: no OverflowError or MemoryError traceback on a huge count
    huge = "100000000000000000000000"
    for argv in (["trivial", huge], ["dual", f"trivial:{huge}"], ["embed", huge],
                 ["trivial", "257"], ["embed", "257"], ["trivial", "30000"],
                 ["embed", "200000"], ["mu", "trivial:3", "trivial:300"]):
        code, out, err = run(capsys, "construct", *argv)
        assert (code, out) == (4, "") and err.startswith("error: ") and "exceeds 256" in err, argv
    code, out, _ = run(capsys, "construct", "trivial", "256")
    assert code == 0 and out.startswith("256\n") and len(out.splitlines()) == 257
    code, out, _ = run(capsys, "construct", "embed", "256")
    assert code == 0 and out.startswith("target: cuts(") and len(out.splitlines()) == 257


def test_construct_refuses_a_result_past_the_table_limit(capsys):
    # infinity adds two elements to its argument: the 257-element result
    # is refused, not printed as a table that check-table then refuses
    code, out, err = run(capsys, "construct", "infinity", "trivial:255")
    assert (code, out) == (4, "") and err == \
        "error: table size 257 exceeds 256: entries are held in bytes\n"


def test_constructions_refuse_a_table_without_neutral(capsys, tmp_path):
    # the table is refused when it is loaded, whichever argument it is
    flat = tmp_path / "flat.tbl"
    flat.write_text("2\n0 0\n0 0\n")
    f = str(flat)
    for argv in (["dual", f], ["infinity", f], ["cuts", f], ["quot-equiv", f],
                 ["collapse", f], ["mu", f, "trivial:3"], ["mu", "trivial:3", f],
                 ["split", f, "1"]):
        code, out, err = run(capsys, "construct", *argv)
        assert (code, out, err) == (4, "", "error: table has no neutral element\n"), argv


def test_a_one_sided_neutral_is_no_neutral(capsys, tmp_path):
    # row 0 is the identity, but 1 + 0 = 0: the neutral must be two-sided
    path = tmp_path / "onesided.tbl"
    path.write_text("2\n0 1\n0 0\n")
    assert parse_table(path.read_text()).neutral is None
    code, out, _ = run(capsys, "check-table", str(path))
    assert code == 1 and "monoid: FAIL" in out.splitlines()
    code, out, err = run(capsys, "construct", "dual", str(path))
    assert (code, out, err) == (4, "", "error: table has no neutral element\n")


def test_enumerate_output(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--axioms=dom")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count: 1"
    assert lines[2] == "4"
    assert [l for l in lines[3:7]] == ["0 0 0 0", "0 1 1 3", "0 1 2 3", "0 3 3 3"]
    code, out, _ = run(capsys, "enumerate", "3", "--axioms=MA,MB,MCa")
    assert code == 0 and out.startswith("count: 2")
    code, _, err = run(capsys, "enumerate", "9")
    assert code == 4


def test_enumerate_refuses_sizes_below_one(capsys):
    for n in ("0", "-3"):
        code, out, err = run(capsys, "enumerate", n)
        assert (code, out) == (4, "") and "at least one" in err, n


def test_classify(capsys):
    for carrier, expected in (("cuts(Z)", "second"), ("cuts(Q)", "third"),
                              ("tilde(Z)", "first"), ("Q", "first"),
                              ("cuts(lex(Q,Q))", "third")):
        code, out, _ = run(capsys, "classify", "--carrier", carrier)
        assert code == 0 and out.strip() == f"type: {expected}"


def test_construct(capsys):
    code, out, _ = run(capsys, "construct", "trivial", "3")
    assert code == 0 and out == "3\n0 0 0\n0 1 2\n0 2 2\n"
    code, out, _ = run(capsys, "construct", "cuts", "trivial:3")
    assert code == 0 and out == "4\n0 0 0 0\n0 1 1 3\n0 1 2 3\n0 3 3 3\n"
    code, out, _ = run(capsys, "construct", "infinity", "trivial:2")
    assert code == 0 and out == "4\n0 0 0 0\n0 1 1 3\n0 1 2 3\n0 3 3 3\n"
    code, out, _ = run(capsys, "construct", "quot-equiv", "trivial:4")
    assert code == 0 and out.splitlines()[0] == "3"
    code, out, _ = run(capsys, "construct", "collapse", "trivial:4")
    assert code == 0 and out.splitlines()[0] == "4"
    code, out, _ = run(capsys, "construct", "split", "trivial:5", "3")
    assert code == 0 and out.splitlines()[0] == "5"
    code, out, _ = run(capsys, "construct", "embed", "4")
    assert code == 0 and "target: cuts(Q)" in out and "1 -> cut(0)-" in out
    code, out, _ = run(capsys, "construct", "dual", "trivial:4")
    assert code == 0 and out.splitlines()[0] == "4"
    code, _, err = run(capsys, "construct", "nonsense")
    assert code == 4


def test_construct_reports_bad_arguments(capsys):
    # a count that names no element, or the wrong number of arguments, is a
    # usage error with a message that says so
    code, out, err = run(capsys, "construct", "split", "trivial:2", "5")
    assert (code, out, err) == (4, "", "error: Mge needs a width element of table2\n")
    for argv, want in ((["split", "trivial:5"], "split takes 2 arguments, got 1"),
                       (["mu", "trivial:3"], "mu takes 2 arguments, got 1"),
                       (["cuts"], "cuts takes 1 argument, got 0"),
                       (["trivial", "3", "4"], "trivial takes 1 argument, got 2")):
        code, out, err = run(capsys, "construct", *argv)
        assert (code, out, err) == (4, "", f"error: construct {want}\n"), argv


def test_valuation_partitions_stable(capsys):
    code, out1, _ = run(capsys, "--seed", "5", "valuation", "width",
                        "--carrier", "cuts(Q)")
    assert code == 0 and out1.startswith("value ")
    code, out2, _ = run(capsys, "--seed", "5", "valuation", "width",
                        "--carrier", "cuts(Q)")
    assert out1 == out2
    code, out3, _ = run(capsys, "valuation", "natural", "--carrier", "cuts(Q)")
    assert code == 0 and len(out3.strip().splitlines()) >= 2
    code, _, err = run(capsys, "valuation", "bogus", "--carrier", "cuts(Q)")
    assert code == 4


def test_valuation_width_lex_r2(capsys):
    # sampled cuts keep r2 at the anchor, so make_node accepts every one
    code, out, _ = run(capsys, "valuation", "width", "--carrier", "cuts(lex(Q,Q),r2)")
    assert code == 0 and out.startswith("value ")
    assert "r2" in out


def test_eval_tilde_literals(capsys):
    # group elements print as g(..) so that the output reads back
    code, out, _ = run(capsys, "eval", "--carrier", "tilde(Q)", "g(1) + g(1/2)")
    assert code == 0 and out.strip() == "g(3/2)"
    code, out2, _ = run(capsys, "eval", "--carrier", "tilde(Q)", out.strip())
    assert code == 0 and out2 == out
    code, out, err = run(capsys, "eval", "--carrier", "tilde(Q)", "fill(r2)")
    assert (code, out) == (3, "")
    assert "type error" in err and "tilde(Q)" in err and "cuts(Q)" not in err


def test_construct_embed_odd_chain(capsys):
    # embed_finite: odd chains land in the mixed carrier, zero at the group zero
    code, out, _ = run(capsys, "construct", "embed", "5")
    assert code == 0
    assert out.splitlines()[1:] == ["0 -> -inf", "1 -> cut(0)-", "2 -> g(0)",
                                    "3 -> cut(0)+", "4 -> +inf"]


NINES = "9" * 4300

EXIT_CONTRACT = [
    # a table file that cannot be read is a parse error in every subcommand
    (["check-table", "missing.tbl"], 2, "parse error: "),
    (["check-table", "."], 2, "parse error: "),
    *[(["construct", kind, *args], 2, "parse error: ") for kind, args in (
        ("infinity", ["missing.tbl"]), ("dual", ["missing.tbl"]), ("cuts", ["missing.tbl"]),
        ("quot-equiv", ["missing.tbl"]), ("collapse", ["missing.tbl"]), ("dual", ["."]),
        ("mu", ["missing.tbl", "trivial:3"]), ("mu", ["trivial:3", "missing.tbl"]),
        ("split", ["missing.tbl", "1"]))],
    # so is a carrier that does not parse, whichever subcommand reads it
    (["eval", "--carrier", "foo", "1"], 2, "parse error: "),
    (["classify", "--carrier", "foo"], 2, "parse error: "),
    *[(["valuation", which, "--carrier", "foo"], 2, "parse error: ")
      for which in ("width", "natural", "w", "trivial", "two", "bogus")],
    # an unknown name is a usage error
    (["construct", "nonsense"], 4, "error: unknown construction 'nonsense'"),
    (["valuation", "bogus", "--carrier", "cuts(Q)"], 4, "error: unknown valuation 'bogus'"),
    # an error while printing is mapped too, not left as a traceback
    (["eval", "--carrier", "cuts(Q)", f"cut({NINES})+ + cut({NINES})+"], 4, "error: "),
    # nesting past the limit is refused, not left to end in a RecursionError
    (["eval", "--carrier", "Q", _nested(10_000, "0")], 2, "parse error: "),
    (["eval", "--carrier", "cuts(Q)", "(" * 10_000], 2, "parse error: "),
    # in a carrier descriptor as well, bare or inside cuts(..), cuts(..,r2)
    # and tilde(..), whichever subcommand reads it
    *[(argv[:2] + [wrap.format(_nested(depth, "Q", "lex("))] + argv[2:], 2, "parse error: ")
      for argv in (["classify", "--carrier"], ["eval", "--carrier", "0"])
      for depth in (1_000, 10_000)
      for wrap in ("{}", "cuts({})", "cuts({},r2)", "tilde({})")],
    # a syntax error anywhere is found before any literal is read
    (["eval", "--carrier", "cuts(Q)", "3/4 + neg("], 2, "parse error: "),
    (["eval", "--carrier", "cuts(Q)", "5 * cut(0)+"], 2, "parse error: "),
    *[(["eval", "--carrier", "Q", expr], 2, "parse error: unbalanced parentheses in ")
      for expr in ("1 )", "neg(1))", "1 + neg(2")],
    (["eval", "--carrier", "Q", "neg(1)+R 2"], 2, "parse error: no space after ')' in "),
    (["eval", "--carrier", "cuts(Q)", "cut(1/-2)+"], 2, "parse error: '-2' is not a denominator"),
    # an expression that starts with "--" stands after "--"
    (["eval", "--carrier", "Q", "--", "--1/2"], 2, "parse error: "),
]


@pytest.mark.parametrize("argv, code, prefix", EXIT_CONTRACT,
                         ids=[" ".join(argv)[:40] for argv, _, _ in EXIT_CONTRACT])
def test_exit_code_contract(capsys, monkeypatch, tmp_path, argv, code, prefix):
    # one mapping from error kind to exit code and stderr prefix, for
    # every subcommand
    monkeypatch.chdir(tmp_path)
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "") and err.startswith(prefix), err


def test_usage_errors_exit_4(capsys):
    # argparse's own errors are usage errors: exit 4, as documented
    for argv in (["eval", "cut(0)+"], [], ["enumerate", "x"],
                 ["eval", "--carrier", "cuts(Q)"], ["enumerate", "3", "--bogus"],
                 ["--samples", "0", "valuation", "width", "--carrier", "cuts(Q)"],
                 ["--samples", "-5", "valuation", "width", "--carrier", "cuts(Q)"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4, argv
        out = capsys.readouterr()
        assert out.out == "" and "usage: dom" in out.err
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    assert "--carrier CARRIER expr" in capsys.readouterr().out


def test_expression_may_start_with_a_dash(capsys):
    for argv in (["eval", "--carrier", "cuts(Q)", "-inf"],
                 ["eval", "-inf", "--carrier", "cuts(Q)"],
                 ["eval", "--carrier", "cuts(Q)", "--", "-inf"]):
        assert run(capsys, *argv) == (0, "-inf\n", "")
    assert run(capsys, "eval", "--carrier", "Q", "-1/2 + 1") == (0, "1/2\n", "")
    assert run(capsys, "eval", "--carrier", "Q", "-1/2")[:2] == (0, "-1/2\n")
    # but an argument that starts with "--" is read as an option, so the
    # expression is missing: it goes after "--"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--carrier", "Q", "--1/2"])
    assert exc.value.code == 4
    assert "the following arguments are required: expr" in capsys.readouterr().err


# -- fuzzing the eval grammar -----------------------------------------------------

FUZZ_CARRIERS = ["Q", "Z", "Zloc(3)", "Qr2", "lex(Q,Q)", "cuts(Q)", "cuts(Z)",
                 "cuts(Zloc(2))", "cuts(lex(Q,Q))", "cuts(Q,r2)", "tilde(Q)", "tilde(Z)"]


def _mostly(common, rare):
    """Nine draws in ten from ``common``, the rest from ``rare``."""
    return st.sampled_from([common] * 9 + [rare]).flatmap(lambda s: s)


_rational = st.fractions(min_value=-4, max_value=4, max_denominator=6).map(str)
_surd = st.builds(lambda a, s, b: f"{a}{s}{b}r2", st.sampled_from(["", "1", "-1/2", "3"]),
                  st.sampled_from("+-"), st.sampled_from(["", "2", "1/3"]))
_malformed = st.sampled_from(["r2+1", "2+r2/3", "r2r2", "1/0", "abc", ""])


def _literals(scalar, coords, levels):
    cut = st.one_of(
        st.builds(lambda c, side: f"cut({c}){side}", coords, st.sampled_from("+-")),
        coords.map(lambda c: f"fill({c})"),
        st.builds(lambda k, side: f"edge({k}){side}", levels, st.sampled_from("+-")),
        st.builds(lambda k, side, c: f"edge({k}){side}{c}", levels,
                  st.sampled_from(["+", "-", "fill"]), scalar),
        st.sampled_from(["-inf", "+inf"]))
    return {"group": coords, "cuts": cut,
            "tilde": st.one_of(coords.map(lambda c: f"g({c})"), cut)}


def _literal_for(carrier):
    """Mostly literals that the carrier reads, sometimes any literal."""
    scalar = _mostly(st.one_of(_rational, _surd) if "r2" in carrier else _rational,
                     st.one_of(_surd, _malformed))
    pair = st.builds(lambda a, b: f"({a},{b})", scalar, scalar)
    lex = "lex(" in carrier
    own = _literals(scalar, pair if lex else scalar, st.integers(0, int(lex)))
    kind = carrier.split("(")[0] if carrier.startswith(("cuts(", "tilde(")) else "group"
    anything = _literals(scalar, st.one_of(scalar, pair), st.integers(0, 2))
    return _mostly(own[kind], st.one_of(*anything.values()))


def _chain(terms):
    ops = st.sampled_from(["+", "+R", "-", "-L"])
    return st.builds(lambda first, rest: " ".join([first] + [f"{op} {t}" for op, t in rest]),
                     terms, st.lists(st.tuples(ops, terms), max_size=2))


@functools.lru_cache(maxsize=None)
def _expr_for(carrier):
    terms = st.recursive(
        _literal_for(carrier),
        lambda inner: st.builds(lambda u, e: f"{u}({e})",
                                st.sampled_from(["neg", "width", "abs", "sign"]), _chain(inner)),
        max_leaves=3)
    # sign(..) is read only as the outermost operation: draw it there
    # around whole expressions and around single terms, sign(..) included
    expr = _chain(terms)
    signed = st.one_of(expr, terms).map(lambda e: f"sign({e})")
    return st.sampled_from([expr, expr, signed]).flatmap(lambda s: s)


def _main_in_process(argv):
    """Exit code, stdout and stderr of ``dom argv``; a usage error's
    SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _eval_in_process(carrier, expr):
    return _main_in_process(["eval", "--carrier", carrier, expr])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(FUZZ_CARRIERS).flatmap(
    lambda c: st.tuples(st.just(c), _expr_for(c))))
def test_eval_fuzz_exit_codes_and_round_trip(case):
    # every input ends in a result, a parse error or a type error, never
    # in a traceback; a printed value reads back to the same text
    carrier, expr = case
    code, out, err = _eval_in_process(carrier, expr)
    assert code in (0, 2, 3), (carrier, expr, code, err)
    assert (out == "") == (code != 0), (carrier, expr, out, err)
    if code == 0 and eval_expr(parse_carrier(carrier), expr)[0] == "val":
        assert _eval_in_process(carrier, out.strip()) == (0, out, ""), (carrier, expr, out)


# -- fuzzing carrier descriptors ----------------------------------------------------

_ATOM_TEXTS = _mostly(st.sampled_from(["Z", "Q", "Qr2", "triv", "Zloc(2)", "Zloc(3)"]),
                      st.sampled_from(["Zloc(4)", "Zloc(1)", "Zloc(+3)"]))
# at most eight atoms: CutDom builds one level edge per atom, in time
# quadratic in the number of atoms
_GROUP_TEXTS = st.recursive(
    _ATOM_TEXTS,
    lambda inner: st.builds(lambda parts, sep: "lex(" + sep.join(parts) + ")",
                            st.lists(inner, min_size=1, max_size=3),
                            st.sampled_from([",", ", ", ",\t"])),
    max_leaves=8)


@st.composite
def _descriptors(draw):
    """A carrier descriptor: a group, bare or in cuts(..), cuts(..,r2),
    tilde(..) or tilde(..,r2); one in three with one character inserted,
    deleted or replaced."""
    text = draw(st.sampled_from(["{}", "cuts({})", "cuts({},r2)", "tilde({})", "tilde({},r2)"])
                ).format(draw(_GROUP_TEXTS))
    if draw(st.integers(0, 2)) == 2:  # hypothesis favours small draws
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(list("(),r2QZlextrivoc0123456789\t ")))
        text = draw(st.sampled_from([text[:i] + ch + text[i:], text[:i] + text[i + 1:],
                                     text[:i] + ch + text[i + 1:]]))
    return text


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_descriptors())
def test_descriptor_fuzz_exit_codes_and_round_trip(text):
    # every descriptor ends in a result, a parse error or a type error,
    # never in a traceback; the name a carrier prints reads back as the
    # same carrier
    code, out, err = _main_in_process(["eval", "--carrier", text, "0"])
    assert code in (0, 2, 3, 4) and "Traceback" not in err, (text, code, err)
    if code in (0, 3):
        d = parse_carrier(text)
        again = parse_carrier(d.name)
        assert (type(again), again.name, again.group) == (type(d), d.name, d.group), text


# -- the expression parser against terms drawn as data ------------------------------

TERM_CARRIERS = ["Q", "Zloc(3)", "lex(Q,Q)", "Qr2", "cuts(Q)", "cuts(Z)", "cuts(Zloc(2))",
                 "cuts(lex(Q,Q))", "cuts(Q,r2)", "tilde(Q)", "tilde(Z)"]
# the text of each carrier method, written out here rather than read from cli
_OPS = {"add": "+", "radd": "+R", "rsub": "-", "lsub": "-L"}
_HEADS = {"neg": "neg", "width_of": "width", "abs_of": "abs", "sign": "sign"}
_GAPS = st.sampled_from(["", " ", "  ", "\t"])
_SEPS = st.sampled_from([" ", "  ", "\t", " \n "])


@functools.lru_cache(maxsize=None)
def _terms_for(carrier):
    """Terms as nested tuples: a literal token, (unary method, term) or
    (binary method, term, operand).  An operand, the right side of a binary
    term, is a literal or a unary term, since operators apply left to right
    and the grammar has no bare parentheses."""
    d = parse_carrier(carrier)
    leaves = st.sampled_from(sorted({d.fmt(x) for x in d.universe(random.Random(0), 8)}))
    unary = st.sampled_from(["neg", "width_of", "abs_of"])

    def extend(inner):
        return st.one_of(st.tuples(unary, inner),
                         st.tuples(st.sampled_from(sorted(_OPS)), inner,
                                   st.one_of(leaves, st.tuples(unary, inner))))
    term = st.recursive(leaves, extend, max_leaves=6)
    return st.one_of(term, st.tuples(st.just("sign"), term))  # sign(..) only outermost


@st.composite
def _rendered_terms(draw):
    """A carrier, a term over it, and the term's text with random spaces."""
    carrier = draw(st.sampled_from(TERM_CARRIERS))
    term = draw(_terms_for(carrier))

    def render(t):
        if isinstance(t, str):
            return t
        if len(t) == 2:
            return f"{_HEADS[t[0]]}({draw(_GAPS)}{render(t[1])}{draw(_GAPS)})"
        return f"{render(t[1])}{draw(_SEPS)}{_OPS[t[0]]}{draw(_SEPS)}{render(t[2])}"
    return carrier, term, draw(_GAPS) + render(term) + draw(_GAPS)


def _post_order(t):
    if isinstance(t, str):
        return [t]
    return [step for sub in t[1:] for step in _post_order(sub)] + [(t[0], len(t) - 1)]


def _value(d, t):
    """The term's value from the carrier's own methods, sign_of for sign."""
    if isinstance(t, str):
        return d.parse_literal(t)
    args = [_value(d, sub) for sub in t[1:]]
    return sign_of(d, *args) if t[0] == "sign" else getattr(d, t[0])(*args)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_rendered_terms())
def test_parse_and_eval_agree_with_a_drawn_term(case):
    # the parse of a term's text is the term's post-order, and the text
    # evaluates to what the carrier's methods give on the term itself
    carrier, term, text = case
    d = parse_carrier(carrier)
    assert parse_expr(text) == _post_order(term), text
    kind = "sign" if isinstance(term, tuple) and term[0] == "sign" else "val"
    assert eval_expr(d, text) == (kind, _value(d, term)), text


# -- fuzzing check-table and enumerate ---------------------------------------------

_STRAY = ["x", "1.5", "--", "+1", "0x1", "3 3", "\u0661"]


@st.composite
def _table_files(draw):
    """Table files on at most six elements: mostly well formed, some with
    a wrong size line, ragged rows, entries out of range or stray tokens,
    and comments and blank lines anywhere."""
    n = draw(st.integers(0, 6))
    rows = [[draw(st.integers(0, max(n - 1, 0))) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        # symmetric with a neutral row, as the search builds them
        e = draw(st.integers(0, n - 1))
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
        for k in range(n):
            rows[e][k] = rows[k][e] = k
    lines = [str(draw(_mostly(st.just(n), st.integers(-2, 7))))]
    lines += [" ".join(map(str, row)) for row in rows]
    edits = st.sampled_from(["comment", "comment", "blank", "ragged", "stray", "range"])
    for edit in draw(st.lists(edits, max_size=3)):
        at = draw(st.integers(0, len(lines)))
        if edit == "comment":
            lines.insert(at, draw(st.sampled_from(["# a comment", "  #", "#3"])))
            if at < len(lines) - 1:
                lines[at + 1] += " # 1 2"
        elif edit == "blank":
            lines.insert(at, draw(st.sampled_from(["", "   ", "\t"])))
        elif at < len(lines):
            toks = lines[at].split()
            if edit == "ragged":
                toks = toks[:-1] if toks and draw(st.booleans()) else toks + ["0"]
            elif edit == "stray":
                toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(_STRAY)))
            elif toks:
                toks[draw(st.integers(0, len(toks) - 1))] = str(draw(st.sampled_from([-1, n])))
            lines[at] = " ".join(toks)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _verdict_line(label, ok, witness):
    if ok:
        return f"{label}: PASS"
    named = "".join(f" {k}={v}" for k, v in zip("xyz", witness or ()))
    return f"{label}: FAIL" + (f" witness{named}" if named else "")


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_table_files())
def test_check_table_fuzz_exit_codes_and_verdicts(text):
    # every file ends in verdicts or a parse error, never in a traceback;
    # a file that parses prints validate's verdicts, one line per law
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tbl"
        path.write_text(text, encoding="utf-8")
        code, out, err = _main_in_process(["check-table", str(path)])
    assert code in (0, 1, 2, 4), (text, code, err)
    assert "Traceback" not in err
    try:
        table = parse_table(text)
    except ValueError:
        assert (code, out) == (2, ""), (text, out)
        assert err.startswith("parse error: "), (text, err)
        return
    assert table.n >= 1, text
    report = validate(table)
    expected = [_verdict_line(label, *report[key]) for key, label in AXIOM_LABELS
                if key in report]
    assert out.splitlines() == expected, text
    assert code == (0 if all(ok for ok, _ in report.values()) else 1), text
    assert err == ""


_AXIOM_NAMES = ["MA", "MB", "MCa", "MCb", "MCprime", "assoc", "PA", " MB ", "bogus"]


@st.composite
def _enumerate_argv(draw):
    """``dom enumerate`` command lines that search nothing above n = 6."""
    bound = draw(st.one_of(st.none(), _mostly(st.integers(-1, 6).map(str),
                                              st.sampled_from(["x", "2.5"]))))
    # the default bound is 7: without --bound, n = 7 would be searched
    sizes = st.one_of(st.integers(1, 6), st.integers(-2, 12))
    if bound is None:
        sizes = sizes.filter(lambda k: k != 7)
    argv = ["enumerate", draw(_mostly(sizes.map(str), st.sampled_from(["x", "3.5"])))]
    if bound is not None:
        argv.append(f"--bound={bound}")
    axioms = st.one_of(st.sampled_from(["dom", "predom", "", " , "]),
                       st.lists(st.sampled_from(_AXIOM_NAMES), max_size=4).map(",".join))
    if draw(st.booleans()):
        argv.append(f"--axioms={draw(axioms)}")
    return argv


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_enumerate_argv())
def test_enumerate_fuzz_exit_codes(argv):
    # every command line ends in a listing or an error, never in a
    # traceback; a listing holds as many tables as its count line says
    code, out, err = _main_in_process(argv)
    assert code in (0, 1, 2, 4), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert int(argv[1]) <= 6, argv
        count = int(out.splitlines()[0].removeprefix("count: "))
        assert out.count("# table ") == count, argv
        assert err == ""
    else:
        assert out == "" and err, argv


# -- fuzzing construct and valuation -------------------------------------------------

CONSTRUCT_ARITY = {"trivial": 1, "infinity": 1, "dual": 1, "cuts": 1, "quot-equiv": 1,
                   "mu": 2, "collapse": 1, "split": 2, "embed": 1}


@st.composite
def _construct_case(draw):
    """A ``dom construct`` kind and its arguments: table arguments are
    ``trivial:k`` with small k, table files (drawn as their text) or a
    missing file; numbers are small, some malformed; some argument counts
    are wrong."""
    kind = draw(_mostly(st.sampled_from(sorted(CONSTRUCT_ARITY)),
                        st.sampled_from(["nonsense", ""])))
    arity = CONSTRUCT_ARITY.get(kind, 1)
    table = st.one_of(_mostly(st.integers(1, 4), st.integers(-1, 6)).map(lambda k: f"trivial:{k}"),
                      _table_files().map(lambda text: ("file", text)),
                      st.sampled_from(["trivial:x", "trivial:", "missing.tbl"]))
    number = _mostly(st.integers(0, 5).map(str), st.sampled_from(["-1", "x", "+3", ""]))
    args = []
    for i in range(draw(_mostly(st.just(arity), st.integers(0, 3)))):
        numeric = kind in ("trivial", "embed") or (kind == "split" and i == 1)
        args.append(draw(number if numeric else table))
    return kind, args


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_construct_case())
def test_construct_fuzz_exit_codes(case):
    # every command line ends in output or an error, never in a traceback;
    # a wrong argument count is a usage error, and a printed table re-parses
    kind, args = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["construct", kind]
        for i, arg in enumerate(args):
            if isinstance(arg, tuple):
                path = Path(tmp) / f"t{i}.tbl"
                path.write_text(arg[1], encoding="utf-8")
                arg = str(path)
            argv.append(arg)
        code, out, err = _main_in_process(argv)
    assert code in (0, 2, 4), (argv, code, err)
    assert "Traceback" not in err
    if kind in CONSTRUCT_ARITY and len(args) != CONSTRUCT_ARITY[kind]:
        assert code == 4 and f"construct {kind} takes" in err, (argv, err)
    if code:
        assert out == "" and err.startswith(("error: ", "parse error: ")), (argv, out, err)
        return
    assert err == ""
    if kind == "embed":
        n = int(args[0])
        lines = out.splitlines()
        assert lines[0].startswith("target: ") and len(lines) == n + 1, argv
        assert [line.split(" -> ")[0] for line in lines[1:]] == [str(i) for i in range(n)]
    else:
        assert serialize_table(parse_table(out)) == out, argv


_VALUATIONS = ["width", "natural", "w", "trivial", "two"]


@st.composite
def _valuation_argv(draw):
    """``dom valuation`` over the fuzz carriers, with and without --seed
    and --samples; a few names, carriers and numbers do not parse."""
    argv = []
    if draw(st.booleans()):
        seed = _mostly(st.integers(-3, 1000).map(str), st.sampled_from(["x", "1.5"]))
        argv.append(f"--seed={draw(seed)}")
    if draw(st.booleans()):
        samples = _mostly(st.integers(1, 60).map(str), st.sampled_from(["0", "-2", "x"]))
        argv.append(f"--samples={draw(samples)}")
    which = draw(_mostly(st.sampled_from(_VALUATIONS), st.sampled_from(["bogus", ""])))
    carrier = draw(_mostly(st.sampled_from(FUZZ_CARRIERS),
                           st.sampled_from(["cuts(", "lex(Q)", "Zloc(4)", "tilde(x)"])))
    return argv + ["valuation", which, "--carrier", carrier]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_valuation_argv())
def test_valuation_fuzz_exit_codes(argv):
    # every command line ends in a partition or an error, never in a
    # traceback; a partition is byte-stable, and each member it names is
    # a literal that `dom eval` reads back and prints as the same text
    code, out, err = _main_in_process(argv)
    assert code in (0, 2, 4), (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert out == "" and err, (argv, out)
        return
    assert err == "" and out and _main_in_process(argv) == (code, out, err), argv
    d = parse_carrier(argv[-1])
    for line in out.splitlines():
        value, names = line.removeprefix("value ").split(": ")
        assert line.startswith("value ") and value, (argv, line)
        for name in names.split(" "):
            assert format_value(d, "val", d.parse_literal(name)) == name, (argv, name)


def _cold_env():
    """The environment of a fresh process that imports domkit from this tree."""
    src = str(Path(domkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return env


def _cold(*args, cwd=None, timeout=120):
    """Run ``python`` in a fresh process that imports domkit from this tree."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_cold_env(), cwd=cwd, timeout=timeout)


def test_zloc_primality_on_the_command_line():
    # 17- and 19-digit primes are decided at once (trial division took 13 s
    # and minutes); a modulus past the exact range of the primality test
    # is a parse error
    for p in ("10000000000000061", str(2 ** 61 - 1)):
        proc = _cold("-m", "domkit", "eval", "--carrier", f"Zloc({p})", "1/2 + 1/2",
                     timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", ""), p
    for p in ("561", "10000004400000259", str(2 ** 89 - 1)):
        proc = _cold("-m", "domkit", "eval", "--carrier", f"Zloc({p})", "0")
        assert (proc.returncode, proc.stdout) == (2, ""), p
        assert proc.stderr.startswith("parse error: Zloc needs a prime"), p


def test_import_leaves_unused_modules_out():
    # `dom eval` and `dom classify` need only the carrier layers; the rest
    # is imported by the commands that run it
    probe = "import sys, {}; print(' '.join(sorted(sys.modules)))"
    loaded = set(_cold("-c", probe.format("domkit.cli")).stdout.split())
    assert "domkit.cli" in loaded
    assert not loaded & {"domkit.constructions", "domkit.tables", "domkit.valuations",
                         "domkit.oracle", "dataclasses"}
    loaded = set(_cold("-c", probe.format("domkit")).stdout.split())
    assert "domkit" in loaded and "dataclasses" not in loaded


BAD3 = "3\n0 0 2\n0 1 2\n2 2 2\n"


FRESH_CASES = [
    (["eval", "--carrier", "cuts(Zloc(2))", "fill(1/2) + fill(1/2)"], 0, "cut(1)-\n"),
    (["eval", "--carrier", "tilde(Q)", "g(2) + cut(3)-"], 0, "cut(5)-\n"),
    (["check-table", "bad3.tbl"], 1,
     "monoid: PASS\nassociativity: PASS\ncommutativity: PASS\nPA: PASS\nminus: PASS\n"
     "MA: PASS\nMB: PASS\nMC(a): PASS\nMC(b): FAIL witness x=0\n"
     "MC': FAIL witness x=0 y=1 z=0\n"),
    (["enumerate", "4", "--axioms=dom"], 0,
     "count: 1\n# table 1\n4\n0 0 0 0\n0 1 1 3\n0 1 2 3\n0 3 3 3\n"),
    (["classify", "--carrier", "cuts(Z)"], 0, "type: second\n"),
    (["construct", "cuts", "trivial:3"], 0, "4\n0 0 0 0\n0 1 1 3\n0 1 2 3\n0 3 3 3\n"),
    (["construct", "infinity", "bad3.tbl"], 0,
     "5\n0 0 0 0 0\n0 1 1 3 4\n0 1 2 3 4\n0 3 3 3 4\n0 4 4 4 4\n"),
    (["valuation", "natural", "--carrier", "cuts(Z)"], 0,
     "value cut(0)+: cut(-1)+ cut(-2)+ cut(-3)+ cut(-4)+ cut(0)+ cut(1)+ cut(2)+ cut(3)+\n"
     "value -inf: +inf -inf\n"),
]


@pytest.mark.parametrize("argv, code, stdout", FRESH_CASES,
                         ids=["eval-tilde" if "tilde(Q)" in argv else
                              "construct-infinity" if "infinity" in argv else argv[0]
                              for argv, _, _ in FRESH_CASES])
def test_each_subcommand_in_a_fresh_process(tmp_path, argv, code, stdout):
    # in-process tests run with every module already loaded; a fresh
    # process sees an import missing from a command body
    (tmp_path / "bad3.tbl").write_text(BAD3)
    proc = _cold("-m", "domkit", *argv, cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, "")


def test_closed_stdout_exits_1_without_traceback():
    # `dom enumerate 7 --axioms=predom | head -1`: its 240 kB of output
    # overfill the pipe, so writing meets the closed end
    with subprocess.Popen([sys.executable, "-m", "domkit", "enumerate", "7",
                           "--axioms=predom"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_cold_env()) as proc:
        assert proc.stdout.readline() == b"count: 2146\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
