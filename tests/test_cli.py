from domkit.cli import main


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


def test_eval_error_codes(capsys):
    code, _, err = run(capsys, "eval", "--carrier", "cuts(Q)", "cut(")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "eval", "--carrier", "cuts(Q)", "3/4 + cut(0)+")
    assert code == 3 and "type error" in err
    code, _, err = run(capsys, "eval", "--carrier", "cuts(Q)", "cut(0)+ +")
    assert code == 2
    code, _, err = run(capsys, "eval", "--carrier", "Z", "1/2")
    assert code == 3


def test_eval_zero_denominator(capsys):
    # a ZeroDivisionError escaping main would fail the test as a traceback;
    # cut literals report a parse error, group literals that do not parse
    # a type error (as for "abc")
    for carrier, expr, expected in (
            ("cuts(Q)", "cut(1/0)+", 2),
            ("cuts(Q,r2)", "fill(1/0r2)", 2),
            ("cuts(Q,r2)", "fill(1+1/0r2)", 2),
            ("Q", "1/0", 3),
            ("Qr2", "1/0r2", 3)):
        code, out, err = run(capsys, "eval", "--carrier", carrier, expr)
        assert (code, out) == (expected, ""), (carrier, expr)
        assert "zero denominator" in err


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


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DOMKIT_SEED", "5")
    code, out_env, _ = run(capsys, "valuation", "width", "--carrier", "cuts(Q)")
    assert code == 0
    monkeypatch.delenv("DOMKIT_SEED")
    code, out_flag, _ = run(capsys, "--seed", "5", "valuation", "width",
                            "--carrier", "cuts(Q)")
    assert out_env == out_flag


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
    assert out.splitlines()[1:] == ["0 -> -inf", "1 -> cut(0)-", "2 -> 0",
                                    "3 -> cut(0)+", "4 -> +inf"]
