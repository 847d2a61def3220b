"""Command-line front end: exact expression evaluation over a chosen
carrier, table validation, exhaustive enumeration, classification,
constructions and valuation reports.

Exit codes: 0 success, 1 failed checks, 2 parse errors, 3 type errors,
4 bad usage/preconditions.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from domkit import tables, valuations
from domkit.constructions import (
    collapse, cuts_of_dom, dual, embed_finite, infinity_extension, mu_product,
    quotient_equiv, split_at_width, to_table,
)
from domkit.doms import CutDom, Dom, GroupDom, TildeDom, classify_type, sign_of, special_set
from domkit.groups import parse_group
from domkit.tables import FiniteDom, enumerate_tables, parse_table, serialize_table, trivial_dom


class ParseError(ValueError):
    pass


class CarrierTypeError(TypeError):
    pass


AXIOM_LABELS = [
    ("neutral", "monoid"), ("assoc", "associativity"), ("comm", "commutativity"),
    ("PA", "PA"), ("minus", "minus"), ("MA", "MA"), ("MB", "MB"),
    ("MCa", "MC(a)"), ("MCb", "MC(b)"), ("MCprime", "MC'"),
]


# -- carriers -----------------------------------------------------------------


def parse_carrier(text: str) -> Dom:
    s = text.strip().replace(" ", "")
    for head, maker in (("cuts(", CutDom), ("tilde(", TildeDom)):
        if s.startswith(head) and s.endswith(")"):
            inner = s[len(head):-1]
            field = "Q"
            if inner.endswith(",r2"):
                inner, field = inner[:-3], "Qr2"
            return maker(parse_group(inner), field)
    try:
        return GroupDom(parse_group(s))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# -- expression evaluation -----------------------------------------------------


def _split_top(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch.isspace() and depth == 0:
            if cur:
                parts.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


_UNARY = ("neg(", "width(", "abs(", "sign(")


def eval_expr(d: Dom, text: str):
    """Evaluate; returns ('sign', s) or ('val', element)."""
    s = text.strip()
    if s.startswith("sign(") and s.endswith(")") and _balanced(s[5:-1]):
        _, inner = eval_expr(d, s[5:-1])
        return ("sign", sign_of(d, inner))
    return ("val", _eval(d, s))


def _balanced(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _eval(d: Dom, text: str):
    parts = _split_top(text)
    if not parts:
        raise ParseError("empty expression")
    if len(parts) % 2 == 0:
        raise ParseError(f"dangling operator in {text!r}")
    val = _atom(d, parts[0])
    for i in range(1, len(parts), 2):
        op, rhs_text = parts[i], parts[i + 1]
        rhs = _atom(d, rhs_text)
        if op == "+":
            val = d.add(val, rhs)
        elif op == "+R":
            val = d.radd(val, rhs)
        elif op == "-":
            val = d.rsub(val, rhs)
        elif op == "-L":
            val = d.lsub(val, rhs)
        else:
            raise ParseError(f"unknown operator {op!r}")
    return val


def _atom(d: Dom, tok: str):
    for head in _UNARY:
        if tok.startswith(head) and tok.endswith(")") and _balanced(tok[len(head):-1]):
            inner = _eval(d, tok[len(head):-1])
            name = head[:-1]
            if name == "neg":
                return d.neg(inner)
            if name == "width":
                return d.width_of(inner)
            if name == "abs":
                return d.abs_of(inner)
            raise ParseError("sign(..) may only be the outermost operation")
    try:
        return d.parse_literal(tok)
    except TypeError as exc:
        raise CarrierTypeError(str(exc)) from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_value(d: Dom, kind: str, v) -> str:
    if kind == "sign":
        return {1: "+1", -1: "-1", 0: "0"}.get(v, str(v))
    return d.format_literal(v)


# -- subcommands ----------------------------------------------------------------


def _cmd_eval(args) -> int:
    try:
        d = parse_carrier(args.carrier)
        kind, v = eval_expr(d, args.expr)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return 3
    print(format_value(d, kind, v))
    return 0


def _fmt_witness(w) -> str:
    if not w:
        return ""
    names = ("x", "y", "z")
    return " witness " + " ".join(f"{n}={v}" for n, v in zip(names, w))


def _cmd_check_table(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            t = parse_table(fh.read())
    except (OSError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    report = tables.validate(t)
    failed = False
    for key, label in AXIOM_LABELS:
        if key not in report:
            continue
        ok, witness = report[key]
        if ok:
            print(f"{label}: PASS")
        else:
            failed = True
            print(f"{label}: FAIL{_fmt_witness(witness)}")
    return 1 if failed else 0


def _parse_axioms(text: str) -> frozenset:
    s = text.strip()
    if s in ("dom", ""):
        return frozenset({"MA", "MB", "MCa", "MCb"})
    if s == "predom":
        return frozenset()
    return frozenset(p.strip() for p in s.split(",") if p.strip())


def _cmd_enumerate(args) -> int:
    try:
        found = enumerate_tables(args.n, _parse_axioms(args.axioms), bound=args.bound)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(f"count: {len(found)}")
    for i, t in enumerate(found):
        print(f"# table {i + 1}")
        sys.stdout.write(serialize_table(t))
    return 0


def _cmd_classify(args) -> int:
    try:
        d = parse_carrier(args.carrier)
        t = classify_type(d)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"type: {t}")
    return 0


def _load_table_arg(text: str) -> FiniteDom:
    if text.startswith("trivial:"):
        return FiniteDom(trivial_dom(int(text.split(":", 1)[1])))
    with open(text, "r", encoding="utf-8") as fh:
        return FiniteDom(parse_table(fh.read()))


def _cmd_construct(args) -> int:
    kind = args.kind
    try:
        if kind == "trivial":
            out = trivial_dom(int(args.args[0]))
        elif kind == "infinity":
            out = to_table(infinity_extension(_load_table_arg(args.args[0])))
        elif kind == "dual":
            out = to_table(dual(_load_table_arg(args.args[0])))
        elif kind == "cuts":
            out = cuts_of_dom(_load_table_arg(args.args[0])).table
        elif kind == "quot-equiv":
            out = to_table(quotient_equiv(_load_table_arg(args.args[0]))[0])
        elif kind == "mu":
            out = to_table(mu_product(_load_table_arg(args.args[0]),
                                      _load_table_arg(args.args[1])))
        elif kind == "collapse":
            d = _load_table_arg(args.args[0])
            h = special_set(d, "H")
            coll, _ = collapse(d, h.contains)
            out = to_table(coll)
        elif kind == "split":
            d = _load_table_arg(args.args[0])
            out = to_table(split_at_width(d, int(args.args[1])))
        elif kind == "embed":
            h = embed_finite(int(args.args[0]))
            print(f"target: {h.target.name}")
            for i in range(int(args.args[0])):
                print(f"{i} -> {h.target.fmt(h(i))}")
            return 0
        else:
            print(f"error: unknown construction {kind!r}", file=sys.stderr)
            return 4
    except (OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(serialize_table(out))
    return 0


def _cmd_valuation(args) -> int:
    try:
        d = parse_carrier(args.carrier)
        maker = {
            "width": valuations.width_valuation,
            "natural": valuations.natural_valuation,
            "w": valuations.w_valuation,
            "trivial": valuations.trivial_valuation,
            "two": valuations.two_valued_valuation,
        }[args.which]
        v = maker(d)
    except KeyError:
        print(f"error: unknown valuation {args.which!r}", file=sys.stderr)
        return 4
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    universe = d.universe(rng, min(args.samples, 40))
    for val, members in valuations.valuation_partition(v, universe):
        names = " ".join(sorted({d.fmt(x) for x in members}))
        print(f"value {v.value_fmt(val)}: {names}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dom",
        description="exact cut arithmetic and finite carrier tooling")
    default_seed = int(os.environ.get("DOMKIT_SEED", "0"))
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--samples", type=int, default=1000)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression over a carrier")
    p.add_argument("--carrier", required=True)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check-table", help="validate a finite addition table")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_table)

    p = sub.add_parser("enumerate", help="enumerate finite tables under axioms")
    p.add_argument("n", type=int)
    p.add_argument("--axioms", default="dom")
    p.add_argument("--bound", type=int, default=7)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify", help="first/second/third type of a carrier")
    p.add_argument("--carrier", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("construct", help="run a carrier construction")
    p.add_argument("kind")
    p.add_argument("args", nargs="*")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("valuation", help="print a valuation partition")
    p.add_argument("which")
    p.add_argument("--carrier", required=True)
    p.set_defaults(func=_cmd_valuation)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
