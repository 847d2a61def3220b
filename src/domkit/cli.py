"""Command-line front end: exact expression evaluation over a chosen
carrier, table validation, exhaustive enumeration, classification,
constructions and valuation reports.

Each subcommand imports only the modules it runs: ``tables``,
``constructions`` and ``valuations`` are imported inside the commands
that use them, so ``eval`` and ``classify`` load only the carrier
layers and a ``dom`` process starts sooner.

Commands raise; ``main`` maps each error kind to its exit code once:
0 success, 1 failed checks or stdout closed early, 2 ``ParseError``
(an unreadable table file included), 3 ``CarrierTypeError``, 4 any
other ``ValueError`` or ``OSError`` and argparse's usage errors.  An
expression that starts with one ``-``, such as ``-inf``, is read as the
expression; an argument that starts with ``--`` is read as an option, so
such an expression goes after ``--``.  An expression is parsed in one scan,
then evaluated: operators apply left to right with no precedence,
``sign(..)`` only as the outermost operation, and any syntax error, a
nested ``sign`` or nesting past ``MAX_NESTING`` included, is a parse
error reported before any literal is read.

A carrier descriptor, read in one scan with spaces dropped, is G, ``cuts(G)``,
``cuts(G,r2)``, ``tilde(G)`` or ``tilde(G,r2)``: G is ``Z``, ``Q``, ``Qr2``,
``triv``, ``Zloc(p)`` (p a prime in ASCII digits) or ``lex(G,..,G)`` of one
atom or more, other whitespace only around a G.  In every text ``dom`` reads,
more than ``MAX_NESTING`` open parentheses are a parse error.  A literal that
does not scan is a parse error, one naming no element of the carrier a type error.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys

from domkit.doms import (
    M_AXIOMS, CutDom, Dom, GroupDom, TildeDom, classify_type, sign_of, special_set,
)
from domkit.groups import Atom, Group
from domkit.scalars import parse_int


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
    """The carrier ``text`` names, from one scan of its tokens.  Products
    flatten, so the atoms form one list; a stack holds, for each open
    ``lex(``, the number of atoms read before it."""
    s = text.strip().replace(" ", "")
    outer = re.fullmatch(r"(cuts|tilde)\((.*?)(,r2)?\)", s, re.S)
    atoms, opened, due = [], [], True  # due: whether a group is due next
    # a token after the whitespace around a group, or any character, refused
    for m in re.finditer(r"\s*(?:(lex\(|Zloc\(([^()]*)\))|(Qr2|Q|Z|triv)|([,)])|.)",
                         outer[2].strip() if outer else s, re.S):
        head, p, atom, sep = m.groups()
        if due and head:
            if len(opened) + bool(outer) == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
            if p is None:
                opened.append(len(atoms))
                continue
            try:
                atoms.append(Atom("Zloc", parse_int(p)))
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        elif due and atom:
            atoms += [Atom(atom)] if atom != "triv" else []
        elif not due and opened and sep:
            if sep == ")" and opened.pop() == len(atoms):
                raise ParseError("lex product needs at least one atom")
        else:
            break
        due = sep == ","  # after a group or a ")", a group is due only after a ","
    else:
        if not (due or opened):
            group = Group(tuple(atoms))
            if not outer:
                return GroupDom(group)
            return (CutDom if outer[1] == "cuts" else TildeDom)(group, "Qr2" if outer[3] else "Q")
    raise ParseError(f"cannot parse carrier {text!r}")


# -- expression evaluation -----------------------------------------------------


# each operator, and each unary head, with the carrier method it calls;
# sign(..) calls sign_of, and only as the outermost operation
_BINARY = {"+": "add", "+R": "radd", "-": "rsub", "-L": "lsub"}
_UNARY = {"neg(": "neg", "width(": "width_of", "abs(": "abs_of", "sign(": "sign"}
# a bound on the parentheses open at once, those inside literals included
MAX_NESTING = 256


def parse_expr(text: str) -> list:
    """The steps of ``text`` in postfix order, from one left-to-right scan:
    each is a literal token or a (carrier method, arity) pair.  Operators
    apply left to right; a literal or an operator runs to a space or to a
    ``)`` outside its own parentheses."""
    s, i, steps, opened = text.strip(), 0, [], []
    op, due = None, True  # the operator waiting on the next operand; whether one is due
    while i < len(s) or due or opened:  # the text ends only after a whole operand
        while i < len(s) and s[i].isspace():
            i += 1
        head = next((h for h in _UNARY if s.startswith(h, i)), None) if due else None
        if head:
            if len(opened) == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
            opened.append(((_UNARY[head], 1), op))  # with the operator waiting on it
            op, i = None, i + len(head)
            continue
        if i == len(s) or s[i] == ")":
            if due:
                raise ParseError(f"dangling operator in {text!r}" if op else "empty expression")
            if i == len(s) or not opened:
                raise ParseError(f"unbalanced parentheses in {text!r}")
            step, op = opened.pop()
            i += 1
            if i < len(s) and not (s[i].isspace() or s[i] == ")"):
                raise ParseError(f"no space after ')' in {text!r}")
        else:
            start, inner = i, 0
            while i < len(s) and (inner or not (s[i].isspace() or s[i] == ")")):
                inner += (s[i] == "(") - (s[i] == ")")
                if len(opened) + inner > MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
                i += 1
            step = s[start:i]
            if not due:
                if step not in _BINARY:
                    raise ParseError(f"unknown operator {step!r}")
                op, due = (_BINARY[step], 2), True
                continue
        steps += [step, op] if op else [step]
        op, due = None, False
    if ("sign", 1) in steps[:-1]:
        raise ParseError("sign(..) may only be the outermost operation")
    return steps


def eval_expr(d: Dom, text: str):
    """Evaluate; returns ('sign', s) or ('val', element).  No literal is
    read before the whole text has parsed; one that does not parse is a
    ParseError, and any other ValueError or TypeError a CarrierTypeError."""
    vals = []
    for step in parse_expr(text):
        try:
            if isinstance(step, str):
                vals.append(d.parse_literal(step))
            elif step == ("sign", 1):  # the last step, as parse_expr checks
                return ("sign", sign_of(d, vals.pop()))
            else:
                name, arity = step
                vals[-arity:] = [getattr(d, name)(*vals[-arity:])]
        except (ValueError, TypeError) as exc:
            malformed = isinstance(step, str) and not isinstance(exc, TypeError)
            raise (ParseError if malformed else CarrierTypeError)(str(exc)) from exc
    return ("val", vals.pop())


def format_value(d: Dom, kind: str, v) -> str:
    if kind == "sign":
        return {1: "+1", -1: "-1", 0: "0"}.get(v, str(v))
    return d.fmt(v)


# -- subcommands ----------------------------------------------------------------


def _cmd_eval(args) -> int:
    d = parse_carrier(args.carrier)
    print(format_value(d, *eval_expr(d, args.expr)))
    return 0


def _fmt_witness(w) -> str:
    if not w:
        return ""
    names = ("x", "y", "z")
    return " witness " + " ".join(f"{n}={v}" for n, v in zip(names, w))


def _read_table(path: str):
    """The table in file ``path``; a file that cannot be read or parsed
    is a parse error."""
    from domkit.tables import parse_table

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_table(fh.read())
    except (OSError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def _cmd_check_table(args) -> int:
    from domkit.tables import validate

    report = validate(_read_table(args.file))
    failed = False
    for key, label in AXIOM_LABELS:
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
        return frozenset(M_AXIOMS)
    if s == "predom":
        return frozenset()
    return frozenset(p.strip() for p in s.split(",") if p.strip())


def _cmd_enumerate(args) -> int:
    from domkit.tables import enumerate_tables, serialize_table

    found = enumerate_tables(args.n, _parse_axioms(args.axioms), bound=args.bound)
    print(f"count: {len(found)}")
    for i, t in enumerate(found):
        print(f"# table {i + 1}")
        sys.stdout.write(serialize_table(t))
    return 0


def _cmd_classify(args) -> int:
    print(f"type: {classify_type(parse_carrier(args.carrier))}")
    return 0


def _parse_count(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _load_table_arg(text: str):
    from domkit.tables import trivial_dom

    if text.startswith("trivial:"):
        return trivial_dom(_parse_count(text.split(":", 1)[1]))
    t = _read_table(text)
    t.zero()  # every construction needs the neutral: refuse a table without one
    return t


def _cmd_construct(args) -> int:
    from domkit.constructions import (
        InfinityExtension, MuProduct, collapse, cuts_of_dom, dual, embed_finite,
        quotient_equiv, split_at_width, to_table,
    )
    from domkit.tables import serialize_table, trivial_dom

    def embed(n):
        h = embed_finite(n)
        return "".join([f"target: {h.target.name}\n"] +
                       [f"{i} -> {h.target.fmt(h(i))}\n" for i in range(n)])

    def collapsed(d):
        return collapse(d, special_set(d, "H").contains)[0]

    load = _load_table_arg
    makers = {  # kind: (number of arguments, maker of a table or of text)
        "trivial": (1, lambda n: trivial_dom(_parse_count(n))),
        "infinity": (1, lambda t: to_table(InfinityExtension(load(t)))),
        "dual": (1, lambda t: to_table(dual(load(t)))),
        "cuts": (1, lambda t: cuts_of_dom(load(t))),
        "quot-equiv": (1, lambda t: to_table(quotient_equiv(load(t)))),
        "mu": (2, lambda s, t: to_table(MuProduct(load(s), load(t)))),
        "collapse": (1, lambda t: to_table(collapsed(load(t)))),
        "split": (2, lambda t, k: to_table(split_at_width(load(t), _parse_count(k)))),
        "embed": (1, lambda n: embed(_parse_count(n))),
    }
    if args.kind not in makers:
        raise ValueError(f"unknown construction {args.kind!r}")
    arity, maker = makers[args.kind]
    if len(args.args) != arity:
        raise ValueError(f"construct {args.kind} takes {arity} argument"
                         f"{'s' if arity > 1 else ''}, got {len(args.args)}")
    out = maker(*args.args)
    if not isinstance(out, str):
        out = serialize_table(out)
    sys.stdout.write(out)
    return 0


def _cmd_valuation(args) -> int:
    from domkit import valuations

    d = parse_carrier(args.carrier)
    makers = {
        "width": valuations.width_valuation,
        "natural": valuations.natural_valuation,
        "w": valuations.w_valuation,
        "trivial": valuations.trivial_valuation,
        "two": valuations.two_valued_valuation,
    }
    if args.which not in makers:
        raise ValueError(f"unknown valuation {args.which!r}")
    v = makers[args.which](d)
    rng = random.Random(args.seed)
    universe = d.universe(rng, min(args.samples, 40))
    for val, members in valuations.valuation_partition(v, universe):
        names = " ".join(sorted({d.fmt(x) for x in members}))
        print(f"value {v.value_fmt(val)}: {names}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with exit code 4 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="dom",
        description="exact cut arithmetic and finite carrier tooling")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=1000)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression over a carrier",
                       usage="%(prog)s [-h] --carrier CARRIER expr")
    p.add_argument("--carrier", required=True)
    # optional here only so that a literal like -inf, which argparse takes
    # for an unknown option, can be picked up below; it is still required
    p.add_argument("expr", nargs="?")
    p.set_defaults(func=_cmd_eval)
    eval_parser = p

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

    args, extra = parser.parse_known_args(argv)
    if args.command == "eval" and args.expr is None:
        if len(extra) == 1 and not extra[0].startswith("--"):
            args.expr, extra = extra[0], []
        else:
            eval_parser.error("the following arguments are required: expr")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``dom enumerate 7 | head -1``):
        # send what is still buffered to devnull, so that the flush at
        # exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CarrierTypeError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
