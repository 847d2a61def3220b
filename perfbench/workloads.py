"""The four workloads.

Each workload is a closed loop with one client: ``next_item`` makes the
next seeded input outside any timer, ``run`` does the item and returns
the seconds spent in the program and a ``Failure`` or None.  A failure
names the known defect it reproduces (see ``expected.json``), or None
when it is unexpected.  ``final_checks`` runs the checks that need the
whole run, after the timed loop.

Except on ``law-suite``, whose tuples are drawn fresh without end, a run
repeats a fixed seeded round of items for as long as it measures.
``key`` names an item within its round: the item is counted and checked
once, and each repeat must give the same outcome.  So the items attempted
and failed depend on the seed alone, not on how many repeats fit.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import inputs
import laws
import tables_ref

LAYERS = ("scalars", "groups", "cuts", "oracle", "doms", "tables",
          "constructions", "valuations", "cli")
HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())
DOM_AXIOMS = frozenset({"MA", "MB", "MCa", "MCb"})
clock = time.perf_counter


def import_layers() -> dict:
    return {layer: importlib.import_module(f"domkit.{layer}") for layer in LAYERS}


@dataclass
class Failure:
    known: str | None
    detail: str
    kind: str = ""


def attempt(run, item):
    """``run(item)``; an exception is a failed item and the loop goes on."""
    t0 = clock()
    try:
        return run(item)
    except Exception as exc:  # noqa: BLE001 - any crash is a measured failure
        return clock() - t0, Failure(None, f"{type(exc).__name__}: {exc}")


class Workload:
    request_size = 1
    peak_rss_kb = None  # set by workloads whose program runs in child processes

    def round_done(self) -> bool:
        """Whether the loop may stop after the current request."""
        return True

    def key(self, item):
        """The item's place in the run's fixed round, or None when every
        item is fresh."""
        return None

    def final_checks(self) -> tuple[int, list]:
        """Checks run once after the loop: their number and failures."""
        return 0, []

    def run_in_process(self, item):
        """The item done inside this process, as the traced run needs."""
        return self.run(item)

    def operands(self, items, seed: int, count: int = 200) -> list:
        """(carrier, a, b) operands for the unwrapped per-op latencies.
        Workloads without cut operands use the oracle-verify pairs of the
        same seed."""
        carriers = inputs.make_carriers()
        stream = inputs.oracle_pairs(seed, carriers)
        return [(carriers[name], a, b) for name, (a, b) in itertools.islice(stream, count)]


# -- law-suite -------------------------------------------------------------------


class LawSuite(Workload):
    """The 27 derived laws on fresh seeded 4-tuples, carriers in turn."""

    name = "law-suite"
    unit = "tuples"
    rate_name = "law.tuples_per_s"
    request_size = 200
    trace_count = 500

    def __init__(self, seed: int, mods: dict, root: Path, work: Path):
        self.carriers = inputs.make_carriers()
        self.stream = inputs.law_tuples(seed, self.carriers)

    def next_item(self):
        return next(self.stream)

    def run(self, item):
        name, tup = item
        d = self.carriers[name]
        t0 = clock()
        bad = laws.tuple_failures(d, tup)
        dt = clock() - t0
        if bad:
            return dt, Failure(None, f"{name}: laws {bad} fail on "
                                     f"{' '.join(d.fmt(c) for c in tup)}")
        return dt, None

    def final_checks(self) -> tuple[int, list]:
        failures = [Failure(None, f"{name}: law 2 fails")
                    for name, d in self.carriers.items() if not laws.closed_law_holds(d)]
        return len(self.carriers), failures

    def operands(self, items, seed: int, count: int = 200) -> list:
        return [(self.carriers[name], t[1], t[2]) for name, t in items[:count]]


# -- oracle-verify ------------------------------------------------------------------


def _irrational_anchor(cut) -> bool:
    return cut.kind == "n" and getattr(cut.prefix[-1], "b", 0) != 0


class OracleVerify(Workload):
    """Engine sums and differences against the sup-of-shifts oracle.  A
    round is the first ``round_size`` pairs of the seeded stream, made as
    the first pass reaches them; an item is (place in the round, carrier
    name, pair)."""

    name = "oracle-verify"
    unit = "pairs"
    rate_name = "oracle.pairs_per_s"
    request_size = 80
    round_size = 4000
    trace_count = 1000

    def __init__(self, seed: int, mods: dict, root: Path, work: Path):
        self.oracle = mods["oracle"]
        self.carriers = inputs.make_carriers()
        self.stream = inputs.oracle_pairs(seed, self.carriers)
        self.round: list = []
        self.done = 0

    def next_item(self):
        if len(self.round) < self.round_size:
            self.round.append((len(self.round),) + next(self.stream))
        item = self.round[self.done % self.round_size]
        self.done += 1
        return item

    def round_done(self) -> bool:
        return self.done >= self.round_size

    def key(self, item):
        return item[0]

    def run(self, item):
        _, name, (a, b) = item
        d = self.carriers[name]
        g = d.group
        orc = self.oracle
        t0 = clock()
        try:
            got = (d.add(a, b), orc.oracle_sum(g, a, b),
                   d.radd(a, b), orc.oracle_radd(g, a, b),
                   d.rsub(a, b), orc.oracle_diff(g, "right", a, b),
                   d.lsub(a, b), orc.oracle_diff(g, "left", a, b))
        except orc.OracleError as exc:
            dt = clock() - t0
            known = "a" if (name == "cuts(Q,r2)" and "not approached" in str(exc)
                            and (_irrational_anchor(a) or _irrational_anchor(b))) else None
            return dt, Failure(known, f"{name}: OracleError {exc} on {d.fmt(a)}, {d.fmt(b)}",
                               "oracle.errors")
        dt = clock() - t0
        for op, i in zip(("add", "radd", "rsub", "lsub"), range(0, 8, 2)):
            if got[i] != got[i + 1]:
                return dt, Failure(None, f"{name}: {op}({d.fmt(a)}, {d.fmt(b)}) engine "
                                         f"{d.fmt(got[i])} oracle {d.fmt(got[i + 1])}",
                                   "oracle.mismatches")
        return dt, None

    def operands(self, items, seed: int, count: int = 200) -> list:
        return [(self.carriers[name], a, b) for _, name, (a, b) in items[:count]]


# -- enumerate -------------------------------------------------------------------

# (label, n, axioms); the label names the axiom set and the size
CELLS = (
    ("predom-7", 7, ()),
    ("ma_mb-9", 9, ("MA", "MB")),
    ("mb-7", 7, ("MB",)),
    ("ma_mb_mcprime-8", 8, ("MA", "MB", "MCprime")),
    ("dom-14", 14, ("MA", "MB", "MCa", "MCb")),
    ("predom-4", 4, ()),
    ("ma_mb_mcb-4", 4, ("MA", "MB", "MCb")),
)


class Enumerate(Workload):
    """A grid of exhaustive table searches.  An item is one cell; a
    request is one pass over the grid, its cells in a seeded order."""

    name = "enumerate"
    unit = "cells"
    rate_name = "enum.cells_per_s"
    request_size = len(CELLS)
    trace_count = len(CELLS)

    def __init__(self, seed: int, mods: dict, root: Path, work: Path):
        self.tables = mods["tables"]
        self.rng = inputs.rng_for(seed, "enumerate")
        self.queue: list = []
        self.first: dict = {}
        self.cell_s: dict = {label: [] for label, _, _ in CELLS}
        self.cell_yield: dict = {}

    def next_item(self):
        if not self.queue:
            self.queue = list(CELLS)
            self.rng.shuffle(self.queue)
        return self.queue.pop()

    def key(self, cell):
        return cell[0]

    def run(self, cell):
        label, n, axioms = cell
        t0 = clock()
        found = self.tables.enumerate_tables(n, set(axioms), bound=n)
        dt = clock() - t0
        self.cell_s[label].append(dt)
        self.cell_yield[label] = len(found)
        plus = tuple(t.plus for t in found)
        expected = EXPECTED["enumerate_counts"][label]
        if len(plus) != expected:
            return dt, Failure(None, f"{label}: {len(plus)} tables, recorded {expected}")
        if label in self.first:
            if hash(plus) != self.first[label]:
                return dt, Failure(None, f"{label}: result changed between passes")
            return dt, None
        # the first result of a cell is checked in full and kept as a hash,
        # so that the benchmark holds no second copy of the tables
        self.first[label] = hash(plus)
        problem = _cell_problem(n, axioms, plus)
        return dt, problem and Failure(None, f"{label}: {problem}")


def _cell_problem(n, axioms, plus):
    if not tables_ref.canonical(plus):
        return "not unique in canonical order"
    if not all(tables_ref.passes(t, axioms) for t in plus):
        return "a table fails the reference check"
    if frozenset(axioms) == DOM_AXIOMS and plus != (tables_ref.trivial(n),):
        return "not the unique trivial table"
    if n <= 4 and list(plus) != [t for t in tables_ref.brute_force(n)
                                 if tables_ref.passes(t, axioms)]:
        return "differs from the brute-force enumeration"
    return None


# -- cli ------------------------------------------------------------------------


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


class Cli(Workload):
    """The `dom` command as users run it: one fresh process per
    invocation, one at a time; one round runs every invocation once in
    a seeded order."""

    name = "cli"
    unit = "invocations"
    rate_name = "cli.invocations_per_s"
    trace_count = len(EXPECTED["cli"])
    timeout_s = 120

    def __init__(self, seed: int, mods: dict, root: Path, work: Path):
        self.cli = mods["cli"]
        self.root = root
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        for fname, rows in EXPECTED["tables"].items():
            (work / fname).write_text(tables_ref.serialize(rows))
        self.invocations = [dict(spec, argv=[a.replace("{work}", str(work)) for a in spec["argv"]])
                            for spec in EXPECTED["cli"]]
        self.rng = inputs.rng_for(seed, "cli")
        self.queue: list = []
        # the recorded outputs are for the default seed, in and out of process
        os.environ.pop("DOMKIT_SEED", None)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.peak_rss_kb = 0

    def next_item(self):
        if not self.queue:
            self.queue = list(self.invocations)
            self.rng.shuffle(self.queue)
        return self.queue.pop()

    def round_done(self) -> bool:
        return not self.queue

    def key(self, spec):
        return spec["id"]

    def _spawn(self, argv):
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            old = signal.signal(signal.SIGALRM, _alarm)
            t0 = clock()
            proc = subprocess.Popen([sys.executable, "-m", "domkit", *argv], stdout=out,
                                    stderr=err, cwd=self.root, env=self.env)
            try:
                signal.alarm(self.timeout_s)
                _, status, usage = os.wait4(proc.pid, 0)
            except Timeout:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, old)
            dt = clock() - t0
            # reaped by wait4 for its resource usage; tell Popen the outcome
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return dt, proc.returncode, out.read().decode(), err.read().decode()

    def run(self, spec):
        dt, code, out, err = self._spawn(spec["argv"])
        return dt, self.check(spec, code, out, "Traceback (most recent call last)" in err)

    def run_in_process(self, spec):
        """The traced form: ``cli.main(argv)`` with output captured."""
        out, err = io.StringIO(), io.StringIO()
        crashed = False
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(spec["argv"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # noqa: BLE001 - a traceback is the failure being measured
                traceback.print_exc()
                code, crashed = 1, True
        return clock() - t0, self.check(spec, code, out.getvalue(), crashed)

    def check(self, spec, code: int, out: str, crashed: bool):
        problem = _cli_problem(spec, code, out, crashed)
        if problem is None:
            return None
        known = spec.get("known_defect") if crashed else None
        return Failure(known, f"{spec['id']}: {problem}")


def _cli_problem(spec, code: int, out: str, crashed: bool):
    if crashed:
        return f"traceback, exit {code}"
    codes = spec.get("codes", [spec.get("code")])
    if "verdicts" in spec:
        v = tables_ref.verdicts(EXPECTED["tables"][spec["verdicts"]])
        codes = [0 if all(v.values()) else 1]
        lines = out.splitlines()
        want = [(label, v[key]) for key, label in tables_ref.LABELS]
        if len(lines) != len(want) or not all(
                line == f"{label}: PASS" if ok else line.startswith(f"{label}: FAIL")
                for line, (label, ok) in zip(lines, want)):
            return "verdicts differ from the reference validator"
    if code not in codes:
        return f"exit {code}, expected {codes}"
    if "stdout" in spec and out != spec["stdout"]:
        return f"stdout {out!r}, expected {spec['stdout']!r}"
    if "golden" in spec and out != spec["golden"]:
        return "stdout differs from the recorded output"
    if "trivial" in spec and out != tables_ref.serialize(tables_ref.trivial(spec["trivial"])):
        return "not the trivial table"
    if spec.get("dom_table"):
        rows = [tuple(int(v) for v in line.split()) for line in out.splitlines()[1:]]
        if not tables_ref.passes(tuple(rows), DOM_AXIOMS):
            return "output table fails the dom axioms"
    if "enumerate" in spec:
        want = spec["enumerate"]
        try:
            count, found = tables_ref.parse_tables(out)
        except (ValueError, IndexError) as exc:
            return f"unreadable enumeration: {exc}"
        if count != want["count"] or len(found) != count:
            return f"count {count} with {len(found)} tables, recorded {want['count']}"
        if not tables_ref.canonical(found):
            return "tables not unique in canonical order"
        if not all(tables_ref.passes(t, want["axioms"]) for t in found):
            return "a table fails the reference check"
    return None


WORKLOADS = {w.name: w for w in (LawSuite, OracleVerify, Enumerate, Cli)}


def make(name: str, seed: int, mods: dict, root: Path, work: Path) -> Workload:
    return WORKLOADS[name](seed, mods, root, work)


def trace_items(wl, first) -> list:
    """The fixed items of a traced run: the first ones of the seeded stream."""
    return [first] + [wl.next_item() for _ in range(wl.trace_count - 1)]
