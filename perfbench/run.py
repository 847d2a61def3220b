#!/usr/bin/env python3
"""perfbench: the domkit benchmark.

    python3 perfbench/run.py --workload law-suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` runs the workload as a closed loop for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs a
fixed, seeded set of items once untraced and once with spans around
every public domkit function, then times single operations with no
wrappers installed, and reports the per-layer metrics.  The last line
of standard output is one JSON object; the lines before it give every
metric by name with its unit and sample count.  The exit code is 0 when
every check ran, also when known defects made some items fail, and
non-zero when a check could not run or an unexpected failure occurred.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_SAMPLES = 7
NAMES = ("law-suite", "oracle-verify", "enumerate", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def load_program():
    """Import domkit from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import domkit
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import domkit from {src}: {exc}")
    if Path(domkit.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: domkit was imported from {domkit.__file__}, not {src}")
    import workloads
    return workloads, workloads.import_layers()


def tail(samples: list) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its
    value; the maximum (percentile 100) when there are fewer than 11."""
    s = sorted(samples)
    if len(s) < 11:
        return 100.0, s[-1]
    return 100.0 * (len(s) - 10) / len(s), s[len(s) - 11]


def emit(metrics: dict, lines: list, correct: bool, attempted: int, failed: int) -> None:
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def kinds(failures: list, kind: str) -> int:
    return sum(1 for f in failures if f and f.kind == kind)


def report_failures(failures: list, lines: list) -> bool:
    """Summarize failures; True when all of them are known defects."""
    known: dict = {}
    for f in failures:
        known[f.known] = known.get(f.known, 0) + 1
    for key in sorted(k for k in known if k is not None):
        lines.append(f"known defect {key}: {known[key]} failed items")
    unexpected = [f for f in failures if f.known is None]
    for f in unexpected[:10]:
        lines.append(f"UNEXPECTED FAILURE: {f.detail}")
    return not unexpected


def kernel_s() -> float:
    """The calibration kernel's time now: median of three samples."""
    return statistics.median(calib.sample() for _ in range(3))


def setup_samples(args, own: dict) -> list:
    """Set-up time, raw and with the kernel time measured right after it,
    of this process and of fresh processes doing the same."""
    samples = [own]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1]))
    return samples


# -- untraced run -----------------------------------------------------------------


CAL_EVERY_S = 0.1


def timed_loop(wl, first, seconds: float):
    """Closed loop for ``seconds`` over whole requests of
    ``wl.request_size`` items.  Returns the calibrated request latencies,
    the raw ones, the kernel samples, the items done, the distinct items
    attempted and the failures.  A kernel sample is taken whenever 0.1 s
    of program time has passed since the last one; each item is scaled by
    the median kernel time of the samples around it.  An item repeated
    from the round counts once; a repeat whose outcome differs from the
    first is an unexpected failure."""
    from workloads import Failure, attempt

    raw, cal_at, failures = array("d"), array("l"), []
    seen: dict = {}
    distinct = 0
    cal = [calib.sample()]
    since = 0.0
    deadline = time.perf_counter() + seconds
    item = first
    while True:
        for _ in range(wl.request_size):
            item = item or wl.next_item()
            lo = len(cal) - 1
            dt, failure = attempt(wl.run, item)
            key, detail = wl.key(item), failure and failure.detail
            item = None
            if key is None or key not in seen:
                seen[key] = detail
                distinct += 1
                if failure:
                    failures.append(failure)
            elif seen[key] != detail:
                failures.append(Failure(None, f"item {key}: outcome {detail!r} on a repeat, "
                                              f"{seen[key]!r} the first time"))
            since += dt
            if since >= CAL_EVERY_S:
                cal.append(calib.sample())
                since = 0.0
            raw.append(dt)
            cal_at.append(lo)
        if time.perf_counter() >= deadline and wl.round_done():
            break
    def calibrated(i):
        lo = cal_at[i]
        return raw[i] * calib.REFERENCE_S / statistics.median(cal[max(0, lo - 1):lo + 2])

    k = wl.request_size
    starts = range(0, len(raw), k)
    return ([sum(calibrated(i) for i in range(s, s + k)) for s in starts],
            [sum(raw[s:s + k]) for s in starts], cal, len(raw), distinct, failures)


def run_untraced(args, wl, first, setup_own: float) -> int:
    lat, raw, cal, items, distinct, failures = timed_loop(wl, first, args.seconds)
    n_checks, check_failures = wl.final_checks()
    failures += check_failures
    rss_kb = wl.peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = setup_samples(args, setup_own)
    setup_raw = statistics.median(s["setup_s"] for s in setups)
    setup_cal = statistics.median(s["setup_s"] * calib.REFERENCE_S / s["kernel_s"] for s in setups)

    n = len(lat)
    pct, tail_s = tail(lat)
    attempted = distinct + n_checks
    metrics = {
        "throughput_per_s": (items / sum(lat), "1/s"),
        "request_ms.p50": (1000 * statistics.median(lat), "ms"),
        "request_ms.tail": (1000 * tail_s, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup_cal, "s"),
    }
    raw_tail = tail(raw)[1]
    lines = [
        f"workload {wl.name}: seed {args.seed}, closed loop with one client, {items} {wl.unit} "
        f"in {n} requests of {wl.request_size}, {sum(raw):.2f} s of program time; "
        f"{len(cal)} calibration samples, "
        f"median kernel {1000 * statistics.median(cal):.3f} ms "
        f"(calibrated times scale to {1000 * calib.REFERENCE_S:.1f} ms)",
        f"throughput_per_s ({wl.rate_name}) = {metrics['throughput_per_s'][0]:.4f} 1/s "
        f"calibrated, {items / sum(raw):.4f} raw (n={items} {wl.unit})",
        f"request_ms.p50 = {metrics['request_ms.p50'][0]:.4f} ms calibrated, "
        f"{1000 * statistics.median(raw):.4f} raw (n={n} requests)",
        f"request_ms.tail = {metrics['request_ms.tail'][0]:.4f} ms calibrated, "
        f"{1000 * raw_tail:.4f} raw (p{pct:.2f}, n={n} requests)",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.2f} MB",
        f"setup_s = {setup_cal:.4f} s calibrated, {setup_raw:.4f} raw "
        f"(median of {len(setups)} set-ups, each scaled by the kernel time right after it)",
        f"fail_ratio = {len(failures) / attempted:.6f} "
        f"({len(failures)} of {attempted} distinct items and checks; "
        f"{items - distinct} repeats gave the same outcome)",
    ]
    if wl.name == "enumerate":
        lines.append(f"enum.grid_s = {statistics.median(lat):.4f} s "
                     f"(calibrated median, n={n} grids)")
        for label, times in wl.cell_s.items():
            lines.append(f"tables.cell_s.{label} = {statistics.median(times):.4f} s "
                         f"(raw median, n={len(times)})")
    if wl.name == "cli":
        lines.append(f"cli.run_ms.p50 = {metrics['request_ms.p50'][0]:.4f} ms, cli.run_ms.tail = "
                     f"{metrics['request_ms.tail'][0]:.4f} ms at p{pct:.2f} (calibrated, n={n})")
    if wl.name == "oracle-verify":
        lines.append(", ".join(f"{kind} = {kinds(failures, kind)}"
                               for kind in ("oracle.errors", "oracle.mismatches")))
    correct = report_failures(failures, lines)
    emit(metrics, lines, correct, attempted, len(failures))
    return 0 if correct else 1


# -- traced run -------------------------------------------------------------------


def import_times(repeats: int = 5) -> dict:
    """Median self import time per domkit module, in ms, and the total
    under ``domkit.import_ms``, from ``python -X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import domkit.cli, domkit.oracle"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        found, total = {}, 0.0
        for line in proc.stderr.splitlines():
            fields = line[len("import time:"):].split("|")
            if not line.startswith("import time:") or not fields[0].strip().isdigit():
                continue
            self_us, cum_us, name = int(fields[0]), int(fields[1]), fields[2]
            if name.strip().startswith("domkit"):
                found[name.strip()] = self_us / 1000
                # one space after the bar marks a top-level import
                if len(name) - len(name.lstrip()) == 1:
                    total += cum_us / 1000
        found["domkit.total"] = total
        runs.append(found)
    return {key: statistics.median(r.get(key, 0.0) for r in runs) for key in runs[0]}


def op_latencies(wl, items, seed: int) -> dict:
    """Per-call latency of single operations on the workload's operands,
    with no wrappers installed: median over repeated timed loops."""
    from domkit import cuts as ct
    from domkit import oracle as orc
    from domkit import scalars as sc

    pairs = wl.operands(items, seed)
    nodes = [(d.group, a, b) for d, a, b in pairs if a.kind == "n" and b.kind == "n"]

    def safe_oracle(g, a, b):
        try:
            orc.oracle_sum(g, a, b)
            return True
        except orc.OracleError:
            return False

    oracle_ok = [(d.group, a, b) for d, a, b in pairs if safe_oracle(d.group, a, b)]
    full = [(g, a.prefix + (Fraction(0),) * a.level, b.prefix + (Fraction(0),) * b.level)
            for g, a, b in nodes]
    anchors = [(a.prefix[-1], b.prefix[-1]) for _, a, b in nodes]
    cases = {
        "cuts.add.us": (lambda: [ct.add(d.group, a, b) for d, a, b in pairs], len(pairs), 1e6),
        "cuts.radd.us": (lambda: [ct.radd(d.group, a, b) for d, a, b in pairs], len(pairs), 1e6),
        "cuts.neg.us": (lambda: [ct.neg(d.group, a) for d, a, _ in pairs], len(pairs), 1e6),
        "cuts.compare.us": (lambda: [ct.compare(d.group, a, b) for d, a, b in pairs],
                            len(pairs), 1e6),
        "cuts.make_node.us": (lambda: [ct.make_node(g, a.level, a.prefix, a.side)
                                       for g, a, _ in nodes], len(nodes), 1e6),
        "groups.add.us": (lambda: [g.add(x, y) for g, x, y in full], len(full), 1e6),
        "groups.quotient.us": (lambda: [g.quotient(a.level) for g, a, _ in nodes],
                               len(nodes), 1e6),
        "scalars.scalar_cmp.ns": (lambda: [sc.scalar_cmp(u, v) for u, v in anchors],
                                  len(anchors), 1e9),
        "scalars.scalar_floor.ns": (lambda: [sc.scalar_floor(u) for u, _ in anchors],
                                    len(anchors), 1e9),
        "oracle.oracle_sum.us": (lambda: [orc.oracle_sum(g, a, b) for g, a, b in oracle_ok],
                                 len(oracle_ok), 1e6),
    }
    out = {}
    for name, (loop, count, scale) in cases.items():
        loop()
        times = []
        spent = 0.0
        while len(times) < 5 or (spent < 0.2 and len(times) < 200):
            t0 = time.perf_counter()
            loop()
            dt = time.perf_counter() - t0
            spent += dt
            times.append(dt)
        out[name] = scale * statistics.median(times) / count
    return out


def run_traced(args, wl, first, workloads, mods) -> int:
    from tracer import Tracer
    import inputs
    import laws

    items = workloads.trace_items(wl, first)

    def one_pass(on_item=None):
        failures = []
        t0 = time.perf_counter()
        for i, item in enumerate(items):
            if on_item:
                on_item(i)
            _, failure = workloads.attempt(wl.run_in_process, item)
            failures.append(failure)
        return time.perf_counter() - t0, failures

    passes = 1 if args.workload == "enumerate" else 2
    untraced = [one_pass() for _ in range(passes)]
    untraced_s = min(t for t, _ in untraced)
    untraced_failures = untraced[0][1]
    cell_s = {label: statistics.median(t) for label, t in getattr(wl, "cell_s", {}).items()}

    tracer = Tracer(mods, [workloads, inputs, laws])
    tracer.install()
    try:
        def set_request(i):
            tracer.request = i
        traced_s, traced_failures = one_pass(set_request)
    finally:
        tracer.remove()

    n_checks, check_failures = wl.final_checks()
    ops = op_latencies(wl, items, args.seed)
    imports = import_times()
    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"spans-{wl.name}-seed{args.seed}.csv.gz"
    tracer.write(spans_path)

    metrics: dict = {}
    for layer in workloads.LAYERS:
        metrics[f"{layer}.calls"] = (tracer.entries[layer], "count")
    for layer in workloads.LAYERS:
        metrics[f"{layer}.self_pct"] = (100 * tracer.self_s[layer] / traced_s, "%")
    n_pairs = len(items) if wl.name == "oracle-verify" else 0
    for fn in ("shift_by", "compare", "member_below"):
        per = tracer.calls_from(f"cuts.{fn}", "oracle") / n_pairs if n_pairs else 0.0
        metrics[f"oracle.{fn}.per_pair"] = (per, "count")
    metrics["cuts.make_node.calls"] = (tracer.calls_of("cuts.make_node"), "count")
    metrics["groups.quotient.calls"] = (tracer.calls_of("groups.Group.quotient"), "count")
    validate_calls = tracer.calls_of("tables.validate")
    metrics["tables.validate.calls"] = (validate_calls, "count")
    returned = sum(getattr(wl, "cell_yield", {}).values())
    metrics["tables.yield"] = (returned / validate_calls if validate_calls else 0.0, "ratio")
    metrics["doms.check_axioms.calls"] = (tracer.calls_of("doms.check_axioms"), "count")
    for label, _, _ in workloads.CELLS:
        rate = wl.cell_yield[label] / cell_s[label] if label in cell_s else 0.0
        metrics[f"tables.{label}.tables_per_s"] = (rate, "1/s")
    for kind in ("oracle.errors", "oracle.mismatches"):
        metrics[kind] = (kinds(traced_failures, kind), "count")
    for name, value in ops.items():
        metrics[name] = (value, name.rsplit(".", 1)[1])
    for layer in ("domkit",) + workloads.LAYERS:
        key = "domkit.total" if layer == "domkit" else f"domkit.{layer}"
        metrics[f"{layer}.import_ms"] = (imports.get(key, 0.0), "ms")
    metrics["trace.overhead"] = (traced_s / untraced_s, "x")

    failures = [f for f in traced_failures if f] + check_failures
    same = [f and f.detail for f in traced_failures] == [f and f.detail for f in untraced_failures]
    lines = [f"workload {wl.name}: seed {args.seed}, traced run over {len(items)} fixed "
             f"{wl.unit}: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
             f"{tracer.span_count()} spans written to {spans_path.relative_to(ROOT)}"]
    for layer in workloads.LAYERS:
        lines.append(f"{layer}.self_s = {tracer.self_s[layer]:.6f} s")
    for label, secs in cell_s.items():
        lines.append(f"tables.cell_s.{label} = {secs:.4f} s (untraced)")
    lines += [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    if not same:
        lines.append("UNEXPECTED FAILURE: traced and untraced passes disagree")
    correct = report_failures(failures, lines) and same
    emit(metrics, lines, correct, len(items) + n_checks, len(failures))
    return 0 if correct else 1


# -- all workloads -----------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: workload {name} could not run")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in result["metrics"].items():
            combined[f"{name}.{key}"] = (m["value"], m["unit"])
    emit(combined, [], correct, attempted, failed)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # set-up: import, carriers and seeded inputs, up to the first timed item
    t0 = time.perf_counter()
    workloads, mods = load_program()
    wl = workloads.make(args.workload, args.seed, mods, ROOT, WORK)
    first = wl.next_item()
    setup_own = {"setup_s": time.perf_counter() - t0, "kernel_s": kernel_s()}
    if args.setup_only:
        print(json.dumps(setup_own))
        return 0
    if args.trace:
        return run_traced(args, wl, first, workloads, mods)
    return run_untraced(args, wl, first, setup_own)


if __name__ == "__main__":
    sys.exit(main())
