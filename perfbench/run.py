"""Benchmark of the incgb engines: solves, reductions and a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-direct --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One process runs one workload on one thread; ``all`` starts a fresh process
per workload, so each one's peak memory is its own.  A run sets up several
times (import, parse, query generation and, for ``reduce-queries``, the
bases) and reports the median, then repeats whole passes over the workload
while another pass fits in ``--seconds`` (at least one).  Every answer is
checked outside the timed region, after its pass.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs one untraced pass, then one pass with every public
incgb function wrapped from outside, and reports the per-layer metrics and
the tracing overhead; the spans go to a JSONL file.  Each run also appends
a full record to ``--results`` (JSONL), which ``perfbench/compare.py`` reads.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from clock import CalibratedClock
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

# Set-up repeats at least this many times, and until this much time is spent.
MIN_SETUPS = 3
SETUP_SECONDS = 1.0
MAX_SETUPS = 100


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num, den):
    return num / den if den else 0.0


class SetupFailed(Exception):
    """The workload could not be set up, so nothing was measured."""


def run_setups(clock, workload, seed):
    setups = []
    while len(setups) < MIN_SETUPS or (
        sum(i.work_s for i in setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS
    ):
        try:
            interval, (lib, state) = clock.measure(lambda: _setup(workload, seed))
        except Exception as exc:
            raise SetupFailed(f"set-up raised {type(exc).__name__}: {exc}") from exc
        setups.append(interval)
    return lib, state, setups


def _setup(workload, seed):
    lib = workloads.Lib()
    return lib, workload.setup(lib, seed)


def run_pass(clock, workload, lib, state):
    return clock.measure(lambda: workload.run_pass(lib, state, clock))


def run_passes(clock, workload, lib, state, seconds, after_pass):
    """Whole passes while another fits in ``seconds`` of pass time.

    ``after_pass(ops)`` runs outside the timed passes, after each one.
    """
    passes = []
    busy = 0.0
    while True:
        interval, ops = run_pass(clock, workload, lib, state)
        after_pass(ops)
        passes.append((interval, ops))
        last = interval.wall1 - interval.wall0
        busy += last
        if busy + last > seconds:
            return passes


def check_ops(workload, lib, state, ops, first, failures):
    """Check a pass's answers, then drop them; returns how many failed.

    ``first`` keeps the engine counters first seen for each problem.
    """
    failed = 0
    for op in ops:
        try:
            problem = workload.check(lib, state, op)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None and op.counters != first.setdefault(op.key, op.counters):
            problem = "counters differ between solves"
        if problem is not None:
            failed += 1
            failures.append(f"{op.key}: {problem}")
        op.output = None
    return failed


def end_to_end(clock, workload, passes, setups, peak_mib):
    """Metrics in calibrated time (see clock.py); details keep raw wall time.

    Every operation is timed, a failed one too, so each problem and each
    percentile has samples whatever fails; failures show in ``failed``.
    """
    ops = [op for _, pass_ops in passes for op in pass_ops]
    latencies = [clock.scaled(op.interval) for op in ops]
    metrics = {
        "setup_s": (statistics.median(clock.scaled(i) for i in setups), "s"),
        "pass_s": (statistics.median(clock.scaled(i) for i, _ in passes), "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_p99_ms": (1000 * percentile(latencies, 0.99), "ms"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }
    details = {
        "op_samples": (len(latencies), "count"),
        "passes": (len(passes), "count"),
        "setups": (len(setups), "count"),
        "setup_wall_s": (statistics.median(i.work_s for i in setups), "s"),
        "pass_wall_s": (statistics.median(i.work_s for i, _ in passes), "s"),
        "host_speed": (statistics.median(clock.factor(i.wall0, i.wall1) for i, _ in passes), "ratio"),
    }
    if workload.kind == "solve":
        details["solve_s"] = metrics["pass_s"]
        for name in workload.problems:
            times = [t for op, t in zip(ops, latencies) if op.key == name]
            details[f"solve_s.{name}"] = (statistics.median(times), "s")
    else:
        details["reduce_per_s"] = (len(latencies) / sum(clock.scaled(i) for i, _ in passes), "1/s")
        details["reduce_p50_ms"] = metrics["op_p50_ms"]
        details["reduce_p99_ms"] = metrics["op_p99_ms"]
    return metrics, details


def engine_counters(workload, ops):
    """Engine statistics of one pass, summed per engine module."""
    out = {}
    for group, keys in workloads.COUNTER_KEYS.items():
        for key in keys + ("basis_size",):
            out[f"{group}.{key}"] = 0
    if workload.kind == "solve":
        for op in ops:
            for key, value in (op.counters or {}).items():
                out[f"{workload.counter_group}.{key}"] += value
    return out


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def layer_metrics(tracer, counters, overhead_s, speed):
    """Per-layer metrics of the traced pass; self times scaled by ``speed``."""
    pass_stats = tracer.phases.get("pass", {})
    setup_stats = tracer.phases.get("setup", {})
    cli_stats = tracer.phases.get("cli", {})
    by_parent = tracer.items_by_parent.get("pass", {})

    def st(stats, name, field):
        fn = stats.get(name)
        return getattr(fn, field) if fn is not None else 0

    def calls(name):
        return st(pass_stats, name, "calls")

    def self_s(name):
        return st(pass_stats, name, "self_s") * speed

    m = {}
    m["spairs.interlacings.calls"] = calls("spairs.interlacings")
    m["spairs.interlacings.self_s"] = self_s("spairs.interlacings")
    m["spairs.interlacings.generated"] = st(pass_stats, "spairs.interlacings", "items")
    m["spairs.pairs_generated"] = st(pass_stats, "spairs.spair_generators", "items")
    m["spairs.kept_ratio"] = _ratio(m["spairs.pairs_generated"], m["spairs.interlacings.generated"])
    m["buchberger.unprocessed_pairs"] = (
        by_parent.get(("buchberger.egb_buchberger", "spairs.spair_generators"), 0)
        - counters["buchberger.pairs_processed"]
    )
    m["rings.pi_div_witnesses.calls"] = calls("rings.pi_div_witnesses")
    m["rings.pi_div_witnesses.self_s"] = self_s("rings.pi_div_witnesses")
    m["rings.pi_div_witnesses.hit_ratio"] = _ratio(
        st(pass_stats, "rings.pi_div_witnesses", "hits"), m["rings.pi_div_witnesses.calls"]
    )
    m["rings.pi_divides.calls"] = calls("rings.pi_divides")
    m["incmaps.extend_partial.calls"] = calls("incmaps.extend_partial")
    m["incmaps.extend_partial.self_s"] = self_s("incmaps.extend_partial")
    m["poly.poly.calls"] = calls("poly.poly")
    m["poly.poly.self_s"] = self_s("poly.poly")
    m["poly.poly.terms_in"] = st(pass_stats, "poly.poly", "items")
    m["rings.compare.calls"] = calls("rings.compare")
    m["poly.normal_form.calls"] = calls("poly.normal_form")
    m["poly.normal_form.self_s"] = self_s("poly.normal_form")
    m["poly.normal_form.zero_ratio"] = _ratio(
        st(pass_stats, "poly.normal_form", "hits"), m["poly.normal_form.calls"]
    )
    for name in ("subtract", "mul_term", "act"):
        m[f"poly.{name}.calls"] = calls(f"poly.{name}")
    for key in ("pairs_processed", "zero_reductions", "insertions"):
        m[f"buchberger.{key}"] = counters[f"buchberger.{key}"]
    m["buchberger.useful_pair_ratio"] = _ratio(
        counters["buchberger.insertions"], counters["buchberger.pairs_processed"]
    )
    m["buchberger.basis_size"] = counters["buchberger.basis_size"]
    m["buchberger.levels"] = counters["buchberger.levels"]
    m["buchberger.autoreduce.calls"] = calls("buchberger.autoreduce")
    for name in ("autoreduce", "classical_buchberger", "is_egb", "orbit_truncate"):
        m[f"buchberger.{name}.self_s"] = self_s(f"buchberger.{name}")
    for key in (
        "pairs_processed",
        "zero_reductions",
        "covered_pairs",
        "singular_discards",
        "duplicate_signatures",
        "syzygies",
        "tied_zero_reductions",
    ):
        m[f"signature.{key}"] = counters[f"signature.{key}"]
    m["signature.useful_pair_ratio"] = _ratio(
        counters["signature.insertions"], counters["signature.pairs_processed"]
    )
    m["signature.is_covered.calls"] = calls("signature.is_covered")
    m["signature.is_covered.self_s"] = self_s("signature.is_covered")
    m["signature.is_covered.true_ratio"] = _ratio(
        st(pass_stats, "signature.is_covered", "hits"), m["signature.is_covered.calls"]
    )
    m["signature.tm_left_quotients.calls"] = calls("signature.tm_left_quotients")
    m["signature.regular_top_reduce.calls"] = calls("signature.regular_top_reduce")
    m["signature.regular_top_reduce.self_s"] = self_s("signature.regular_top_reduce")
    m["signature.j_pairs.calls"] = calls("signature.j_pairs")
    m["signature.j_pairs.emitted"] = st(pass_stats, "signature.j_pairs", "items")
    m["incmaps.tau_to_map.calls"] = calls("incmaps.tau_to_map")
    m["incmaps.standard_form.calls"] = calls("incmaps.standard_form")
    m["problems.parse.self_s"] = st(setup_stats, "problems.parse", "self_s") * speed
    m["cli.main.calls"] = st(cli_stats, "cli.main", "calls")
    m["cli.main.self_s"] = st(cli_stats, "cli.main", "self_s") * speed
    m["trace.overhead_s"] = overhead_s
    return m


def run_one(args):
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    # One attempted operation each: the set-up, every timed solve or query,
    # and the CLI check of each problem; failures lists what went wrong.
    failures = []
    failed = 0
    first = {}

    def after_pass(ops):
        nonlocal failed
        failed += check_ops(workload, lib, state, ops, first, failures)

    with CalibratedClock() as clock:
        lib, state, setups = run_setups(clock, workload, args.seed)
        if args.trace:
            plain = run_pass(clock, workload, lib, state)
            tracer = Tracer(clock.work_now)
            tracer.install([lib.package] + lib.modules)
            try:
                tracer.start_phase("setup")
                workload.setup(lib, args.seed)
                tracer.start_phase("pass")
                traced = run_pass(clock, workload, lib, state)
                tracer.start_phase("cli")
                cli_outcomes = workloads.cli_determinism(lib)
            finally:
                tracer.uninstall()
            passes = [plain, traced]
            for _, ops in passes:
                after_pass(ops)
        else:
            passes = run_passes(clock, workload, lib, state, args.seconds, after_pass)
            cli_outcomes = workloads.cli_determinism(lib)
    peak_mib = peak_rss_mib()  # before the set-up checks below

    try:
        setup_failures = workload.setup_failures(lib, state)
    except Exception as exc:
        setup_failures = [f"check raised {type(exc).__name__}: {exc}"]
    failures += [f"set-up: {msg}" for msg in setup_failures]
    failed += 1 if setup_failures else 0
    attempted = 1 + len(cli_outcomes) + sum(len(ops) for _, ops in passes)
    for msg in cli_outcomes:
        if msg is not None:
            failed += 1
            failures.append(msg)

    counters = engine_counters(workload, passes[0][1])
    metrics, details = end_to_end(clock, workload, passes[:1] if args.trace else passes, setups, peak_mib)
    details["failed_ratio"] = (failed / attempted, "ratio")
    if args.trace:
        overhead = clock.scaled(traced[0]) - clock.scaled(plain[0])
        speed = clock.factor(traced[0].wall0, traced[0].wall1)
        layers = layer_metrics(tracer, counters, overhead, speed)
        metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "details": {k: v for k, (v, _) in details.items()},
        "counters": counters,
    }
    return record, metrics, details, tracer


def print_table(title, rows):
    print(title)
    for name, (value, unit) in rows.items():
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:40s} {text:>14s} {unit}")


def write_outputs(args, record, tracer):
    out = Path(args.results)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    if tracer is not None:
        path = out.parent / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path, {"workload": args.workload, "seed": args.seed})
        print(f"trace written to {path}")


def run_all(args):
    """Each workload in a fresh process; prints every table and one summary.

    A workload that exits with an error counts as one failed operation.
    """
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
            "--results",
            args.results,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            summary["correct"] = False
            summary["attempted"] += 1
            summary["failed"] += 1
            code = 1
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = value
    print(json.dumps(summary))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=".perfbench_out/results.jsonl")
    args = parser.parse_args(argv)

    if not (SRC / "incgb" / "__init__.py").is_file():
        print(f"incgb sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    try:
        record, metrics, details, tracer = run_one(args)
    except SetupFailed as exc:
        print(f"FAILED {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print_table("metrics", metrics)
    print_table("details", details)
    for msg in record["failures"]:
        print(f"FAILED {msg}")
    write_outputs(args, record, tracer)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
