"""goalc benchmark: closed-loop ticks, compile scaling, verify throughput.

    python3 bench/run.py --workload {loop_bsn,compile_sweep,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; goalc is imported from ``src/``.  With
``--trace 0`` the chosen workload repeats fixed passes for ``S`` seconds and
the end-to-end metrics are printed.  With ``--trace 1`` two traced passes of every
workload are made (whatever ``--workload`` names), alternating with
untraced loop_bsn passes, and the per-layer metrics are printed; spans go to ``.bench_out/``.  The
last stdout line is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``bench/README.md``.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

try:
    import goalc
except ImportError:
    goalc = None
if goalc is None or not os.path.abspath(goalc.__file__).startswith(os.path.join(ROOT, "src")):
    sys.exit("bench: goalc sources not found under ./src; run from the repository root")

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("loop_bsn", "compile_sweep", "verify")
SETUP_PROBES = 11  # fresh processes timed for setup_s; the median is reported
VERIFY_TRIAL_BUDGET = 1.0  # seconds
OUT_DIR = os.path.join(ROOT, ".bench_out")


def load_kit(workload: str, seed: int):
    return {"loop_bsn": wl.LoopKit, "compile_sweep": wl.SweepKit,
            "verify": wl.VerifyKit}[workload].load(seed)


def tail(values):
    """The highest percentile with ten samples beyond it: the 11th largest.

    With ten samples or fewer no percentile has ten beyond it, and the
    largest is reported.
    """
    ordered = sorted(values, reverse=True)
    return ordered[10] if len(ordered) > 10 else ordered[0]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- setup_s -----------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from the start of a fresh process to the end of its set-up.

    Set-up is import, bundled-data load and the workload's kit (for loop_bsn:
    parse, compile and load_policy).  Both clocks are CLOCK_MONOTONIC.
    """
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


# -- end-to-end runs -----------------------------------------------------------


class SetupProber:
    """Takes the ``SETUP_PROBES`` set-up samples, spread over the run.

    ``gap`` is called between units of work; it takes a probe when one is due,
    so that one slow spell of the host does not hit every probe.  Probe time
    is kept out of the measured time.
    """

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload, self.seed = workload, seed
        self.interval = seconds / SETUP_PROBES
        self.samples = []
        self.start = time.perf_counter()
        self.spent = 0.0

    def measured(self) -> float:
        return time.perf_counter() - self.start - self.spent

    def gap(self) -> None:
        if len(self.samples) < SETUP_PROBES and \
                self.measured() >= len(self.samples) * self.interval:
            begin = time.perf_counter()
            self.samples.append(setup_probe(self.workload, self.seed))
            self.spent += time.perf_counter() - begin

    def median(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self.samples.append(setup_probe(self.workload, self.seed))
        return statistics.median(self.samples)


def measure(workload: str, kit, seed: int, seconds: float) -> dict:
    """Repeat passes for ``seconds``; return op times, error counts, set-up time."""
    ops, busy, attempted, failed, in_budget, budgeted = [], 0.0, 0, 0, 0, 0
    rss_cap = float("inf")  # peak RSS when the first over-budget case started
    prober = SetupProber(workload, seed, seconds)
    index = 0
    while not ops or prober.measured() < seconds:
        if workload == "loop_bsn":
            result = wl.loop_pass(kit, index, gap=prober.gap)
            failed += wl.check_loop(kit, result)
            attempted += result.attempted
            ops.extend(result.ticks)
            busy += result.run_seconds
            budgeted += len(result.ticks)
            in_budget += sum(1 for s in result.ticks if s <= result.tick_period)
        elif workload == "compile_sweep":
            results = wl.sweep_pass(kit, gap=prober.gap)
            elapsed = wl.budgeted_seconds(results)
            ops.append(elapsed)
            busy += elapsed
            for case in results:
                attempted += 1
                failed += not wl.check_case(kit, case)
                budgeted += 1
                in_budget += not case.aborted
                if case.aborted:
                    rss_cap = min(rss_cap, case.rss_before)
        else:
            result = wl.verify_pass(kit, index)
            ops.extend(result.trial_seconds)
            busy += result.seconds
            attempted += result.attempted
            failed += result.failed
            budgeted += len(result.trial_seconds)
            in_budget += sum(1 for s in result.trial_seconds if s <= VERIFY_TRIAL_BUDGET)
            prober.gap()
        index += 1
    return {"ops": ops, "busy": busy, "attempted": attempted, "failed": failed,
            "within_budget": in_budget / budgeted, "setup": prober.median(),
            "rss": min(rss_cap, peak_rss_mb())}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    kit = load_kit(workload, seed)
    run = measure(workload, kit, seed, seconds)
    ops_ms = [s * 1000.0 for s in run["ops"]]
    metrics = {
        "setup_s": metric(run["setup"], "s"),
        "peak_rss_mb": metric(run["rss"], "MB"),
        "ok_share": metric(1.0 - run["failed"] / run["attempted"], "share"),
        "ops_per_s": metric(len(ops_ms) / run["busy"], "1/s"),
        "op_ms_p50": metric(statistics.median(ops_ms), "ms"),
        "op_ms_tail": metric(tail(ops_ms), "ms"),
        "within_budget_share": metric(run["within_budget"], "share"),
    }
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


# -- traced run ------------------------------------------------------------------


#: Counts that must repeat exactly between the two traced passes.
EXACT_PREFIXES = (
    "symexpr.exprs_built", "symexpr.terms", "symexpr.render.bytes",
    "symexpr.evaluate.calls", "runtime.plan.searches", "runtime.plan.candidates",
    "runtime.execute.commands", "runtime.monitor_ingest.events", "bsnsim.events",
    "oracle.cost_applicable", "oracle.trials", "prismgen.bytes",
)


def traced_passes(kits: dict) -> dict:
    """One traced pass of every workload, each with its own tracer."""
    out = {}
    for workload in WORKLOADS:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            if workload == "loop_bsn":
                result = wl.loop_pass(kits[workload], 0, tracer)
            elif workload == "compile_sweep":
                result = wl.sweep_pass(kits[workload], tracer)
            else:
                result = wl.verify_pass(kits[workload], 0, tracer)
        finally:
            tracer.uninstall()
        out[workload] = (tracer, result)
    return out


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def layer_metrics(passes: dict, kits: dict) -> dict:
    """Per-layer metrics of one traced pass of every workload (values, units)."""
    m = {}
    summaries = {w: t.summary() for w, (t, _) in passes.items()}

    # Self time per layer and the span accounting over all three workloads.
    layers = ("cgm", "compiler", "symexpr", "runtime", "bsnsim", "oracle", "prismgen", "cli")
    for layer in layers:
        m[f"{layer}.self_ms"] = (_ms(sum(s["self_by_layer"].get(layer, 0.0)
                                         for s in summaries.values())), "ms")
    root_s = sum(s["root_s"] for s in summaries.values())
    m["trace.accounted_share"] = (sum(s["self_s"] for s in summaries.values()) / root_s,
                                  "share")
    m["cgm.parse_model.ms"] = (_ms(sum(sum(s["durations"].get("cgm.parse_model", []))
                                       for s in summaries.values())), "ms")

    # loop_bsn
    tracer, result = passes["loop_bsn"]
    s = summaries["loop_bsn"]
    d = s["durations"]
    plans = {i for i, rec in enumerate(tracer.spans) if rec[0] == "runtime.plan"}
    searches = {rec[3] for rec in tracer.spans
                if rec[0] == "symexpr.rename_params" and rec[3] in plans}
    grid_evals = sum(1 for rec in tracer.spans
                     if rec[0] == "symexpr.evaluate" and rec[3] in plans)
    n_props = len(kits["loop_bsn"].policy.properties)
    m["symexpr.evaluate.calls"] = (len(d["symexpr.evaluate"]), "count")
    m["symexpr.evaluate.us_p50"] = (statistics.median(d["symexpr.evaluate"]) * 1e6, "us")
    m["symexpr.evaluate.ms"] = (_ms(sum(d["symexpr.evaluate"])), "ms")
    m["symexpr.substitute.ms"] = (_ms(sum(d.get("symexpr.substitute", [0.0]))), "ms")
    m["symexpr.rename_params.ms"] = (_ms(sum(d.get("symexpr.rename_params", [0.0]))), "ms")
    m["runtime.analyze.ms_p50"] = (_ms(statistics.median(d["runtime.analyze"])), "ms")
    m["runtime.monitor_ingest.ms_p50"] = (_ms(statistics.median(d["runtime.monitor_ingest"])), "ms")
    m["runtime.monitor_ingest.events"] = (tracer.counts["runtime.monitor_ingest.events"], "count")
    m["runtime.plan.self_ms"] = (_ms(s["self_by_name"]["runtime.plan"]), "ms")
    m["runtime.plan.searches"] = (len(searches), "count")
    m["runtime.plan.candidates"] = (grid_evals // n_props, "count")
    m["runtime.execute.commands"] = (tracer.counts["runtime.execute.commands"], "count")
    m["bsnsim.World.step.ms_p50"] = (_ms(statistics.median(d["bsnsim.World.step"])), "ms")
    m["bsnsim.events"] = (tracer.counts["bsnsim.events"], "count")
    m["bsnsim.in_band_share"] = (wl.in_band_share(kits["loop_bsn"], result), "share")
    m["bsnsim.traced_ticks_per_s"] = (len(result.ticks) / result.run_seconds, "1/s")

    # compile_sweep
    tracer, results = passes["compile_sweep"]
    d = summaries["compile_sweep"]["durations"]
    by_case = {}
    for rec in tracer.spans:
        if rec[0] == "compiler.compile_model":
            by_case[rec[4].split("/")[-1]] = rec[2] - rec[1]
    prism_bytes = 0
    for case in results:
        name = case.case
        m[f"compiler.compile_model.ms.{name}"] = (_ms(by_case.get(name, case.seconds)), "ms")
        m[f"symexpr.exprs_built.{name}"] = (case.built, "count")
        terms, size = wl.case_sizes(case) if case.output else (0, 0)
        m[f"symexpr.terms.{name}"] = (terms, "count")
        m[f"symexpr.render.bytes.{name}"] = (size, "bytes")
        if case.output:
            prism_bytes += len(case.output[3].encode("utf-8"))
    m["symexpr.render.ms"] = (_ms(sum(d.get("symexpr.render", []))), "ms")
    m["prismgen.emit_model.ms"] = (_ms(sum(d.get("prismgen.emit_model", []))), "ms")
    m["prismgen.emit_properties.ms"] = (_ms(sum(d.get("prismgen.emit_properties", []))), "ms")
    m["prismgen.bytes"] = (prism_bytes, "bytes")

    # verify
    tracer, result = passes["verify"]
    s = summaries["verify"]
    d = s["durations"]
    m["compiler.compile_model.ms"] = (_ms(sum(d["compiler.compile_model"])), "ms")
    m["oracle.prob_reach.ms"] = (_ms(sum(d["oracle.prob_reach"])), "ms")
    m["oracle.cost_reach.ms"] = (_ms(sum(d.get("oracle.cost_reach", []))), "ms")
    m["oracle.check_formula.ms"] = (_ms(sum(d["oracle.check_formula"])), "ms")
    m["oracle.cost_applicable"] = (result.cost_applicable, "count")
    m["oracle.trials"] = (result.attempted, "count")
    m["cli.main.self_ms"] = (_ms(s["self_by_name"]["cli.main"]), "ms")
    return m


def exact_counts(m: dict, passes: dict) -> dict:
    """The exact counts of a traced pass; cases aborted by the budget are left out."""
    aborted = {c.case for c in passes["compile_sweep"][1] if c.aborted}
    return {k: v for k, (v, _) in m.items()
            if k.startswith(EXACT_PREFIXES) and k.rsplit(".", 1)[-1] not in aborted}


def check_pass(workload: str, kit, result) -> tuple:
    """(attempted, failed) of one traced pass, by the same checks as untraced runs."""
    if workload == "loop_bsn":
        return result.attempted, wl.check_loop(kit, result)
    if workload == "compile_sweep":
        return len(result), sum(not wl.check_case(kit, c) for c in result)
    return result.attempted, result.failed


def traced(workload: str, seed: int) -> dict:
    kits = {w: load_kit(w, seed) for w in WORKLOADS}
    attempted = failed = 0
    runs = []
    # Untraced and traced loop passes alternate, so warm-up and drift in the
    # host's speed fall on both sides of the overhead.
    ticks = {True: 0, False: 0}
    busy = {True: 0.0, False: 0.0}
    for _ in range(2):
        untraced = wl.loop_pass(kits["loop_bsn"])
        ticks[False] += len(untraced.ticks)
        busy[False] += untraced.run_seconds
        passes = traced_passes(kits)
        ticks[True] += len(passes["loop_bsn"][1].ticks)
        busy[True] += passes["loop_bsn"][1].run_seconds
        for w, (_, result) in passes.items():
            a, f = check_pass(w, kits[w], result)
            attempted += a
            failed += f
        runs.append((passes, layer_metrics(passes, kits)))
    (passes, m), (passes_b, m_b) = runs
    counts_a, counts_b = exact_counts(m, passes), exact_counts(m_b, passes_b)
    repeat_ok = counts_a == counts_b
    if not repeat_ok:
        for key in sorted(counts_a):
            if counts_a[key] != counts_b.get(key):
                print(f"bench: count {key} differs: {counts_a[key]} vs {counts_b.get(key)}",
                      file=sys.stderr)
    m["trace.overhead.ticks_per_s"] = (ticks[True] / busy[True] - ticks[False] / busy[False],
                                       "1/s")
    m["trace.spans"] = (sum(len(t.spans) for t, _ in passes.values()), "count")
    os.makedirs(OUT_DIR, exist_ok=True)
    for w, (tracer, _) in passes.items():
        tracer.write(os.path.join(OUT_DIR, f"spans-{w}-seed{seed}.jsonl.gz"))
    metrics = {k: metric(v, u) for k, (v, u) in sorted(m.items())}
    return {"correct": failed == 0 and repeat_ok, "attempted": attempted,
            "failed": failed, "metrics": metrics}, repeat_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        load_kit(args.workload, args.seed)
        print(repr(time.monotonic()))
        return 0
    if args.trace:
        result, repeat_ok = traced(args.workload, args.seed)
    else:
        result, repeat_ok = end_to_end(args.workload, args.seed, args.seconds), True
    print(json.dumps(result))
    return 0 if repeat_ok else 1


if __name__ == "__main__":
    sys.exit(main())
