"""The three benchmark workloads: set-up, one timed pass, and output checks.

Every workload is closed loop and single process: the next operation starts
only when the previous one has returned.  goalc is driven only through its
public functions, looked up as module attributes at call time so that the
tracing wrappers see every call.  A *pass* is a fixed amount of work; the
runner repeats passes until the measuring time is used up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import gzip
import io
import json
import math
import os
import random
import resource
import signal
import time
from typing import Dict, List, Optional, Tuple

from goalc import bsnsim, bundled, cgm, cli, compiler, oracle, runtime, symexpr

import sweep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "bench", "reference")
TOLERANCE = 1e-9

# -- loop_bsn ----------------------------------------------------------------

SCENARIOS = (
    "scenario_nominal.json", "scenario_hub_degradation.json",
    "scenario_miscommissioned.json", "scenario_battery_cycling.json",
)
MODES = ("Tamed", "Untamed")
POST_TRANSIENT = 30.0  # settling ticks excluded from the in-band share


class TickClock:
    """Times loop iterations from one ``World.step`` entry to the next.

    On the sampled ticks it also snapshots ``World.truth_bindings()`` right
    after the step; the snapshot's own time is taken out of that tick.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.marks: List[float] = []
        self.excluded: List[float] = []
        self.sample: Dict[int, dict] = {}
        self.sample_at: frozenset = frozenset()
        self.run_id = ""
        self._step = None

    def __enter__(self) -> "TickClock":
        original = self._step = bsnsim.World.step
        clock, marks, excluded = time.perf_counter, self.marks, self.excluded

        def timed_step(world, t):
            marks.append(clock())
            excluded.append(0.0)
            index = len(marks) - 1
            if self.tracer is not None:
                self.tracer.ident = f"{self.run_id}/t{index}"
            events = original(world, t)
            if index in self.sample_at:
                start = clock()
                self.sample[index] = world.truth_bindings()
                excluded[index] = clock() - start
            return events

        bsnsim.World.step = timed_step
        return self

    def __exit__(self, *exc) -> None:
        bsnsim.World.step = self._step

    def start_run(self, run_id: str, sample_at=()) -> None:
        self.run_id = run_id
        self.marks.clear()
        self.excluded.clear()
        self.sample = {}
        self.sample_at = frozenset(sample_at)

    def tick_seconds(self, end: float) -> List[float]:
        bounds = self.marks + [end]
        return [bounds[i + 1] - bounds[i] - self.excluded[i]
                for i in range(len(self.marks))]


@dataclasses.dataclass
class LoopKit:
    """Set-up of loop_bsn: the bundled model compiled, policy and scenarios.

    Pass ``i`` of a run gives every scenario a world seed drawn from the
    workload seed and ``i``, so a run averages over several worlds.
    """

    seed: int
    model: object
    forms: dict
    policy: object
    scenarios: Dict[Tuple[str, str], object]  # as bundled, before the seed override

    @classmethod
    def load(cls, seed: int) -> "LoopKit":
        model = cgm.parse_model(bundled.data_text("bsn.json"))
        forms = compiler.compile_model(model)
        policy = runtime.load_policy(bundled.data_text("policy.json"), model)
        scenarios = {(name, mode): bsnsim.load_scenario(bundled.data_text(name), mode=mode)
                     for name in SCENARIOS for mode in MODES}
        return cls(seed, model, forms, policy, scenarios)

    @property
    def runs(self) -> List[Tuple[str, str]]:
        return [(name, mode) for name in SCENARIOS for mode in MODES]

    def config(self, name: str, mode: str, pass_index: int):
        # The same override `goalc simulate --seed` applies; both modes of a
        # scenario share one world seed, as in the acceptance tests.
        rng = random.Random(f"loop_bsn:{self.seed}:{pass_index}:{name}")
        return dataclasses.replace(self.scenarios[(name, mode)], seed=rng.randrange(2**31))

    def run_one(self, name: str, mode: str, pass_index: int = 0):
        return bsnsim.run(self.config(name, mode, pass_index), self.policy,
                          self.model, self.forms)

    def ticks(self, name: str, mode: str) -> int:
        config = self.scenarios[(name, mode)]
        return int(round(config.duration / config.tick))

    def sample_tick(self, name: str, mode: str, pass_index: int) -> int:
        rng = random.Random(f"loop_bsn:{self.seed}:{pass_index}:{name}:{mode}:check")
        return rng.randrange(self.ticks(name, mode))


def trace_columns(trace) -> Dict[str, list]:
    return {"columns": list(trace.columns), "rows": [list(r) for r in trace.rows]}


def run_id(name: str, mode: str) -> str:
    return f"loop_bsn/{name[:-len('.json')]}:{mode}"


@dataclasses.dataclass
class LoopPass:
    pass_index: int
    ticks: List[float]  # seconds per loop iteration
    run_seconds: float  # wall time inside bsnsim.run, all runs
    traces: Dict[str, object]  # run id -> TimeSeries, or the exception raised
    samples: Dict[str, Tuple[int, dict]]  # run id -> (tick, truth bindings)
    attempted: int
    tick_period: float


def loop_pass(kit: LoopKit, pass_index: int = 0, tracer=None, gap=None) -> LoopPass:
    """Run every scenario and mode once; ``gap`` is called between runs."""
    ticks: List[float] = []
    traces: Dict[str, object] = {}
    samples: Dict[str, Tuple[int, dict]] = {}
    total = 0.0
    attempted = 0
    with TickClock(tracer) as clock:
        for name, mode in kit.runs:
            rid = run_id(name, mode)
            attempted += kit.ticks(name, mode)
            at = kit.sample_tick(name, mode, pass_index)
            clock.start_run(rid, [at])
            start = time.perf_counter()
            try:
                traces[rid] = kit.run_one(name, mode, pass_index)
            except Exception as exc:  # counted as failed ticks by the checks
                traces[rid] = exc
            end = time.perf_counter()
            total += end - start
            ticks.extend(clock.tick_seconds(end))
            if at in clock.sample:
                samples[rid] = (at, clock.sample[at])
            if gap is not None:
                gap()
    period = min(c.tick for c in kit.scenarios.values())
    return LoopPass(pass_index, ticks, total, traces, samples, attempted, period)


def _binding_from_truth(model, truth: dict):
    """Split a truth-binding snapshot into the oracle's binding shape."""
    values, contexts, opts = {}, {}, {}
    for p in cgm.ParamTable(model).all_parameters():
        if p.kind is symexpr.ParamKind.CONTEXT:
            contexts[p.ref] = truth[p.name]
        elif p.kind is symexpr.ParamKind.OPT:
            opts[p.ref] = truth[p.name]
        else:
            values[p.name] = truth[p.name]
    return oracle.ConcreteBinding(values, contexts, opts)


def load_loop_reference(seed: int) -> Optional[dict]:
    path = os.path.join(REFERENCE, f"loop_seed{seed}.json.gz")
    if not os.path.exists(path):
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _rows_failing_reference(trace, ref: dict) -> set:
    if list(trace.columns) != ref["columns"] or len(trace.rows) != len(ref["rows"]):
        return set(range(len(trace.rows)))
    loose = {trace.columns.index("reliability"), trace.columns.index("cost")}
    return {
        t for t, (row, want) in enumerate(zip(trace.rows, ref["rows"]))
        if any(abs(a - b) > TOLERANCE if i in loose else a != b
               for i, (a, b) in enumerate(zip(row, want)))
    }


def check_loop(kit: LoopKit, result: LoopPass) -> int:
    """Failed ticks of a pass.

    Each run's reliability at its sampled tick must match the enumeration
    oracle at the world's true parameters.  Pass 0 at a seed with recorded
    reference traces must also match them row by row.
    """
    failed = 0
    reference = load_loop_reference(kit.seed) if result.pass_index == 0 else None
    for name, mode in kit.runs:
        rid = run_id(name, mode)
        n_ticks = kit.ticks(name, mode)
        trace = result.traces[rid]
        if isinstance(trace, Exception) or len(trace.rows) != n_ticks:
            failed += n_ticks
            continue
        bad = set()
        if rid not in result.samples:
            bad.add(-1)
        else:
            at, truth = result.samples[rid]
            expected = oracle.prob_reach(kit.model, "G1", _binding_from_truth(kit.model, truth))
            if not abs(trace.column("reliability")[at] - float(expected)) <= TOLERANCE:
                bad.add(at)
        if reference is not None:
            bad |= _rows_failing_reference(trace, reference[f"{name}:{mode}"])
        failed += len(bad)
    return failed


def in_band_share(kit: LoopKit, result: LoopPass) -> float:
    """Tamed post-transient ticks with reliability and cost both in band."""
    targets = {p.metric: p for p in kit.policy.properties}
    rel, cost = targets[runtime.Metric.RELIABILITY], targets[runtime.Metric.COST]
    flags = []
    for run_id, trace in result.traces.items():
        if run_id.endswith(":Tamed") and not isinstance(trace, Exception):
            flags.extend(
                rel.in_margin(r) and cost.in_margin(c)
                for t, r, c in zip(trace.column("t"), trace.column("reliability"),
                                   trace.column("cost"))
                if t >= POST_TRANSIENT)
    return sum(flags) / len(flags) if flags else 0.0


# -- compile_sweep -------------------------------------------------------------

#: Per-case compile budget in seconds.  At least 3x above the slowest case
#: that fits (or8, ~0.5 s) and 3x below the fastest that does not (or12, 18-24 s).
CASE_BUDGET = 2.5


class Overrun(BaseException):
    """Raised by SIGALRM when a sweep case exceeds its budget.

    A BaseException, so no ``except Exception`` inside goalc can swallow it.
    """


def _on_alarm(signum, frame):
    raise Overrun()


@dataclasses.dataclass
class SweepKit:
    seed: int
    texts: Dict[str, str]
    bindings: Dict[str, tuple]
    reference: Dict[str, Dict[str, str]]

    @classmethod
    def load(cls, seed: int) -> "SweepKit":
        bsn = bundled.data_text("bsn.json")
        with open(os.path.join(REFERENCE, "sweep.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        return cls(seed,
                   {case: sweep.case_text(case, bsn) for case in sweep.CASES},
                   {case: sweep.binding(case, seed) for case in sweep.CASES},
                   reference)


@dataclasses.dataclass
class CaseResult:
    case: str
    seconds: float  # measured wall time (at least the budget when aborted)
    aborted: bool
    error: Optional[BaseException] = None
    output: Optional[tuple] = None  # (model, forms, rendered, prism)
    built: int = 0  # SymExpr constructions, counted only when traced
    rss_before: float = 0.0  # ru_maxrss in MB when the case started


def sweep_pass(kit: SweepKit, tracer=None, gap=None) -> List[CaseResult]:
    """Compile every case once under its budget; ``gap`` is called between cases."""
    results = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for case in sweep.CASES:
            gc.collect()
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.ident = f"compile_sweep/{case}"
            aborted, error, output = False, None, None
            built = tracer.counts["symexpr.exprs_built"] if tracer is not None else 0
            start = time.perf_counter()
            try:
                # The timer repeats until cancelled, in case one Overrun lands
                # where Python cannot raise it (a finalizer, say).
                signal.setitimer(signal.ITIMER_REAL, CASE_BUDGET, 0.1)
                try:
                    output = sweep.compile_case(kit.texts[case])
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Overrun:
                aborted = True
            except Exception as exc:
                error = exc
            seconds = time.perf_counter() - start
            if tracer is not None:
                if aborted:
                    tracer.settle()
                built = tracer.counts["symexpr.exprs_built"] - built
            results.append(CaseResult(case, seconds, aborted, error, output, built, rss))
            if gap is not None:
                gap()
    finally:
        signal.signal(signal.SIGALRM, previous)
    return results


def budgeted_seconds(results: List[CaseResult]) -> float:
    """compile_s: the pass's case times, an over-budget case counted at the budget."""
    return sum(CASE_BUDGET if r.aborted else r.seconds for r in results)


def check_case(kit: SweepKit, result: CaseResult) -> bool:
    """Closed-form root reliability and recorded digests of a finished case."""
    if result.error is not None:
        return False
    if result.aborted:
        return True
    model, forms, rendered, prism = result.output
    if sweep.digests(rendered, prism) != kit.reference[result.case]:
        return False
    leaves, contexts, expected = kit.bindings[result.case]
    if expected is None:
        return True
    params = cgm.ParamTable(model)
    names = {params.context(c).name: v for c, v in contexts.items()}
    for leaf, (r, f, w) in leaves.items():
        names[params.reliability(leaf).name] = r
        names[params.frequency(leaf).name] = f
        names[params.cost_weight(leaf).name] = w
    got = symexpr.evaluate(forms[model.root].reliability, names)
    return math.isclose(got, expected, rel_tol=TOLERANCE, abs_tol=0.0)


def case_sizes(result: CaseResult) -> Tuple[int, int]:
    """(terms, rendered bytes) over every node's three formulas."""
    _, forms, rendered, _ = result.output
    terms = sum(len(e.terms) for f in forms.values()
                for e in (f.reliability, f.weight, f.cost))
    size = sum(len(s.encode("utf-8")) for texts in rendered.values() for s in texts)
    return terms, size


# -- verify --------------------------------------------------------------------

G1_TRIALS = 2  # trials per `goalc verify` command on the bundled G1
BATCHES = 8  # distinct random-model batches a run cycles through
#: The cost oracle enumerates 3^L outcomes.  A stream model whose cost check
#: would enumerate more than 3^8 (~0.15 s) is redrawn, so a trial stays small.
MAX_COST_LEAVES = 8


@dataclasses.dataclass
class VerifyKit:
    """Set-up of verify: ``BATCHES`` batches of random models, drawn from the
    seed before timing.  Pass ``i`` checks batch ``i % BATCHES``, so a run of
    at least ``BATCHES`` passes sees the same models whatever the host speed."""

    seed: int
    model_path: str
    g1_seed: int
    batches: List[List[tuple]]  # (model, binding) pairs

    @classmethod
    def load(cls, seed: int) -> "VerifyKit":
        os.environ.pop("GOALC_THREADS", None)
        path = os.path.join(ROOT, "src", "goalc", "data", "bsn.json")
        g1_seed = random.Random(f"verify:{seed}:G1").randrange(2**31)
        return cls(seed, path, g1_seed, [draw_batch(seed, i) for i in range(BATCHES)])


#: A batch's fixed mix of model sizes: (largest expansion bound, models).
#: These are random_model's own proportions (3-12 leaves), fixed per batch so
#: that the rare large expansions do not make one seed's runs slower than
#: another's; models whose bound exceeds the last class (~1 s compiles) are
#: redrawn.
SIZE_MIX = ((15, 122), (63, 23), (255, 4), (1023, 1))


def expansion_bound(model, node_id: str) -> int:
    """Upper bound on the monomials of a node's expanded reliability."""
    node = model.node(node_id)
    if node.is_executable:
        return 1
    kids = [expansion_bound(model, c) for c in node.children]
    if node.dm_order is not None or node.decomposition is cgm.Decomposition.OR:
        return math.prod(1 + k for k in kids) - 1
    return math.prod(kids)


def draw_batch(seed: int, index: int) -> List[tuple]:
    rng = random.Random(f"verify:{seed}:{index}")
    wanted = dict(SIZE_MIX)
    batch = []
    while any(wanted.values()):
        model = oracle.random_model(rng, max_leaves=rng.randint(3, 12))
        binding = oracle.random_binding(rng, model)
        leaves = len(model.leaves_under(model.root))
        if leaves < 3 or (leaves > MAX_COST_LEAVES and
                          oracle.cost_comparable(model, model.root, binding)):
            continue
        size = expansion_bound(model, model.root)
        cls = next((limit for limit, _ in SIZE_MIX if size <= limit), None)
        if cls is not None and wanted[cls]:
            wanted[cls] -= 1
            batch.append((model, binding))
    return batch


@dataclasses.dataclass
class VerifyPass:
    trial_seconds: List[float]  # one entry per trial
    seconds: float
    attempted: int
    failed: int
    cost_applicable: int


def verify_pass(kit: VerifyKit, pass_index: int = 0, tracer=None) -> VerifyPass:
    stream = kit.batches[pass_index % BATCHES]
    seconds: List[float] = []
    failed = applicable = 0
    if tracer is not None:
        tracer.ident = "verify/G1"
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", kit.model_path, "--trials", str(G1_TRIALS),
                             "--seed", str(kit.g1_seed)])
        elapsed = time.perf_counter() - start
        doc = json.loads(out.getvalue())
        rows = doc["rows"]
        if code != 0 or len(rows) != G1_TRIALS:
            failed += G1_TRIALS
        else:
            failed += sum(1 for row in rows if row["ok"] is not True)
            applicable += sum(1 for row in rows if row["cost_applicable"])
    except Exception:
        elapsed = time.perf_counter() - start
        failed += G1_TRIALS
    # One command runs its trials back to back; each gets an equal share.
    seconds.extend([elapsed / G1_TRIALS] * G1_TRIALS)
    for i, (model, binding) in enumerate(stream):
        if tracer is not None:
            tracer.ident = f"verify/random{i}"
        start = time.perf_counter()
        try:
            forms = compiler.compile_model(model)[model.root]
            result = oracle.check_formula(model, model.root, forms, binding)
            ok = result.ok(TOLERANCE)
            applicable += result.cost_applicable
        except Exception:
            ok = False
        seconds.append(time.perf_counter() - start)
        failed += not ok
    return VerifyPass(seconds, sum(seconds), len(seconds), failed, applicable)
