"""Acceptance checklist: one verdict line per shipped guarantee.

Each test prints ``[acceptance] <label>: PASS/FAIL (<measurements>)`` and
asserts the same condition, so ``pytest -s tests/test_acceptance.py`` doubles
as a human-readable acceptance report.  Budgets are generous on purpose —
they bound the behaviour, they do not benchmark the hardware.
"""

import hashlib
import random
import re
import time
from pathlib import Path

import pytest

from goalc import bsnsim, bundled
from goalc.cgm import (
    ContextDef,
    Decomposition,
    GoalModel,
    Node,
    NodeKind,
    parse_model,
)
from goalc.compiler import compile_model
from goalc.oracle import check_formula, random_binding, random_model
from goalc.prismgen import emit_model, emit_properties
from goalc.runtime import Metric, load_policy
from goalc.symexpr import evaluate, parse_expr, render, substitute

GOLDEN = Path(__file__).parent / "golden"
TOLERANCE = 1e-9
POST_TRANSIENT = 30.0  # settling ticks excluded from the in-band ratio
DISTURBANCES = (
    "scenario_hub_degradation.json",
    "scenario_miscommissioned.json",
    "scenario_battery_cycling.json",
)


def verdict(label, ok, detail):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def leaf(nid, contexts=()):
    return Node(nid, nid, NodeKind.LEAF_TASK, contexts=tuple(contexts))


def chain_model(n_leaves, decomposition, leaf_contexts=False, dm=False):
    contexts = {f"K{i}": ContextDef(f"K{i}", "") for i in range(1, n_leaves + 1)}
    leaves = [
        leaf(f"N{i}", (f"K{i}",) if leaf_contexts else ())
        for i in range(1, n_leaves + 1)
    ]
    ids = tuple(x.id for x in leaves)
    root = Node("G", "", NodeKind.GOAL, decomposition, ids, ids if dm else None)
    nodes = {n.id: n for n in [root, *leaves]}
    return GoalModel("acceptance", "G", nodes, contexts if leaf_contexts else {})


@pytest.fixture(scope="module")
def loop(bsn):
    """Shared closed-loop kit: policy, compiled formulae, both targets."""
    policy = load_policy(bundled.data_text("policy.json"), bsn)
    forms = compile_model(bsn)
    targets = {p.metric: p for p in policy.properties}
    return policy, forms, targets


def closed_loop_trace(bsn, policy, forms, scenario_name, mode):
    config = bsnsim.load_scenario(bundled.data_text(scenario_name), mode=mode)
    return bsnsim.run(config, policy, bsn, forms)


# -- formula correctness -------------------------------------------------------


def test_reliability_formulae_match_the_enumeration_oracle():
    rng = random.Random(20210905)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        model = random_model(rng, max_leaves=6)
        forms = compile_model(model)[model.root]
        for _ in range(10):
            result = check_formula(model, model.root, forms, random_binding(rng, model))
            worst = max(worst, result.reliability_delta)
    elapsed = time.perf_counter() - start
    verdict(
        "reliability formulae vs oracle",
        worst <= TOLERANCE and elapsed < 60.0,
        f"1000 models x 10 bindings, max |delta| {worst:.2e}, {elapsed:.1f}s",
    )


def _random_conjunction(rng, tag):
    """A conjunction-only tree: optional contexts, placeholders, one nesting."""
    n = rng.randint(1, 6)
    contexts, nodes, ids = {}, {}, []
    for i in range(1, n + 1):
        ctx = ()
        if rng.random() < 0.4:
            cid = f"K{tag}{i}"
            contexts[cid] = ContextDef(cid, "")
            ctx = (cid,)
        nid = f"N{i}.X" if rng.random() < 0.2 else f"N{i}"
        kind = NodeKind.PLACEHOLDER if nid.endswith(".X") else NodeKind.LEAF_TASK
        nodes[nid] = Node(nid, nid, kind, contexts=ctx)
        ids.append(nid)
    if n >= 3 and rng.random() < 0.5:
        nodes["M"] = Node("M", "", NodeKind.GOAL, Decomposition.AND, tuple(ids[:2]))
        ids = ["M"] + ids[2:]
    nodes["G"] = Node("G", "", NodeKind.GOAL, Decomposition.AND, tuple(ids))
    return GoalModel("acceptance", "G", nodes, contexts)


def _random_binary_choice(rng, dm):
    """A two-alternative Or (optionally runtime-decided) over small subtrees."""
    contexts, nodes, kids = {}, {}, []
    for i in (1, 2):
        ctx = ()
        if dm or rng.random() < 0.6:
            cid = f"K{i}"
            contexts[cid] = ContextDef(cid, "")
            ctx = (cid,)
        if rng.random() < 0.4:
            a, b = f"N{i}a", f"N{i}b"
            nodes[a], nodes[b] = leaf(a), leaf(b)
            nodes[f"N{i}"] = Node(
                f"N{i}", "", NodeKind.GOAL, Decomposition.AND, (a, b), contexts=ctx
            )
        else:
            nodes[f"N{i}"] = leaf(f"N{i}", ctx)
        kids.append(f"N{i}")
    kids = tuple(kids)
    nodes["G"] = Node(
        "G", "", NodeKind.GOAL, Decomposition.OR, kids, kids if dm else None
    )
    return GoalModel("acceptance", "G", nodes, contexts)


def test_cost_formulae_match_the_oracle_on_the_closed_class():
    # Conjunction-only trees under any binding; binary alternatives only at
    # unit frequencies, where the run-the-chosen-branch cost coincides with
    # the closed form.
    rng = random.Random(31)
    worst, checks = 0.0, 0
    for trial in range(400):
        model = _random_conjunction(rng, trial)
        forms = compile_model(model)[model.root]
        for _ in range(5):
            result = check_formula(model, model.root, forms, random_binding(rng, model))
            assert result.cost_applicable, "conjunction tree left the closed class"
            worst = max(worst, result.cost_delta)
            checks += 1
    for dm in (False, True):
        for _ in range(300):
            model = _random_binary_choice(rng, dm)
            forms = compile_model(model)[model.root]
            for _ in range(3):
                binding = random_binding(rng, model, unit_frequencies=True)
                result = check_formula(model, model.root, forms, binding)
                assert result.cost_applicable, "binary choice left the closed class"
                worst = max(worst, result.cost_delta)
                checks += 1
    verdict(
        "cost formulae vs oracle on the closed class",
        worst <= TOLERANCE,
        f"{checks} checks, max |delta| {worst:.2e}",
    )


def test_two_alternative_context_cases_match_known_polynomials(bsn):
    # The two-sensor slice of the bundled model: switch off the other three
    # alternatives and compare each context truth assignment symbolically.
    g3 = substitute(
        compile_model(bsn, goal="G3")["G3"].reliability,
        {"C_C3": 0, "C_C4": 0, "C_C5": 0},
    )
    p1, p2 = (
        "*".join(f"r_T1_{i}{j}*f_T1_{i}{j}" for j in (1, 2, 3)) for i in (1, 2)
    )
    cases = {
        (1, 1): parse_expr(f"-{p1}*{p2} + {p1} + {p2}"),
        (1, 0): parse_expr(p1),
        (0, 1): parse_expr(p2),
    }
    bad = [
        truth
        for truth, expected in cases.items()
        if substitute(g3, {"C_C1": truth[0], "C_C2": truth[1]}) != expected
    ]
    verdict(
        "two-alternative context cases",
        not bad,
        "all three context assignments equal" if not bad else f"mismatch at {bad}",
    )


def test_parameter_counts_grow_at_the_documented_ratios():
    def counts(m):
        root = compile_model(m)["G"]
        return {"reliability": len(root.reliability.parameter_names()),
                "cost": len(root.cost.parameter_names())}

    rows = []
    for n in (2, 4, 6):
        plain = counts(chain_model(n, Decomposition.AND))
        rows.append(plain == {"reliability": 2 * n, "cost": 3 * n})
        plain_or = counts(chain_model(n, Decomposition.OR))
        rows.append(plain_or == {"reliability": 2 * n, "cost": 3 * n})
        gated = counts(chain_model(n, Decomposition.OR, leaf_contexts=True))
        rows.append(gated == {"reliability": 3 * n, "cost": 4 * n})
        decided = counts(chain_model(n, Decomposition.OR, leaf_contexts=True, dm=True))
        rows.append(decided == {"reliability": 3 * n, "cost": 4 * n})
    verdict(
        "parameter growth ratios",
        all(rows),
        "context-free 2/3, context-gated 3/4, runtime-decided 3/4 per leaf",
    )


def test_single_alternative_decision_keeps_the_gated_term():
    forms = compile_model(chain_model(1, Decomposition.OR, leaf_contexts=True, dm=True))
    ok = forms["G"].reliability == parse_expr("C_K1*f_N1*r_N1")
    verdict(
        "single-alternative decision reduction",
        ok,
        "reliability collapses to the context-gated child term, exactly",
    )


# -- scale and emission ---------------------------------------------------------


def test_flagship_model_compiles_small_and_fast(bsn):
    start = time.perf_counter()
    forms = compile_model(bsn)
    compile_s = time.perf_counter() - start

    cost = forms["G1"].cost
    rng = random.Random(7)
    binding = {
        name: (1 if name.startswith(("C_", "OPT_")) else rng.random())
        for name in cost.parameter_names()
    }
    evaluate(cost, binding)  # warm-up
    start = time.perf_counter()
    evaluate(cost, binding)
    eval_ms = (time.perf_counter() - start) * 1e3

    size = len(render(cost).encode())
    ok = compile_s < 1.0 and eval_ms < 100.0 and 22 * 1024 / 5 <= size <= 22 * 1024 * 5
    verdict(
        "desk-scale performance",
        ok,
        f"compile {compile_s * 1e3:.0f}ms, eval {eval_ms:.2f}ms, root cost {size}B",
    )


CTX_LEAF = """{
  "actor": "Demo",
  "root": "G",
  "contexts": [{"id": "K1", "description": "sensor available"}],
  "nodes": [
    {"id": "G", "kind": "Goal", "decomposition": "And", "children": ["N1"]},
    {"id": "N1", "kind": "Task", "label": "read the sensor", "contexts": ["K1"]}
  ]
}"""

DECISION_PAIR = """{
  "actor": "Demo",
  "root": "G1",
  "contexts": [
    {"id": "K1", "description": "first alternative applies"},
    {"id": "K2", "description": "second alternative applies"}
  ],
  "nodes": [
    {"id": "G1", "kind": "Goal", "decomposition": "Or",
     "children": ["N1", "N2"], "dm": ["N1", "N2"]},
    {"id": "N1", "kind": "Task", "contexts": ["K1"]},
    {"id": "N2", "kind": "Task", "contexts": ["K2"]}
  ]
}"""


def test_checker_emission_matches_the_frozen_goldens(bsn):
    frozen = all(
        emitter(parse_model(doc)) == (GOLDEN / f"{name}{suffix}").read_text("ascii")
        for name, doc in (("context_leaf", CTX_LEAF), ("decision_pair", DECISION_PAIR))
        for emitter, suffix in ((emit_model, ".pm"), (emit_properties, ".pctl"))
    )
    consts = re.findall(r"const int CTX_(\d+);", emit_model(bsn, "T1"))
    verdict(
        "checker-model emission",
        frozen and len(consts) == len(set(consts)) == 31,
        f"goldens byte-identical, {len(set(consts))} context-combination constants",
    )


# -- closed loop ----------------------------------------------------------------


@pytest.mark.parametrize("scenario", DISTURBANCES)
def test_taming_beats_static_estimates_under_disturbance(bsn, loop, scenario):
    policy, forms, targets = loop
    tamed = closed_loop_trace(bsn, policy, forms, scenario, "Tamed")
    untamed = closed_loop_trace(bsn, policy, forms, scenario, "Untamed")

    rel, cost = targets[Metric.RELIABILITY], targets[Metric.COST]
    summary = bsnsim.metrics(
        tamed, untamed, {"reliability": rel.setpoint, "cost": cost.setpoint}
    )
    settled = [
        rel.in_margin(r) and cost.in_margin(c)
        for t, r, c in zip(
            tamed.column("t"), tamed.column("reliability"), tamed.column("cost")
        )
        if t >= POST_TRANSIENT
    ]
    in_band = sum(settled) / len(settled)
    verdict(
        f"disturbance rejection [{scenario.removesuffix('.json')}]",
        summary["e_r"] > 1.0 and summary["e_c"] > 1.0 and in_band >= 0.70,
        f"e_r {summary['e_r']:.2f}, e_c {summary['e_c']:.2f}, in-band {in_band:.0%}",
    )


def test_fixed_seed_runs_are_reproducible(bsn, loop):
    policy, forms, _ = loop
    digests = {
        hashlib.sha256(
            closed_loop_trace(bsn, policy, forms, "scenario_nominal.json", "Tamed")
            .to_csv()
            .encode("ascii")
        ).hexdigest()
        for _ in range(2)
    }
    verdict(
        "fixed-seed reproducibility",
        len(digests) == 1,
        f"two runs, one digest {next(iter(digests))[:12]}…",
    )
