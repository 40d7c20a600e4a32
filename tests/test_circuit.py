"""Circuit tests: the fold as a float program agrees with its expansion.

The feedback loop evaluates circuits (``compiler.compile_circuits``) where
the export and verification paths use the expanded polynomials
(``compiler.compile_model``).  Both come from the same fold, so they must
agree on value, parameter set and binding errors, and the planner must pick
the plans the expanded polynomials pick.
"""

import itertools
import json
import random

import pytest

from goalc import bsnsim, bundled, symexpr
from goalc.cgm import Decomposition, NodeKind, ParamTable
from goalc.compiler import compile_circuits, compile_model
from goalc.oracle import param_map, random_binding, random_model
from goalc.runtime import (
    Actuation,
    analyze,
    expand_assignments,
    initial_state,
    load_policy,
    plan,
)
from goalc.symexpr import Circuit, CircuitBuilder, ExprError

from test_compiler import chain_model, eager_expand


def features(m):
    seen = set()
    for node in m.nodes.values():
        if node.kind == NodeKind.PLACEHOLDER:
            seen.add("placeholder")
        if node.contexts:
            seen.add("context")
        if node.is_executable:
            continue
        if node.dm_order is not None:
            seen.add("dm")
        elif node.decomposition == Decomposition.OR:
            seen.add("or")
        else:
            seen.add("and")
    return seen


def error_of(expr, binding):
    with pytest.raises(ExprError) as info:
        symexpr.evaluate(expr, binding)
    return str(info.value)


class TestAgainstExpansion:
    def test_random_models_node_by_node(self):
        covered = set()
        nodes = 0
        for seed in range(200):
            rng = random.Random(seed)
            m = random_model(rng, max_leaves=rng.randint(2, 8))
            covered |= features(m)
            expanded = compile_model(m)
            circuits = compile_circuits(m, expanded)
            for _ in range(3):
                binding = param_map(m, random_binding(rng, m))
                for nid, forms in expanded.items():
                    if m.node(nid).kind == NodeKind.PLACEHOLDER:
                        continue
                    nodes += 1
                    for part in ("reliability", "cost"):
                        want = getattr(forms, part)
                        got = getattr(circuits[nid], part)
                        assert got.parameter_names() == want.parameter_names(), (seed, nid)
                        assert abs(symexpr.evaluate(got, binding)
                                   - symexpr.evaluate(want, binding)) <= 1e-12, (seed, nid)
                        names = want.parameter_names()
                        if not names:
                            continue
                        partial = dict(binding)
                        del partial[rng.choice(names)]
                        assert error_of(got, partial) == error_of(want, partial)
                        binary = [n for n in names if n.startswith(("C_", "OPT_"))]
                        if binary:
                            bad = dict(binding, **{rng.choice(binary): 0.5})
                            assert error_of(got, bad) == error_of(want, bad)
        assert covered == {"placeholder", "context", "dm", "or", "and"}
        assert nodes > 2000

    def test_bundled_model(self, bsn):
        expanded = compile_model(bsn)
        circuits = compile_circuits(bsn, expanded)
        rng = random.Random(7)
        for _ in range(5):
            binding = param_map(bsn, random_binding(rng, bsn))
            for nid, forms in expanded.items():
                for part in ("reliability", "weight", "cost"):
                    want = getattr(forms, part)
                    got = getattr(circuits[nid], part)
                    assert got.parameter_names() == want.parameter_names()
                    assert symexpr.evaluate(got, binding) == pytest.approx(
                        symexpr.evaluate(want, binding), abs=1e-12)


class TestCircuit:
    def test_size_is_linear_where_the_expansion_is_not(self):
        """A 12-way context-gated Or expands to 2^12-1 reliability terms."""
        n = 12
        m = chain_model(n, Decomposition.OR, leaf_contexts=True)
        g = compile_circuits(m, ["G"])["G"]
        assert len(g.reliability) <= 10 * n
        assert len(g.cost) <= 15 * n
        assert len(g.reliability.parameter_names()) == 3 * n

    def test_builder_loads_each_parameter_once_and_cuts_dead_code(self):
        b = CircuitBuilder()
        x = b.param("r_a")
        y = b.param("r_b")
        b.mul(x, y)  # recorded, but the result below does not use it
        out = b.sub(b.sum([x, b.param("r_a"), y]), x)
        c = b.circuit(out)
        assert c.code == (
            ("load", "r_a"),
            ("load", "r_b"),
            ("sum", 0, 0, 1),
            ("-", 2, 0),
        )
        assert symexpr.evaluate(c, {"r_a": 2, "r_b": 5}) == 7.0
        assert isinstance(symexpr.evaluate(c, {"r_a": 2, "r_b": 5}), float)

    def test_wide_sum_adds_left_to_right(self):
        n = 3000  # one chained expression this long overflows Python's compiler
        b = CircuitBuilder()
        names = [f"w_{i}" for i in range(n)]
        c = b.circuit(b.sum([b.param(x) for x in names]))
        rng = random.Random(2)
        values = {x: rng.random() for x in names}
        want = 0.0
        for x in names:
            want += values[x]
        assert symexpr.evaluate(c, values) == want

    def test_odd_names_are_data_not_code(self):
        name = "r_x']; import os #"
        b = CircuitBuilder()
        c = b.circuit(b.param(name))
        assert symexpr.evaluate(c, {name: 0.25}) == 0.25

    def test_expand_replays_the_program(self):
        b = CircuitBuilder()
        x, y = (b.param(n) for n in ("r_a", "r_b"))
        k = b.param("C_k")
        out = b.add(b.mul(b.sum([x, y, b.mul(k, x)]), b.sub(x, y)), b.mul(k, k))
        px, py, pk = (symexpr.parse_expr(n) for n in ("r_a", "r_b", "C_k"))
        assert b.defer([out, x, k]) == [(px + py + pk * px) * (px - py) + pk, px, pk]

    def test_expand_keeps_its_outputs_and_drops_the_rest(self):
        b = CircuitBuilder()
        x, y = (b.param(n) for n in ("r_a", "r_b"))
        i, k = b.mul(x, y), b.add(x, y)
        out = b.mul(k, k)
        square, product = b.defer([out, i])
        replay = product._source[0]
        want, _ = eager_expand(b._code, [out, i, k, x])
        assert square == want[0]
        # out is held; k is dropped; x and y are held for i, not yet read.
        assert set(replay._values) == {out, x, y}
        assert product == want[1]
        assert set(replay._values) == {out, i}
        # A second deferral replays, on its own, what the first one dropped.
        assert b.defer([i, k, x]) == want[1:]

    @staticmethod
    def squared_sum(max_terms):
        """``(a + b + a)**2`` deferred from a builder with ``max_terms``."""
        b = CircuitBuilder(max_terms)
        x, y = (b.param(n) for n in ("r_a", "r_b"))
        s = b.sum([x, y, x])  # needs 3 terms, merges to 2
        return b.defer([b.mul(s, s)])[0]  # needs 2 * 2 = 4, merges to 3

    def test_budget_counts_terms_before_they_merge(self):
        assert len(self.squared_sum(4).terms) == 3
        with pytest.raises(symexpr.TermBudgetError, match="expands past 3 terms"):
            self.squared_sum(3).terms
        with pytest.raises(ExprError, match="'sum' step needs 3"):
            self.squared_sum(2).terms
        with pytest.raises(ExprError, match="'load' step needs 1"):
            self.squared_sum(0).terms

    #: One instruction of each op over ``two = a + b`` and ``three = a + b + c``
    #: (2 and 3 terms), and the terms its operands hold before they merge.
    OPS = {
        "load": (lambda b, two, three: b.param("r_a"), 1),
        "+": (lambda b, two, three: b.add(three, two), 5),
        "-": (lambda b, two, three: b.sub(three, two), 5),
        "*": (lambda b, two, three: b.mul(three, two), 6),
        "sum": (lambda b, two, three: b.sum([two, three, two]), 7),
    }

    @pytest.mark.parametrize("op", list(OPS))
    def test_budget_checks_each_op(self, op):
        record, need = self.OPS[op]

        def read(max_terms):
            b = CircuitBuilder(max_terms)
            x, y, z = (b.param(n) for n in ("r_a", "r_b", "r_c"))
            return b.defer([record(b, b.sum([x, y]), b.sum([x, y, z]))])[0]

        assert read(need) == read(None)
        for _ in range(2):
            with pytest.raises(symexpr.TermBudgetError) as err:
                read(need - 1).terms
            assert str(err.value) == (f"formula expands past {need - 1} terms "
                                      f"(one {op!r} step needs {need} before like terms merge)")

    def test_a_later_deferral_reads_what_an_earlier_read_dropped(self):
        b = CircuitBuilder()
        x, y = (b.param(n) for n in ("r_a", "r_b"))
        k = b.add(x, y)
        square = b.mul(k, k)
        first, = b.defer([square])
        first.terms  # its replay drops k, x and y
        late = b.mul(k, x)  # recorded after that read
        want, _ = eager_expand(b._code, [late, square])
        for _ in range(2):
            assert b.defer([late, square]) == want
        assert first == want[1]

    def test_budget_covers_a_deferred_read(self):
        b = CircuitBuilder(3)
        x, y = (b.param(n) for n in ("r_a", "r_b"))
        s = b.sum([x, y, x])
        small, big = b.defer([s, b.mul(s, b.sum([y, x]))])
        for _ in range(2):  # the failed step is checked again on the next read
            with pytest.raises(symexpr.TermBudgetError) as err:
                big.terms
            assert str(err.value) == ("formula expands past 3 terms "
                                      "(one '*' step needs 4 before like terms merge)")
        assert small == symexpr.parse_expr("2*r_a + r_b")

    def test_code_is_plain_data(self, bsn):
        """A circuit rebuilt from its code's JSON text evaluates bit-identically."""
        circuits = compile_circuits(bsn, bsn.nodes)
        rng = random.Random(5)
        bindings = [param_map(bsn, random_binding(rng, bsn)) for _ in range(3)]
        for forms in circuits.values():
            for c in forms:
                rebuilt = Circuit(json.loads(json.dumps(c.code)))
                assert rebuilt.parameter_names() == c.parameter_names()
                for binding in bindings:
                    assert symexpr.evaluate(rebuilt, binding) == symexpr.evaluate(c, binding)

    def test_load_names_a_string(self):
        with pytest.raises(ExprError, match="names its parameter by a string"):
            Circuit([("load", ["r_a"])])

    @pytest.mark.parametrize("code,message", [
        ([["+", 0, 1], ["load", "r_a"]], "instruction 0: 0 is not an earlier register"),
        ([["load", "r_a"], ["*", 0, 5]], "instruction 1: 5 is not an earlier register"),
        ([["load", "r_a"], ["*", 0]], "instruction 1: '\\*' takes two registers, got 1"),
        ([["load", "r_a"], ["sum", 0, 3]], "instruction 1: 3 is not an earlier register"),
        ([["load", "r_a"], ["*", 0, -1]], "instruction 1: -1 is not an earlier register"),
        ([["load", "r_a"], ["sum"]], "instruction 1: a sum adds a non-empty list"),
        ([["load", "r_a"], ["+", 0, True]], "instruction 1: True is not an earlier register"),
        ([["load", "r_a"], [["+"], 0, 0]], "instruction 1: unknown circuit instruction"),
        # A sum's operands are its registers, not one list of them.
        ([["load", "r_a"], ["sum", [0, 0]]], "instruction 1: \\[0, 0\\] is not an earlier"),
    ])
    def test_malformed_code_rejected(self, code, message):
        with pytest.raises(ExprError, match=message):
            Circuit(code)

    @pytest.mark.parametrize("record,message", [
        (lambda b, x: b.mul(x, 5), "instruction 1: 5 is not an earlier register"),
        (lambda b, x: b.mul(x, 1), "instruction 1: 1 is not an earlier register"),
        (lambda b, x: b.mul(x, -1), "instruction 1: -1 is not an earlier register"),
        (lambda b, x: b.add(x, 1.0), "instruction 1: 1.0 is not an earlier register"),
        (lambda b, x: b.sub(True, x), "instruction 1: True is not an earlier register"),
        (lambda b, x: b.sum([]), "instruction 1: a sum adds a non-empty list of registers"),
        (lambda b, x: b.sum([x, 2]), "instruction 1: 2 is not an earlier register"),
        (lambda b, x: b.sum([x, False]), "instruction 1: False is not an earlier register"),
    ], ids=["past-the-end", "itself", "negative", "float", "bool", "empty-sum",
            "sum-past-the-end", "sum-bool"])
    def test_builder_records_only_earlier_registers(self, record, message):
        """The builder raises :class:`Circuit`'s own text at the call, and
        records nothing, so reads and circuits agree on what it holds."""
        b = CircuitBuilder()
        x = b.param("r_a")
        with pytest.raises(ExprError) as info:
            record(b, x)
        assert str(info.value) == message
        assert b._code == [("load", "r_a")]
        y = b.mul(x, x)
        assert b.defer([y])[0] == symexpr.parse_expr("r_a*r_a")
        assert b.circuit(y).code == (("load", "r_a"), ("*", 0, 0))

    def test_builder_takes_an_int_subclass_register(self):
        class Register(int):
            pass

        b = CircuitBuilder()
        x = b.param("r_a")
        y = b.add(Register(x), x)
        s = b.sum([Register(y), x])
        assert b.defer([s])[0] == symexpr.parse_expr("3*r_a")

    def test_unknown_instruction_rejected(self):
        with pytest.raises(ExprError, match="unknown circuit instruction"):
            symexpr.evaluate(Circuit([("load", "r_a"),
                                      ("/", 0, 0)]), {"r_a": 1.0})


class TestProgramCache:
    """Compiled programs are keyed on content, not on circuit objects."""

    def test_a_model_compiled_twice_compiles_each_program_once(self, bsn):
        symexpr._compile_program.cache_clear()
        policy = load_policy(bundled.data_text("policy.json"), bsn)
        binding = param_map(bsn, random_binding(random.Random(2), bsn))
        axes = [([ParamTable.frequency(leaf).name for leaf in knob.leaves], knob.values())
                for knob in policy.knobs]
        results = []
        for _ in range(2):
            forms = compile_circuits(bsn, ["G1"])["G1"]
            values = [symexpr.evaluate(c, binding) for c in forms]
            best = symexpr.search([forms.reliability, forms.cost], binding, axes, policy.rank)
            results.append((values, best))
            if len(results) == 1:
                first_round = symexpr._compile_program.cache_info().misses
        info = symexpr._compile_program.cache_info()
        assert results[0] == results[1]
        assert first_round == info.misses == len({c.code for c in forms}) + 1
        assert info.currsize == info.misses  # each compile kept under its own key

    def test_a_circuit_read_back_from_json_shares_its_program(self, bsn):
        for c in compile_circuits(bsn, ["G1"])["G1"]:
            rebuilt = Circuit(json.loads(json.dumps(c.code)))
            assert rebuilt.code == c.code
            binding = dict.fromkeys(c.parameter_names(), 1)
            assert symexpr.evaluate(rebuilt, binding) == symexpr.evaluate(c, binding)
            assert rebuilt._compiled is c._compiled

    def test_the_cache_is_bounded(self):
        size = symexpr._PROGRAM_CACHE_SIZE
        assert symexpr._compile_program.cache_info().maxsize == size
        for i in range(size + 5):
            symexpr.evaluate(Circuit([("load", f"r_{i}")]), {f"r_{i}": 0.5})
            assert symexpr._compile_program.cache_info().currsize <= size

    @pytest.mark.parametrize("code,message", [
        ([], "a circuit needs at least one instruction"),
        ([["+", 0, 1], ["load", "r_a"]], "instruction 0: 0 is not an earlier register"),
        ([["load", "r_a"], ["*", 0]], "instruction 1: '*' takes two registers, got 1"),
        ([["load", "r_a"], ["sum", 0, 3]], "instruction 1: 3 is not an earlier register"),
        ([["load", "r_a"], ["sum"]], "instruction 1: a sum adds a non-empty list of registers"),
        ([["load", "r_a"], ["sum", [0]]], "instruction 1: [0] is not an earlier register"),
        ([["load", "r_a"], ["+", 0, 0.0]], "instruction 1: 0.0 is not an earlier register"),
        ([["load", "r_a"], [["+"], 0, 0]], "instruction 1: unknown circuit instruction ['+']"),
        ([["load", "r_a"], "x"], "instruction 1: unknown circuit instruction None"),
        ([["load", ["r_a"]]], "instruction 0: a load names its parameter by a string"),
        ([["load"]], "instruction 0: a load names its parameter by a string"),
    ])
    def test_malformed_json_code_texts(self, code, message):
        with pytest.raises(ExprError) as info:
            Circuit(code)
        assert str(info.value) == message


# -- the planner ---------------------------------------------------------------


def reduction_plan(state, policy, expanded):
    """The planner as it was on expanded polynomials: one search variable per
    knob (its leaves' frequencies renamed to it), every other parameter
    substituted exactly, then the reduced polynomials evaluated per grid
    point."""
    bindings = state.bindings
    exprs = [
        expanded[p.goal].reliability if p.metric.value == "Reliability"
        else expanded[p.goal].cost
        for p in policy.properties
    ]
    currents = [symexpr.evaluate(e, bindings) for e in exprs]
    flags = [p.in_margin(c) for p, c in zip(policy.properties, currents)]
    if all(flags):
        predicted = {}
        for p, c in zip(policy.properties, currents):
            predicted.setdefault(p.metric.value.lower(), c)
        values = {k.id: bindings[ParamTable.frequency(k.leaves[0]).name] for k in policy.knobs}
        return Actuation(values, predicted, feasible=True)
    knobs = sorted(policy.knobs, key=lambda k: k.id)
    renames = {}
    for knob in knobs:
        target = f"f_knob_{knob.id}"
        for leaf in knob.leaves:
            renames[ParamTable.frequency(leaf).name] = target
    fixed = {n: v for n, v in bindings.items() if n not in renames}
    reduced = [symexpr.substitute(symexpr.rename_params(e, renames), fixed) for e in exprs]
    best_feasible = best_any = None
    for values in itertools.product(*[k.values() for k in knobs]):
        point = {f"f_knob_{k.id}": v for k, v in zip(knobs, values)}
        currents = [symexpr.evaluate(e, point) for e in reduced]
        objective = sum(abs(c - p.setpoint) / abs(p.setpoint)
                        for p, c in zip(policy.properties, currents))
        candidate = (objective, values, currents)
        if best_any is None or objective < best_any[0]:
            best_any = candidate
        if all(p.in_margin(c) for p, c in zip(policy.properties, currents)):
            if best_feasible is None or objective < best_feasible[0]:
                best_feasible = candidate
    _, values, currents = best_feasible or best_any
    predicted = {}
    for p, c in zip(policy.properties, currents):
        predicted.setdefault(p.metric.value.lower(), c)
    return Actuation({k.id: v for k, v in zip(knobs, values)}, predicted,
                     feasible=best_feasible is not None)


def test_plan_matches_the_expanded_reduction(bsn):
    policy = load_policy(bundled.data_text("policy.json"), bsn)
    assert policy.combination == "and"
    expanded = compile_model(bsn)
    scenario = json.loads(bundled.data_text("scenario_nominal.json"))
    leaves = bsn.leaves_under(bsn.root)
    rng = random.Random(11)
    outcomes = set()
    for _ in range(24):
        frequencies = {leaf: rng.choice([0.5, 0.8, 1.0]) for leaf in leaves}
        state = initial_state(
            bsn, ["G1"],
            frequencies=frequencies,
            reliability_priors={
                leaf: min(1.0, r * rng.uniform(0.9, 1.1))
                for leaf, r in scenario["estimates"]["reliability"].items()},
            cost_priors={
                leaf: w * rng.uniform(0.7, 1.3)
                for leaf, w in scenario["estimates"]["cost"].items()},
            contexts={c: int(rng.random() < 0.8) for c in bsn.contexts},
            opt_flags={p: rng.randint(0, 1) for p in bsn.placeholders()},
        )
        # A feasible plan, once applied, satisfies the policy and is kept.
        for _ in range(2):
            want = reduction_plan(state, policy, expanded)
            got = plan(state, policy)
            assert got.assignments == want.assignments
            assert got.feasible == want.feasible
            assert got.predicted == pytest.approx(want.predicted, abs=1e-12)
            satisfied = analyze(state, policy).satisfied
            outcomes.add("kept" if satisfied else
                         "feasible" if got.feasible else "infeasible")
            state.set_frequencies(expand_assignments(policy, got.assignments))
    assert outcomes == {"kept", "feasible", "infeasible"}


# -- one naming authority ---------------------------------------------------------


def test_bindings_name_every_model_parameter(bsn):
    names = sorted(p.name for p in ParamTable(bsn).all_parameters())
    leaves = bsn.leaves_under(bsn.root)
    ones = {leaf: 1.0 for leaf in leaves}
    state = initial_state(
        bsn, ["G1"], frequencies=ones, reliability_priors=ones, cost_priors=ones,
        contexts={c: 1 for c in bsn.contexts},
    )
    assert sorted(state.bindings) == names
    assert sorted(param_map(bsn, random_binding(random.Random(3), bsn))) == names
    policy = load_policy(bundled.data_text("policy.json"), bsn)
    config = bsnsim.load_scenario(bundled.data_text("scenario_nominal.json"))
    world = bsnsim.World.from_config(config, policy)
    assert set(world.truth_bindings()) >= set(names)


def test_simulation_needs_no_expansion(bsn, monkeypatch):
    policy = load_policy(bundled.data_text("policy.json"), bsn)
    doc = json.loads(bundled.data_text("scenario_hub_degradation.json"))
    doc["duration"] = 20
    config = bsnsim.load_scenario(json.dumps(doc))
    want = bsnsim.run(config, policy, bsn)

    def no_expansion(*args, **kwargs):
        raise AssertionError("the loop expanded a polynomial")

    monkeypatch.setattr(symexpr.SymExpr, "__init__", no_expansion)
    assert bsnsim.run(config, policy, bsn).to_csv() == want.to_csv()
