"""Formula compilation tests: composition rows, goldens, growth, I/O."""

import hashlib
import json
import random
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from goalc import bundled, cli, compiler, symexpr
from goalc.cgm import (
    ContextDef,
    Decomposition,
    GoalModel,
    ModelError,
    Node,
    NodeKind,
    ParamTable,
)
from goalc.compiler import NodeForms, compile_circuits, compile_model
from goalc.oracle import random_model
from goalc.symexpr import (
    CircuitBuilder, SymExpr, TermBudgetError, evaluate, param, parse_expr, render, substitute,
    sum_exprs,
)


def leaf(nid, contexts=()):
    return Node(nid, nid, NodeKind.LEAF_TASK, contexts=tuple(contexts))


def model(root, *nodes, contexts=()):
    return GoalModel(
        "test", root, {n.id: n for n in nodes}, {c.id: c for c in contexts}
    )


def chain_model(n_leaves, decomposition, leaf_contexts=False, dm=False):
    """A single inner node over ``n_leaves`` leaf children."""
    contexts = [ContextDef(f"K{i}", "") for i in range(1, n_leaves + 1)]
    leaves = [
        leaf(f"N{i}", (f"K{i}",) if leaf_contexts else ())
        for i in range(1, n_leaves + 1)
    ]
    ids = tuple(x.id for x in leaves)
    root = Node("G", "", NodeKind.GOAL, decomposition, ids, ids if dm else None)
    return model("G", root, *leaves, contexts=contexts if leaf_contexts else ())


def two_leaf_model(decomposition, contexts_a=(), dm=False):
    """A root ``G`` over leaves ``A`` and ``B``, in that order."""
    root = Node("G", "", NodeKind.GOAL, decomposition, ("A", "B"), ("A", "B") if dm else None)
    ctx = [ContextDef(c, "") for c in contexts_a]
    return model("G", root, leaf("A", contexts_a), leaf("B"), contexts=ctx)


class TestAtomicForms:
    """Leaf rows: the forms of a model that is one executable leaf."""

    def test_context_free_leaf(self):
        m = model("T", leaf("T"))
        f = compile_model(m)["T"]
        assert render(f.reliability) == "f_T*r_T"
        assert render(f.weight) == "w_T"
        assert render(f.cost) == "f_T*r_T*w_T"

    def test_context_gated_leaf(self):
        m = model("T", leaf("T", ["K1"]), contexts=[ContextDef("K1", "")])
        f = compile_model(m)["T"]
        assert render(f.reliability) == "C_K1*f_T*r_T"
        assert render(f.cost) == "C_K1*f_T*r_T*w_T"
        assert render(f.weight) == "w_T"  # weight stays raw


class TestCompositionRows:
    """Two-leaf composition identities, checked as exact polynomials."""

    def test_and_row(self):
        f = compile_model(two_leaf_model(Decomposition.AND))["G"]
        assert f.reliability == parse_expr("f_A*r_A*f_B*r_B")
        assert f.weight == parse_expr("w_A + w_B")
        assert f.cost == f.weight * f.reliability

    def test_or_row(self):
        f = compile_model(two_leaf_model(Decomposition.OR))["G"]
        p1, p2 = parse_expr("f_A*r_A"), parse_expr("f_B*r_B")
        assert f.reliability == p1 + p2 - p1 * p2
        assert f.cost == (f.weight * f.reliability) - parse_expr("w_B") * p1

    def test_decision_row_matches_or(self):
        dm = compile_model(two_leaf_model(Decomposition.OR, dm=True))["G"]
        assert dm == compile_model(two_leaf_model(Decomposition.OR))["G"]

    def test_contexts_enter_at_composition(self):
        # A's own context gates its reliability at the leaf and again where
        # it joins G; binary parameters make the second factor idempotent.
        f = compile_model(two_leaf_model(Decomposition.OR, contexts_a=["K1"]))["G"]
        p1, p2 = parse_expr("C_K1*f_A*r_A"), parse_expr("f_B*r_B")
        assert f.reliability == p1 + p2 - p1 * p2
        assert f.weight == parse_expr("C_K1*w_A + w_B")

    def test_incompleteness_row(self):
        placeholder = Node("A.X", "", NodeKind.PLACEHOLDER, contexts=("K1",))
        f = compile_model(model("A.X", placeholder, contexts=[ContextDef("K1", "")]))["A.X"]
        assert f.reliability == parse_expr("C_K1*OPT_A_X*f_A_X*r_A_X")
        assert f.weight == parse_expr("w_A_X")
        assert f.cost == parse_expr("C_K1*OPT_A_X*f_A_X*r_A_X*w_A_X")


class TestSingleOperand:
    def test_decision_of_one_context_child(self):
        # A decision node over one remaining alternative keeps only the
        # context-gated child term, exactly.
        m = chain_model(1, Decomposition.OR, leaf_contexts=True, dm=True)
        forms = compile_model(m)
        assert forms["G"].reliability == parse_expr("C_K1*f_N1*r_N1")
        assert forms["G"].cost == parse_expr("C_K1*f_N1*r_N1*w_N1")

    def test_single_child_and_passes_through(self):
        m = chain_model(1, Decomposition.AND)
        forms = compile_model(m)
        assert forms["G"] == forms["N1"]

    def test_means_end_passes_through(self, bsn):
        forms = compile_model(bsn)
        assert forms["G3"].reliability == forms["T1"].reliability
        assert forms["G3"].cost == forms["T1"].cost


@pytest.fixture(scope="module")
def g3(bsn):
    forms = compile_model(bsn, goal="G3")
    # Keep only the first two sensing branches; the truth of C1/C2 stays
    # symbolic while the remaining alternatives are switched off.
    return substitute(forms["G3"].reliability, {"C_C3": 0, "C_C4": 0, "C_C5": 0})


class TestPublishedRows:
    """The two-sensor slice of the bundled model, against known closed forms."""

    @staticmethod
    def branch(i):
        return "*".join(f"r_T1_{i}{j}*f_T1_{i}{j}" for j in (1, 2, 3))

    def test_both_alternatives_live(self, g3):
        a = f"{self.branch(1)}*C_C1"
        b = f"{self.branch(2)}*C_C2"
        assert g3 == parse_expr(f"-{a}*{b} + {a} + {b}")

    def test_only_first_alternative(self, g3):
        assert substitute(g3, {"C_C2": 0}) == parse_expr(f"{self.branch(1)}*C_C1")

    def test_only_second_alternative(self, g3):
        assert substitute(g3, {"C_C1": 0}) == parse_expr(f"{self.branch(2)}*C_C2")

    def test_no_alternative_is_zero(self, g3):
        assert substitute(g3, {"C_C1": 0, "C_C2": 0}).is_zero()


def parameter_counts(forms):
    """Distinct parameter counts of a node's reliability and cost formulas."""
    return {"reliability": len(forms.reliability.parameter_names()),
            "cost": len(forms.cost.parameter_names())}


class TestGrowth:
    def test_context_free_ratio(self):
        for n in (2, 4, 6):
            m = chain_model(n, Decomposition.AND)
            counts = parameter_counts(compile_model(m)["G"])
            assert counts == {"reliability": 2 * n, "cost": 3 * n}

    def test_context_dependent_ratio(self):
        for n in (2, 4):
            m = chain_model(n, Decomposition.OR, leaf_contexts=True)
            counts = parameter_counts(compile_model(m)["G"])
            assert counts == {"reliability": 3 * n, "cost": 4 * n}

    def test_decision_ratio(self):
        for n in (2, 5):
            m = chain_model(n, Decomposition.OR, leaf_contexts=True, dm=True)
            counts = parameter_counts(compile_model(m)["G"])
            assert counts == {"reliability": 3 * n, "cost": 4 * n}

    def test_bundled_model_counts(self, bsn):
        forms = compile_model(bsn)
        # Every parameter of the model reaches the root cost formula.
        assert parameter_counts(forms["G1"]) == {"reliability": 35, "cost": 49}
        assert parameter_counts(forms["T1.1"]) == {"reliability": 6, "cost": 9}


class TestFoldOrder:
    def test_reliability_is_order_independent(self):
        rng = random.Random(5)
        base = chain_model(4, Decomposition.OR, leaf_contexts=True, dm=True)
        forms = compile_model(base)["G"].reliability
        ids = list(base.node("G").children)
        for _ in range(5):
            rng.shuffle(ids)
            shuffled = GoalModel(
                base.actor, "G",
                {**base.nodes, "G": Node("G", "", NodeKind.GOAL, Decomposition.OR,
                                         tuple(ids), tuple(ids))},
                base.contexts,
            )
            assert compile_model(shuffled)["G"].reliability == forms

    def test_cost_follows_the_decision_order(self):
        base = chain_model(2, Decomposition.OR, leaf_contexts=True, dm=True)
        swapped_ids = ("N2", "N1")
        swapped = GoalModel(
            base.actor, "G",
            {**base.nodes, "G": Node("G", "", NodeKind.GOAL, Decomposition.OR,
                                     swapped_ids, swapped_ids)},
            base.contexts,
        )
        a = compile_model(base)["G"].cost
        b = compile_model(swapped)["G"].cost
        assert a != b  # the later alternative is the one short-circuited away


class TestRangeSafety:
    def test_reliability_stays_in_unit_interval(self, bsn):
        rng = random.Random(17)
        forms = compile_model(bsn)["G1"]
        table = ParamTable(bsn)
        for _ in range(50):
            binding = {}
            for p in table.all_parameters():
                if p.name.startswith(("C_", "OPT_")):
                    binding[p.name] = rng.randint(0, 1)
                elif p.name.startswith("w_"):
                    binding[p.name] = rng.uniform(0, 2)
                else:
                    binding[p.name] = rng.random()
            v = evaluate(forms.reliability, binding)
            assert -1e-12 <= v <= 1 + 1e-12
            assert evaluate(forms.cost, binding) >= -1e-12

    def test_reliability_monotone_in_frequency(self, bsn):
        forms = compile_model(bsn)["G1"]
        table = ParamTable(bsn)
        binding = {}
        for p in table.all_parameters():
            binding[p.name] = 1 if p.name.startswith(("C_", "OPT_")) else 0.9
        lo = evaluate(forms.reliability, {**binding, "f_T2": 0.3})
        hi = evaluate(forms.reliability, {**binding, "f_T2": 0.8})
        assert lo < hi


class TestCompileModel:
    def test_covers_requested_subtree_only(self, bsn):
        forms = compile_model(bsn, goal="G4")
        assert sorted(forms) == ["G4", "T2"]

    def test_shared_table_across_nodes(self, bsn):
        forms = compile_model(bsn)
        assert "G1" in forms and "T1.11" in forms
        assert forms["G2"].reliability == forms["G1"].reliability

    def test_uncomposable_nodes_rejected(self):
        childless = model("G", Node("G", "", NodeKind.GOAL, Decomposition.AND))
        with pytest.raises(ModelError, match="no children to compose"):
            compile_model(childless)
        undecomposed = model("G", Node("G", "", NodeKind.GOAL, children=("T",)), leaf("T"))
        with pytest.raises(ModelError, match="no usable decomposition"):
            compile_model(undecomposed)

    def test_nodes_come_in_fold_order(self, bsn):
        order = list(compile_model(bsn, goal="G3"))
        assert order[-1] == "G3"
        assert order.index("T1.11") < order.index("T1.1") < order.index("T1")

    def test_term_budget_is_exact(self, bsn):
        # G1's cost needs 434 terms at its widest step.
        assert read_all(compile_model(bsn, max_terms=434)) == compile_model(bsn)
        with pytest.raises(TermBudgetError, match="expands past 433 terms"):
            read_all(compile_model(bsn, max_terms=433))

    def test_json_round_trip(self, bsn, tmp_path, capsys):
        path = tmp_path / "bsn.json"
        path.write_text(bundled.data_text("bsn.json"))
        assert cli.main(["compile", str(path), "--goal", "G3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        forms = compile_model(bsn, goal="G3")
        assert sorted(doc["formulas"]) == sorted(forms)
        for nid, f in forms.items():
            for part in ("reliability", "weight", "cost"):
                text = doc["formulas"][nid][part]
                assert text == render(getattr(f, part))
                assert parse_expr(text) == getattr(f, part)


class TestNodeForms:
    def test_is_a_read_only_named_triple(self):
        f = NodeForms("r", "w", "c")
        rel, weight, cost = f
        assert (rel, weight, cost) == ("r", "w", "c")
        assert list(f) == ["r", "w", "c"]
        assert (f.reliability, f.weight, f.cost) == ("r", "w", "c")
        assert NodeForms(reliability="r", weight="w", cost="c") == f
        assert f == ("r", "w", "c")  # a named tuple equals the plain tuple
        for field in FIELDS:
            with pytest.raises(AttributeError):
                setattr(f, field, "x")
        assert f == ("r", "w", "c")


class TestPinnedOutput:
    """sha256 of compile output bytes; a change of fold or expansion must not
    move a single byte."""

    # The bundled root is G1, so the first two documents are the same bytes.
    COMPILE_DIGESTS = {
        (): "9e355320adc5d2ddbb0265724b3e4c33f6466ccd4d3fa9dc5b85c8d9b61ce84b",
        ("--goal", "G1"): "9e355320adc5d2ddbb0265724b3e4c33f6466ccd4d3fa9dc5b85c8d9b61ce84b",
        ("--goal", "T1"): "01ea29f63cc2ce38301538d24ed2278a2cbac07e533c326e0df915861a1c0b0a",
    }
    # Every node's rendered (reliability, weight, cost) of 300 seeded models.
    RANDOM_MODELS_DIGEST = "fbe5c94a1e4b1e0bbb54cc924d547bae62e9502bdc176dc77f4ae83347d15b05"

    @pytest.mark.parametrize("args", sorted(COMPILE_DIGESTS))
    def test_bundled_compile(self, capsys, tmp_path, args):
        path = tmp_path / "bsn.json"
        path.write_text(bundled.data_text("bsn.json"))
        assert cli.main(["compile", str(path), *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.COMPILE_DIGESTS[args]

    def test_random_models(self):
        digest = hashlib.sha256()
        for seed in range(300):
            forms = compile_model(random_model(random.Random(seed)))
            for nid in sorted(forms):
                f = forms[nid]
                parts = (render(f.reliability), render(f.weight), render(f.cost))
                digest.update(f"{seed} {nid} {' | '.join(parts)}\n".encode("utf-8"))
        assert digest.hexdigest() == self.RANDOM_MODELS_DIGEST


def pairwise_fold(m):
    """Every node's forms by a left fold of the binary rows over its children.

    Written here over ``symexpr.param`` so that the n-ary fold is checked
    against a reference that shares no composition code with it.
    """
    out = {}

    def gate(nid, x):
        for c in m.node(nid).contexts:
            x = param(ParamTable.context(c).name) * x
        return x

    def walk(nid):
        node = m.node(nid)
        if node.is_executable:
            rf = param(ParamTable.reliability(nid).name) * param(ParamTable.frequency(nid).name)
            w = param(ParamTable.cost_weight(nid).name)
            rel, cost = gate(nid, rf), gate(nid, w * rf)
            if node.kind == NodeKind.PLACEHOLDER:
                o = param(ParamTable.opt(nid).name)
                rel, cost = rel * o, cost * o
            out[nid] = NodeForms(rel, w, cost)
            return out[nid]
        dm = node.dm_order is not None
        order = node.dm_order if dm else node.children
        first = walk(order[0])
        r, w = gate(order[0], first.reliability), gate(order[0], first.weight)
        cost = w * r if dm else gate(order[0], first.cost)
        for c in order[1:]:
            forms = walk(c)
            p, wc = gate(c, forms.reliability), gate(c, forms.weight)
            if dm or node.decomposition == Decomposition.OR:
                r, w, prev = r + p - r * p, w + wc, r
                cost = w * r - wc * prev
            else:
                r, w = r * p, w + wc
                cost = w * r
        out[nid] = NodeForms(r, w, cost)
        return out[nid]

    walk(m.root)
    return out


class TestNaryFold:
    """The n-ary fold equals the pairwise fold it replaces, node by node."""

    @staticmethod
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
            if len(node.children) == 1:
                seen.add("single-child")
            if len(node.children) >= 3:
                seen.add(f"wide-{'and' if node.decomposition != Decomposition.OR else 'or'}")
        return seen

    @staticmethod
    def assert_same(m):
        want = pairwise_fold(m)
        got = compile_model(m)
        assert sorted(got) == sorted(want)
        for nid, forms in got.items():
            assert forms.reliability == want[nid].reliability, nid
            assert forms.weight == want[nid].weight, nid
            assert forms.cost == want[nid].cost, nid

    def test_random_models(self):
        covered = set()
        for seed in range(200):
            rng = random.Random(seed)
            m = random_model(rng, max_leaves=rng.randint(2, 8))
            covered |= self.features(m)
            self.assert_same(m)
        assert covered == {
            "placeholder", "context", "dm", "or", "and", "single-child",
            "wide-and", "wide-or",
        }

    @pytest.mark.parametrize("n,decomposition,contexts,dm", [
        (6, Decomposition.AND, False, False),
        (7, Decomposition.AND, True, False),
        (5, Decomposition.OR, False, False),
        (6, Decomposition.OR, True, True),
    ])
    def test_wide_nodes(self, n, decomposition, contexts, dm):
        self.assert_same(chain_model(n, decomposition, leaf_contexts=contexts, dm=dm))

    def test_bundled_model(self, bsn):
        self.assert_same(bsn)


def test_and_chain_compiles_in_linear_constructions(monkeypatch):
    """Constructions and their output terms grow linearly along an And chain.

    A per-step cost product or pairwise weight sum makes the term count
    quadratic, and adds several constructions per leaf.
    """
    n = 400
    m = chain_model(n, Decomposition.AND)
    built = {"exprs": 0, "terms": 0}
    init = SymExpr.__init__

    def counted_init(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        built["exprs"] += 1
        built["terms"] += len(obj.terms)

    monkeypatch.setattr(SymExpr, "__init__", counted_init)
    forms = compile_model(m)
    assert len(forms["G"].cost.terms) == n
    assert built["exprs"] <= 10 * n
    assert built["terms"] <= 10 * n


def recursive_fold(model, node_id, builder, memo):
    """The depth-first recursive fold, kept as the reference for the order in
    which ``compiler._fold`` records its instructions."""
    if node_id in memo:
        return memo[node_id]
    node = model.node(node_id)

    def gate(contexts):
        factor = None
        for c in contexts:
            p = builder.param(ParamTable.context(c).name)
            factor = p if factor is None else builder.mul(factor, p)
        return (lambda x: x) if factor is None else (lambda x: builder.mul(factor, x))

    if node.is_executable:
        r = builder.param(ParamTable.reliability(node_id).name)
        rf = builder.mul(r, builder.param(ParamTable.frequency(node_id).name))
        w = builder.param(ParamTable.cost_weight(node_id).name)
        own = gate(node.contexts)
        rel, cost = own(rf), own(builder.mul(w, rf))
        if node.kind == NodeKind.PLACEHOLDER:
            o = builder.param(ParamTable.opt(node_id).name)
            rel, cost = builder.mul(rel, o), builder.mul(cost, o)
        memo[node_id] = NodeForms(rel, w, cost)
        return memo[node_id]
    dm = node.dm_order is not None
    conjunctive = not dm and node.decomposition != Decomposition.OR
    gated = []
    for child_id in node.dm_order if dm else node.children:
        child = recursive_fold(model, child_id, builder, memo)
        g = gate(model.node(child_id).contexts)
        gated.append((g(child.reliability), g(child.weight)))
    if len(gated) == 1:
        (rel, weight), = gated
        cost = builder.mul(weight, rel) if dm else g(child.cost)
    else:
        weight = builder.sum(w for _, w in gated)
        rel = gated[0][0]
        for p, _ in gated[1:]:
            prev = rel
            rel = (builder.mul(prev, p) if conjunctive
                   else builder.sub(builder.add(prev, p), builder.mul(prev, p)))
        cost = builder.mul(weight, rel)
        if not conjunctive:
            cost = builder.sub(cost, builder.mul(gated[-1][1], prev))
    memo[node_id] = NodeForms(rel, weight, cost)
    return memo[node_id]


class TestIterativeFold:
    """The post-order fold records the recursive fold's program, instruction
    for instruction, so expansion and every circuit stay the same."""

    @staticmethod
    def models(bsn):
        yield bsn
        for seed in range(500):
            rng = random.Random(seed)
            yield random_model(rng, max_leaves=rng.randint(1, 12))

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every builder the compiler makes, in order."""
        builders = []

        class Recording(CircuitBuilder):
            def __init__(self, max_terms=None):
                super().__init__(max_terms)
                builders.append(self)

        monkeypatch.setattr(compiler, "CircuitBuilder", Recording)
        return builders

    def test_compile_model_records_the_same_program(self, bsn, recorded):
        for m in self.models(bsn):
            forms = compile_model(m)
            want, memo = CircuitBuilder(), {}
            recursive_fold(m, m.root, want, memo)
            assert recorded[-1]._code == want._code
            assert list(forms) == list(memo)

    def test_compile_circuits_cuts_the_same_circuits(self, bsn, recorded):
        for i, m in enumerate(self.models(bsn)):
            inner = sorted(n.id for n in m.nodes.values() if not n.is_executable)
            # Nested goals, in both orders, share memoized subtrees.
            goals = random.Random(i).sample(sorted(m.nodes), min(3, len(m.nodes)))
            goals = goals + inner[:2] + [m.root] + inner[-1:]
            builder, memo = CircuitBuilder(), {}
            want = {g: [builder.circuit(w).code for w in recursive_fold(m, g, builder, memo)]
                    for g in goals}
            got = compile_circuits(m, goals)
            assert {g: [c.code for c in got[g]] for g in goals} == want
            assert recorded[-1]._code == builder._code


def fan_out(n):
    """A decision Or over ``n`` context-gated And-triples: its expanded cost
    grows about 2.5x per branch (the CLI tests build it from JSON)."""
    branches = tuple(f"B{i}" for i in range(n))
    nodes = [Node("G", "", NodeKind.GOAL, Decomposition.OR, branches, branches)]
    for i, branch in enumerate(branches):
        steps = tuple(f"{branch}.{j}" for j in range(3))
        nodes.append(Node(branch, "", NodeKind.TASK, Decomposition.AND, steps,
                          contexts=(f"K{i}",)))
        nodes.extend(leaf(step) for step in steps)
    return model("G", *nodes, contexts=[ContextDef(f"K{i}", "") for i in range(n)])


FIELDS = ("reliability", "weight", "cost")


def eager_expand(code, outputs):
    """Every register in ``outputs`` by one replay of the whole program, each
    polynomial that is not an output dropped after its last use, and each
    instruction's ``(op, terms its operands hold before they merge)``: the
    reference for deferred reads and the term budget."""
    last = list(range(len(code)))
    for i, ins in enumerate(code):
        if ins[0] != "load":
            for j in ins[1:]:
                last[j] = i
    for i in outputs:
        last[i] = len(code)
    values, steps = [], []
    for i, ins in enumerate(code):
        op = ins[0]
        if op == "load":
            values.append(param(ins[1]))
            steps.append((op, 1))
            continue
        regs = ins[1:]
        args = [values[j] for j in regs]
        sizes = [len(a.terms) for a in args]
        steps.append((op, sizes[0] * sizes[1] if op == "*" else sum(sizes)))
        for j in regs:
            if last[j] == i:
                values[j] = None
        values.append(sum_exprs(args) if op == "sum" else symexpr._ARITHMETIC[op](*args))
    return [values[i] for i in outputs], steps


def eager_forms(m):
    """``{node: {field: polynomial}}`` and the program's steps, by
    :func:`eager_expand` over the compiler's fold."""
    builder, memo = CircuitBuilder(), {}
    compiler._fold(m, m.root, builder, memo)
    exprs, steps = eager_expand(builder._code, [i for f in memo.values() for i in f])
    exprs = iter(exprs)
    return {nid: dict(zip(FIELDS, exprs)) for nid in memo}, steps


def read_all(forms):
    """``forms`` after reading every polynomial as ``goalc compile`` does: in
    fold order, weight before reliability before cost."""
    for f in forms.values():
        f.weight.terms, f.reliability.terms, f.cost.terms
    return forms


def cone(code, outputs):
    """The registers ``outputs`` depend on, themselves included."""
    seen, stack = set(), list(outputs)
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            ins = code[i]
            if ins[0] != "load":
                stack.extend(ins[1:])
    return seen


class CountedSets(dict):
    """A replay's held polynomials, counting the expansions of each register."""

    def __init__(self):
        super().__init__()
        self.sets = Counter()

    def __setitem__(self, index, value):
        self.sets[index] += 1
        super().__setitem__(index, value)


@pytest.fixture
def expansions(monkeypatch):
    """``(weak reference to the replay, expansions per register)`` of every
    replay the compiler's deferrals make, in order."""
    made = []

    class Counted(symexpr._Replay):
        def __init__(self, code, max_terms):
            super().__init__(code, max_terms)
            self._values = CountedSets()
            made.append((weakref.ref(self), self._values.sets))

    monkeypatch.setattr(symexpr, "_Replay", Counted)
    return made


def read_orders(forms, seed):
    """Every (node, field) of ``forms`` in fold order, in reverse, root first,
    and shuffled."""
    fold = [(nid, f) for nid in forms for f in FIELDS]
    root = list(forms)[-1]
    shuffled = list(fold)
    random.Random(seed).shuffle(shuffled)
    return {
        "fold": fold,
        "reverse": fold[::-1],
        "root-first": [p for p in fold if p[0] == root] + [p for p in fold if p[0] != root],
        "random": shuffled,
    }


#: Ways of reading a deferred polynomial for the first time.
FIRST_READS = (
    lambda e, want: e.terms,
    lambda e, want: e == want,
    lambda e, want: hash(e),
    lambda e, want: render(e),
    lambda e, want: evaluate(e, dict.fromkeys(want.parameter_names(), 1)),
)


class TestDeferredExpansion:
    """``compile_model`` expands each polynomial when first read: in any read
    order the results are the eager replay's, and no instruction is expanded
    twice."""

    @staticmethod
    def models(bsn):
        yield "bsn", bsn
        yield "fan_out(6)", fan_out(6)
        yield "and50", chain_model(50, Decomposition.AND)
        for seed in range(300):
            rng = random.Random(seed)
            yield f"random {seed}", random_model(rng, max_leaves=rng.randint(1, 12))

    def test_every_read_order_gives_the_eager_polynomials_once(self, bsn, expansions):
        for k, (name, m) in enumerate(self.models(bsn)):
            want, steps = eager_forms(m)
            for order, pairs in read_orders(want, k).items():
                forms = compile_model(m)
                assert list(forms) == list(want)
                replay, sets = expansions[-1]
                for n, (nid, field) in enumerate(pairs):
                    got, ref = getattr(forms[nid], field), want[nid][field]
                    FIRST_READS[n % len(FIRST_READS)](got, ref)
                    assert got == ref and hash(got) == hash(ref), (name, order, nid, field)
                    assert got.terms == ref.terms
                    assert all(type(c) is Fraction for c, _ in got.terms)
                    assert render(got) == render(ref)
                    assert max(sets.values()) == 1, (name, order)
                # A full read expands exactly what the eager replay does, and
                # then no polynomial holds the replay.
                assert sets == Counter(range(len(steps))), (name, order)
                assert replay() is None, (name, order)

    def test_one_read_expands_only_what_it_depends_on(self, bsn, expansions):
        builder, memo = CircuitBuilder(), {}
        compiler._fold(bsn, bsn.root, builder, memo)
        needed = len(builder.circuit(memo[bsn.root].reliability))
        forms = compile_model(bsn)
        assert not expansions[-1][1]
        forms[bsn.root].reliability.terms
        assert sorted(expansions[-1][1].values()) == [1] * needed
        assert needed < len(builder._code)

    def test_no_polynomial_holds_the_builder(self, bsn, monkeypatch):
        """Once ``compile_model`` returns, its unread polynomials hold their
        replay, but not the builder that recorded the fold."""
        made = []

        class Watched(CircuitBuilder):
            def __init__(self, max_terms=None):
                super().__init__(max_terms)
                made.append(weakref.ref(self))

        monkeypatch.setattr(compiler, "CircuitBuilder", Watched)
        want, _ = eager_forms(bsn)
        for max_terms in (None, 10_000):
            forms = compile_model(bsn, max_terms=max_terms)
            assert made[-1]() is None, max_terms
            for nid, f in read_all(forms).items():
                assert dict(zip(FIELDS, f)) == want[nid]
        assert len(made) == 2


class TestBudgetedCompile:
    """With ``max_terms``, reading every polynomial of ``compile_model`` as
    ``goalc compile`` does raises exactly what one replay of the whole
    program in program order would, word for word."""

    @pytest.mark.parametrize("shape,budget,message", [
        ("bsn", 433,
         "formula expands past 433 terms (one '*' step needs 434 before like terms merge)"),
        ("fan_out(12)", 100_000,
         "formula expands past 100000 terms "
         "(one '*' step needs 147420 before like terms merge)"),
    ])
    def test_error_text_is_pinned(self, bsn, shape, budget, message):
        m = bsn if shape == "bsn" else fan_out(12)
        forms = compile_model(m, max_terms=budget)
        with pytest.raises(TermBudgetError) as err:
            read_all(forms)
        assert str(err.value) == message

    def test_a_full_read_raises_exactly_past_the_largest_step(self):
        """Seeded random models, each at the budgets of {2, 4, ..., 256} on
        either side of its largest step and one drawn at random."""
        budgets = range(2, 257, 2)
        for seed in range(300):
            rng = random.Random(seed)
            m = random_model(rng, max_leaves=rng.randint(1, 12))
            _, steps = eager_forms(m)
            largest = max(need for _, need in steps)
            below = [b for b in budgets if b < largest][-1:]
            within = [b for b in budgets if b >= largest][:1]
            for b in below + within + [rng.choice(budgets)]:
                over = [(op, need) for op, need in steps if need > b]
                forms = compile_model(m, max_terms=b)
                if not over:
                    read_all(forms)
                    continue
                with pytest.raises(TermBudgetError) as err:
                    read_all(forms)
                op, need = over[0]
                assert str(err.value) == (
                    f"formula expands past {b} terms "
                    f"(one {op!r} step needs {need} before like terms merge)"), (seed, b)


def test_verify_expands_only_what_it_reports(bsn, expansions, tmp_path, capsys):
    """``goalc verify --goal G1`` expands the instructions of G1's reliability
    and cost circuits, each once, and no other instruction of the subtree."""
    path = tmp_path / "bsn.json"
    path.write_text(bundled.data_text("bsn.json"))
    assert cli.main(["verify", str(path), "--goal", "G1", "--trials", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0
    builder, memo = CircuitBuilder(), {}
    g1 = compiler._fold(bsn, "G1", builder, memo)
    read = cone(builder._code, [g1.reliability, g1.cost])
    ((_, sets),) = expansions
    assert sets == Counter(read)
    assert len(read) < len(builder._code)


class Interrupt(BaseException):
    """Stands for an asynchronous abort, such as a timer's exception."""


class TestInterruptedRead:
    @pytest.mark.parametrize("after", [0, 1, 7, 40])
    def test_a_read_resumes_after_an_exception(self, bsn, expansions, monkeypatch, after):
        want, steps = eager_forms(bsn)
        forms = compile_model(bsn)
        root = forms[bsn.root]
        raised = Interrupt()
        mul, calls = symexpr._ARITHMETIC["*"], []

        def interrupted(a, b):
            calls.append(None)
            if len(calls) > after:
                raise raised
            return mul(a, b)

        monkeypatch.setitem(symexpr._ARITHMETIC, "*", interrupted)
        with pytest.raises(Interrupt) as err:
            render(root.cost)
        assert err.value is raised
        del err
        raised.__traceback__ = None  # its frames hold the replay
        monkeypatch.setitem(symexpr._ARITHMETIC, "*", mul)
        assert root.cost == want[bsn.root]["cost"]
        assert render(root.cost) == render(want[bsn.root]["cost"])
        for nid, f in forms.items():
            assert dict(zip(FIELDS, f)) == want[nid]
        replay, sets = expansions[-1]
        assert sets == Counter(range(len(steps)))
        assert replay() is None


def test_one_read_peaks_far_below_the_eager_compile():
    """tracemalloc peaks (bytes) of fan_out(10): deferred compile plus reading
    the root reliability, against the eager full compile."""
    m = fan_out(10)
    tracemalloc.start()
    try:
        forms = compile_model(m)
        forms["G"].reliability.terms
        deferred = tracemalloc.get_traced_memory()[1]
        del forms
        tracemalloc.reset_peak()
        forms = eager_forms(m)
        eager = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"deferred {deferred} B, eager {eager} B")
    assert deferred * 10 < eager
