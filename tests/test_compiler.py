"""Formula compilation tests: composition rows, goldens, growth, I/O."""

import json
import random

import pytest

from goalc import bundled, cli
from goalc.cgm import (
    ContextDef,
    Decomposition,
    GoalModel,
    ModelError,
    Node,
    NodeKind,
    ParamTable,
)
from goalc.compiler import (
    CompositionKind,
    NodeForms,
    atomic_forms,
    compile_model,
    compose_node_form,
    compose_pair,
    param_growth_report,
)
from goalc.oracle import random_model
from goalc.symexpr import SymExpr, evaluate, parse_expr, render, substitute


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


class TestAtomicForms:
    def test_context_free_leaf(self):
        m = model("T", leaf("T"))
        f = atomic_forms(m, "T")
        assert render(f.reliability) == "f_T*r_T"
        assert render(f.weight) == "w_T"
        assert render(f.cost) == "f_T*r_T*w_T"

    def test_context_gated_leaf(self):
        m = model("T", leaf("T", ["K1"]), contexts=[ContextDef("K1", "")])
        f = atomic_forms(m, "T")
        assert render(f.reliability) == "C_K1*f_T*r_T"
        assert render(f.cost) == "C_K1*f_T*r_T*w_T"
        assert render(f.weight) == "w_T"  # weight stays raw

    def test_non_leaf_rejected(self):
        m = model("G", Node("G", "", NodeKind.GOAL, Decomposition.AND, ("T",)), leaf("T"))
        with pytest.raises(ModelError, match="not an executable leaf"):
            atomic_forms(m, "G")


class TestCompositionRows:
    """Pairwise composition identities, checked as exact polynomials."""

    def setup_method(self):
        m = model("T", leaf("A"), leaf("B"))
        self.a = atomic_forms(m, "A")
        self.b = atomic_forms(m, "B")
        self.table = ParamTable(m)

    def test_and_row(self):
        f = compose_pair(CompositionKind.AND, self.a, self.b)
        assert f.reliability == parse_expr("f_A*r_A*f_B*r_B")
        assert f.weight == parse_expr("w_A + w_B")
        assert f.cost == f.weight * f.reliability

    def test_or_row(self):
        f = compose_pair(CompositionKind.OR, self.a, self.b)
        p1, p2 = parse_expr("f_A*r_A"), parse_expr("f_B*r_B")
        assert f.reliability == p1 + p2 - p1 * p2
        assert f.cost == (f.weight * f.reliability) - parse_expr("w_B") * p1

    def test_decision_row_matches_or(self):
        assert compose_pair(CompositionKind.DM, self.a, self.b) == compose_pair(
            CompositionKind.OR, self.a, self.b
        )

    def test_contexts_enter_at_composition(self):
        k1 = ContextDef("K1", "")
        f = compose_pair(
            CompositionKind.OR, self.a, self.b,
            ctx_left=[self.table.context("K1")],
        )
        p1, p2 = parse_expr("C_K1*f_A*r_A"), parse_expr("f_B*r_B")
        assert f.reliability == p1 + p2 - p1 * p2
        assert f.weight == parse_expr("C_K1*w_A + w_B")

    def test_context_reapplication_is_idempotent(self):
        ctx = [self.table.context("K1")]
        once = compose_pair(CompositionKind.AND, self.a, self.b, ctx_left=ctx)
        pre_gated = NodeForms(
            reliability=parse_expr("C_K1") * self.a.reliability,
            weight=self.a.weight,
            cost=parse_expr("C_K1") * self.a.cost,
        )
        again = compose_pair(CompositionKind.AND, pre_gated, self.b, ctx_left=ctx)
        assert once == again

    def test_incompleteness_row(self):
        f = compose_pair(
            CompositionKind.INCOMPLETENESS,
            self.a,
            ctx_left=[self.table.context("K1")],
            opt=self.table.opt("A.X"),
        )
        assert f.reliability == parse_expr("C_K1*OPT_A_X*f_A*r_A")
        assert f.weight == parse_expr("w_A")
        assert f.cost == parse_expr("C_K1*OPT_A_X*f_A*r_A*w_A")

    def test_incompleteness_needs_opt(self):
        with pytest.raises(ModelError, match="OPT parameter"):
            compose_pair(CompositionKind.INCOMPLETENESS, self.a)
        with pytest.raises(ModelError, match="single subtree"):
            compose_pair(
                CompositionKind.INCOMPLETENESS, self.a, self.b,
                opt=self.table.opt("A.X"),
            )


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


class TestGrowth:
    def test_context_free_ratio(self):
        for n in (2, 4, 6):
            m = chain_model(n, Decomposition.AND)
            counts = param_growth_report(m)["G"]
            assert counts == {"reliability": 2 * n, "cost": 3 * n}

    def test_context_dependent_ratio(self):
        for n in (2, 4):
            m = chain_model(n, Decomposition.OR, leaf_contexts=True)
            counts = param_growth_report(m)["G"]
            assert counts == {"reliability": 3 * n, "cost": 4 * n}

    def test_decision_ratio(self):
        for n in (2, 5):
            m = chain_model(n, Decomposition.OR, leaf_contexts=True, dm=True)
            counts = param_growth_report(m)["G"]
            assert counts == {"reliability": 3 * n, "cost": 4 * n}

    def test_bundled_model_counts(self, bsn):
        counts = param_growth_report(bsn)
        # Every parameter of the model reaches the root cost formula.
        assert counts["G1"] == {"reliability": 35, "cost": 49}
        assert counts["T1.1"] == {"reliability": 6, "cost": 9}


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


def pairwise_fold(m):
    """Every node's forms by a left fold of ``compose_pair`` over its children."""
    params = ParamTable(m)
    out = {}

    def walk(nid):
        node = m.node(nid)
        if node.is_executable:
            out[nid] = compose_node_form(m, nid, params)
            return out[nid]
        if node.dm_order is not None:
            kind, order = CompositionKind.DM, node.dm_order
        elif node.decomposition == Decomposition.OR:
            kind, order = CompositionKind.OR, node.children
        else:
            kind, order = CompositionKind.AND, node.children
        items = [
            (walk(c), [params.context(k) for k in m.node(c).contexts]) for c in order
        ]
        if len(items) == 1:
            acc = compose_pair(kind, items[0][0], ctx_left=items[0][1])
        else:
            acc = compose_pair(kind, items[0][0], items[1][0],
                               ctx_left=items[0][1], ctx_right=items[1][1])
            for forms, ctx in items[2:]:
                acc = compose_pair(kind, acc, forms, ctx_right=ctx)
        out[nid] = acc
        return acc

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
