"""Goal-model parsing, validation, and parameter-naming tests."""

import json
import math

import pytest

from goalc.cgm import (
    Condition,
    ContextDef,
    ContextKind,
    Decomposition,
    GoalModel,
    ModelError,
    Node,
    NodeKind,
    ParamTable,
    ParseError,
    ValidationError,
    Violation,
    parse_model,
    validate,
)
from goalc.symexpr import ParamKind

MINIMAL = json.dumps({
    "actor": "a",
    "root": "T",
    "nodes": [{"id": "T", "kind": "LeafTask", "label": "do the thing"}],
})


def leaf(nid, contexts=()):
    return Node(nid, nid, NodeKind.LEAF_TASK, contexts=tuple(contexts))


def model(root, *nodes, contexts=()):
    return GoalModel(
        "test", root, {n.id: n for n in nodes},
        {c.id: c for c in contexts},
    )


class TestParse:
    @staticmethod
    def assert_rejected(doc, node_id, rule, message):
        with pytest.raises(ValidationError) as err:
            parse_model(json.dumps(doc))
        assert Violation(node_id, rule, message) in err.value.violations

    def test_minimal_leaf_model(self):
        m = parse_model(MINIMAL)
        assert m.root == "T"
        assert len(m.nodes) == 1
        assert not m.contexts
        assert m.node("T").is_executable

    def test_bundled_model(self, bsn):
        assert bsn.root == "G1"
        assert bsn.node("T1").dm_order == ("T1.1", "T1.2", "T1.3", "T1.4", "T1.X")
        assert sorted(bsn.contexts) == ["C1", "C2", "C3", "C4", "C5", "C6"]
        assert len(bsn.leaves_under(bsn.root)) == 14
        assert bsn.placeholders() == ["T1.X"]
        assert validate(bsn) == []

    def test_children_order_preserved(self, bsn):
        assert bsn.node("G2").children == ("G3", "G4")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError, match=r"line 2, column"):
            parse_model('{"actor": "a",\n  "root": }')

    def test_missing_top_level_key(self):
        with pytest.raises(ParseError, match="missing required key: 'nodes'"):
            parse_model('{"actor": "a", "root": "T"}')

    def test_non_object_document(self):
        with pytest.raises(ParseError, match="JSON object"):
            parse_model("[1, 2]")

    def test_duplicate_node_id(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "LeafTask"},
                         {"id": "T", "kind": "LeafTask"}]}
        with pytest.raises(ParseError, match="duplicate node id"):
            parse_model(json.dumps(doc))

    def test_unknown_child_reference(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["nope"]}]}
        self.assert_rejected(doc, "G", "dangling-child", "child 'nope' is not defined")

    def test_unknown_context_reference(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "LeafTask", "contexts": ["C9"]}]}
        self.assert_rejected(doc, "T", "dangling-context", "context 'C9' is not defined")

    def test_undefined_root(self):
        doc = {"actor": "a", "root": "missing",
               "nodes": [{"id": "T", "kind": "LeafTask"}]}
        self.assert_rejected(doc, "missing", "dangling-root", "root node is not defined")

    def test_dm_on_leaf_rejected(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "LeafTask", "dm": ["T"]}]}
        self.assert_rejected(doc, "T", "dm-on-leaf", "DM annotation on an executable node")

    def test_leaf_with_children_rejected(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "LeafTask", "children": ["U"]},
                         {"id": "U", "kind": "LeafTask"}]}
        self.assert_rejected(doc, "T", "leaf-with-children",
                             "executable node cannot be refined")

    def test_invalid_enum_value(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "Leaf"}]}
        with pytest.raises(ParseError, match="invalid NodeKind value 'Leaf'"):
            parse_model(json.dumps(doc))

    def test_childless_task_becomes_leaf(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "Task"}]}
        assert parse_model(json.dumps(doc)).node("T").kind == NodeKind.LEAF_TASK

    def test_placeholder_flag(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["G.X"]},
                         {"id": "G.X", "kind": "Task", "placeholder": True}]}
        m = parse_model(json.dumps(doc))
        assert m.node("G.X").kind == NodeKind.PLACEHOLDER

    def test_malformed_condition(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "LeafTask"}],
               "contexts": [{"id": "C1", "kind": "Double",
                             "condition": {"var": "x"}}]}
        with pytest.raises(ParseError, match="condition must have var/op/value"):
            parse_model(json.dumps(doc))

    @staticmethod
    def shaped(key, value, node=None):
        """A valid model with ``key`` of the document, or of ``node``, set to ``value``."""
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["A", "B"]},
                         {"id": "A", "kind": "LeafTask", "contexts": ["C1"]},
                         {"id": "B", "kind": "LeafTask"}],
               "contexts": [{"id": "C1", "kind": "Double",
                             "condition": {"var": "hr", "op": ">=", "value": 85}}]}
        if node == "C1":
            doc["contexts"][0]["condition"][key] = value
        elif node is not None:
            next(n for n in doc["nodes"] if n["id"] == node)[key] = value
        else:
            doc[key] = value
        return json.dumps(doc)

    @pytest.mark.parametrize("key,value,node,message", [
        ("nodes", 5, None, "'nodes' must be a list of objects, got 5"),
        ("nodes", None, None, "'nodes' must be a list of objects, got None"),
        ("nodes", True, None, "'nodes' must be a list of objects, got True"),
        ("contexts", 5, None, "'contexts' must be a list of objects, got 5"),
        ("contexts", None, None, "'contexts' must be a list of objects, got None"),
        ("contexts", {"id": "C1"}, None, "'contexts' must be a list of objects, got {'id': 'C1'}"),
        ("children", 5, "G", "node 'G': 'children' must be a list of ids, got 5"),
        ("children", "AB", "G", "node 'G': 'children' must be a list of ids, got 'AB'"),
        ("dm", 5, "G", "node 'G': 'dm' must be a list of ids, got 5"),
        ("dm", "BA", "G", "node 'G': 'dm' must be a list of ids, got 'BA'"),
        ("contexts", 3, "A", "node 'A': 'contexts' must be a list of ids, got 3"),
        ("contexts", "C1", "A", "node 'A': 'contexts' must be a list of ids, got 'C1'"),
        ("value", "abc", "C1", "context 'C1': condition value is not a number"),
        ("value", None, "C1", "context 'C1': condition value is not a number"),
        ("value", 10**400, "C1", "context 'C1': condition value is not a number"),
        ("value", math.nan, "C1", "context 'C1': condition value is not a finite number, got nan"),
        ("value", math.inf, "C1", "context 'C1': condition value is not a finite number, got inf"),
        ("value", -math.inf, "C1",
         "context 'C1': condition value is not a finite number, got -inf"),
        ("value", "nan", "C1", "context 'C1': condition value is not a finite number, got 'nan'"),
        ("value", True, "C1", "context 'C1': condition value is not a finite number, got True"),
        ("value", False, "C1", "context 'C1': condition value is not a finite number, got False"),
    ])
    def test_malformed_shape_names_the_key(self, key, value, node, message):
        with pytest.raises(ParseError) as info:
            parse_model(self.shaped(key, value, node))
        assert str(info.value) == message

    def test_id_items_keep_their_string_form(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": [1, 2], "contexts": None},
                         {"id": 1, "kind": "LeafTask", "children": None},
                         {"id": 2, "kind": "LeafTask", "dm": []}]}
        m = parse_model(json.dumps(doc))
        assert m.node("G").children == ("1", "2") and m.node("G").contexts == ()
        assert m.node("1").children == () and m.node("2").dm_order is None
        with pytest.raises(ValidationError) as err:
            parse_model(self.shaped("children", ["A", 7], "G"))
        assert "child '7' is not defined" in str(err.value)

    def test_validation_failure_raises(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["T", "U"]},
                         {"id": "T", "kind": "LeafTask"},
                         {"id": "U", "kind": "Goal"}]}
        with pytest.raises(ValidationError) as err:
            parse_model(json.dumps(doc))
        assert any(v.rule == "childless-node" for v in err.value.violations)


class TestValidate:
    def rules(self, m):
        return [v.rule for v in validate(m)]

    def test_valid_model_is_clean(self, bsn):
        assert validate(bsn) == []

    def test_missing_decomposition(self):
        g = Node("G", "", NodeKind.GOAL, Decomposition.NONE, ("T",))
        assert "missing-decomposition" in self.rules(model("G", g, leaf("T")))

    def test_means_end_single_child(self):
        g = Node("G", "", NodeKind.GOAL, Decomposition.MEANS_END, ("T", "U"))
        m = model("G", g, leaf("T"), leaf("U"))
        assert "means-end-single-child" in self.rules(m)

    def test_dm_requires_or(self):
        c = ContextDef("C1", "")
        g = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("T", "U"), ("T", "U"))
        m = model("G", g, leaf("T", ["C1"]), leaf("U", ["C1"]), contexts=[c])
        assert "dm-requires-or" in self.rules(m)

    def test_dm_list_mismatch(self):
        c = ContextDef("C1", "")
        g = Node("G", "", NodeKind.GOAL, Decomposition.OR, ("T", "U"), ("T", "T"))
        m = model("G", g, leaf("T", ["C1"]), leaf("U", ["C1"]), contexts=[c])
        assert "dm-list-mismatch" in self.rules(m)

    def test_dm_child_needs_context(self):
        c = ContextDef("C1", "")
        g = Node("G", "", NodeKind.GOAL, Decomposition.OR, ("T", "U"), ("T", "U"))
        m = model("G", g, leaf("T", ["C1"]), leaf("U"), contexts=[c])
        assert self.rules(m) == ["dm-child-needs-context"]

    def test_multiple_parents(self):
        g = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("A", "B"))
        a = Node("A", "", NodeKind.TASK, Decomposition.AND, ("T",))
        b = Node("B", "", NodeKind.TASK, Decomposition.AND, ("T",))
        assert "multiple-parents" in self.rules(model("G", g, a, b, leaf("T")))

    def test_cycle(self):
        a = Node("A", "", NodeKind.GOAL, Decomposition.AND, ("B",))
        b = Node("B", "", NodeKind.GOAL, Decomposition.AND, ("A",))
        assert "cycle" in self.rules(model("A", a, b))

    def test_unreachable_node(self):
        assert "unreachable-node" in self.rules(model("T", leaf("T"), leaf("U")))

    def test_placeholder_id_convention(self):
        p = Node("P", "", NodeKind.PLACEHOLDER)
        g = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("P",))
        assert "placeholder-id" in self.rules(model("G", g, p))

    def test_dangling_references(self):
        g = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("T", "T", "U"), None, ("C9",))
        rules = self.rules(model("G", g, leaf("T")))
        assert {"dangling-child", "duplicate-child", "dangling-context"} <= set(rules)

    def test_dangling_dm_entry_is_named(self):
        c = ContextDef("C1", "")
        g = Node("G", "", NodeKind.GOAL, Decomposition.OR, ("T", "U"), ("T", "zz"))
        found = validate(model("G", g, leaf("T", ["C1"]), leaf("U", ["C1"]), contexts=[c]))
        assert Violation("G", "dangling-child", "DM entry 'zz' is not defined") in found
        assert "dm-list-mismatch" in [v.rule for v in found]

    def test_context_condition_rules(self):
        cond = Condition("x", "<", 1.0)
        bad_bool = ContextDef("C1", "", ContextKind.BOOLEAN, cond)
        bad_double = ContextDef("C2", "", ContextKind.DOUBLE, None)
        m = model("T", leaf("T", ["C1", "C2"]), contexts=[bad_bool, bad_double])
        assert self.rules(m) == ["context-condition", "context-condition"]

    def test_leaf_ids_that_mangle_alike_collide(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["T.1", "T_1"]},
                         {"id": "T.1", "kind": "LeafTask"},
                         {"id": "T_1", "kind": "LeafTask"}]}
        with pytest.raises(ValidationError, match="r_T_1") as err:
            parse_model(json.dumps(doc))
        hits = [v for v in err.value.violations if v.rule == "param-name-collision"]
        assert [v.node_id for v in hits] == ["T.1", "T_1"]

    def test_placeholder_and_leaf_ids_collide(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["T.X", "T_X"]},
                         {"id": "T.X", "kind": "Task", "placeholder": True},
                         {"id": "T_X", "kind": "LeafTask"}]}
        with pytest.raises(ValidationError, match="param-name-collision"):
            parse_model(json.dumps(doc))

    def test_context_ids_that_mangle_alike_collide(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["T", "U"]},
                         {"id": "T", "kind": "LeafTask", "contexts": ["K.1"]},
                         {"id": "U", "kind": "LeafTask", "contexts": ["K_1"]}],
               "contexts": [{"id": "K.1"}, {"id": "K_1"}]}
        with pytest.raises(ValidationError, match="C_K_1") as err:
            parse_model(json.dumps(doc))
        hits = [v for v in err.value.violations if v.rule == "param-name-collision"]
        assert [v.node_id for v in hits] == ["K.1", "K_1"]

    def test_only_parameter_owners_collide(self, bsn):
        # Inner goals own no parameters, so a goal may share a leaf's mangled id.
        g = Node("G.1", "", NodeKind.GOAL, Decomposition.AND, ("G_1", "T1.1"))
        m = model("G.1", g, leaf("G_1"), leaf("T1.1"))
        assert "param-name-collision" not in self.rules(m)
        assert "param-name-collision" not in self.rules(bsn)

    @pytest.mark.parametrize("ids,context,culprit,name", [
        (("T-2", "U"), "K", "T-2", "r_T-2"),
        (("T 2", "U"), "K", "T 2", "r_T 2"),
        (("T", "U.X"), "K+1", "K+1", "C_K+1"),
    ], ids=["hyphen", "space", "context-plus"])
    def test_ids_make_names_formula_text_reads_as_one(self, bsn, ids, context, culprit, name):
        g = Node("G", "", NodeKind.GOAL, Decomposition.AND, ids)
        m = model("G", g, leaf(ids[0], [context]), leaf(ids[1]),
                  contexts=[ContextDef(context, "")])
        hits = [v for v in validate(m) if v.rule == "param-name-syntax"]
        assert hits == [Violation(culprit, "param-name-syntax",
                                  f"formula text cannot read {name!r} as one name")]
        assert "param-name-syntax" not in self.rules(bsn)

    def test_pure_and_ordered(self, bsn):
        g = Node("G", "", NodeKind.GOAL, Decomposition.NONE, ())
        m = model("Z", g, leaf("T"))
        first = validate(m)
        assert first == validate(m)
        assert [v.node_id for v in first] == sorted(v.node_id for v in first)


class TestNode:
    def test_leaf_tasks_and_placeholders_execute(self):
        executable = [k for k in NodeKind if Node("N", "", k).is_executable]
        assert executable == [NodeKind.LEAF_TASK, NodeKind.PLACEHOLDER]

    @pytest.mark.parametrize("decomposition,dm,disjunctive", [
        (Decomposition.AND, None, False),
        (Decomposition.MEANS_END, None, False),
        (Decomposition.OR, None, True),
        (Decomposition.OR, ("B", "A"), True),
    ])
    def test_or_and_decision_nodes_are_disjunctive(self, decomposition, dm, disjunctive):
        node = Node("G", "", NodeKind.GOAL, decomposition, ("A", "B"), dm)
        assert node.disjunctive is disjunctive
        assert not leaf("T").disjunctive


class TestCondition:
    def test_operators(self):
        env = {"hr": 90.0}
        assert Condition("hr", ">=", 85).holds(env)
        assert Condition("hr", "<", 100).holds(env)
        assert Condition("hr", "==", 90).holds(env)
        assert Condition("hr", "!=", 91).holds(env)
        assert not Condition("hr", ">", 90).holds(env)
        assert not Condition("hr", "<=", 89).holds(env)

    def test_unknown_operator(self):
        with pytest.raises(ParseError, match="unknown comparison operator"):
            Condition("hr", "~", 1)

    def test_missing_variable(self):
        with pytest.raises(ModelError, match="not provided"):
            Condition("hr", "<", 1).holds({})


class TestParamTable:
    def test_names_mangle_dots(self, bsn):
        t = ParamTable(bsn)
        assert t.reliability("T1.11").name == "r_T1_11"
        assert t.frequency("T1.11").name == "f_T1_11"
        assert t.cost_weight("T1.X").name == "w_T1_X"
        assert t.opt("T1.X").name == "OPT_T1_X"
        assert t.context("C6").name == "C_C6"

    def test_total_parameter_count(self, bsn):
        # 14 executable leaves x 3, plus 6 contexts, plus 1 OPT flag.
        params = ParamTable(bsn).all_parameters()
        assert len(params) == 14 * 3 + 6 + 1
        assert len({p.name for p in params}) == len(params)

    def test_kinds_follow_the_naming_method_not_the_id(self):
        # Ids that begin with a prefix themselves: a leaf "C_1", a context
        # "r_x" and a placeholder "OPT_a.X".
        m = model(
            "G", Node("G", "", NodeKind.GOAL, Decomposition.AND, ("C_1", "OPT_a.X")),
            leaf("C_1", ("r_x",)), Node("OPT_a.X", "", NodeKind.PLACEHOLDER),
            contexts=[ContextDef("r_x", "")],
        )
        assert validate(m) == []
        kinds = {p.name: (p.kind, p.ref) for p in ParamTable(m).all_parameters()}
        assert kinds == {
            "r_C_1": (ParamKind.RELIABILITY, "C_1"),
            "f_C_1": (ParamKind.FREQUENCY, "C_1"),
            "w_C_1": (ParamKind.COST, "C_1"),
            "r_OPT_a_X": (ParamKind.RELIABILITY, "OPT_a.X"),
            "f_OPT_a_X": (ParamKind.FREQUENCY, "OPT_a.X"),
            "w_OPT_a_X": (ParamKind.COST, "OPT_a.X"),
            "OPT_OPT_a_X": (ParamKind.OPT, "OPT_a.X"),
            "C_r_x": (ParamKind.CONTEXT, "r_x"),
        }
