"""End-to-end command tests: exit codes, manifests, reproducibility."""

import hashlib
import json
import re

import pytest

from goalc import bundled, cli, prismgen
from goalc.cli import main

BROKEN_MODEL = json.dumps({
    "actor": "a",
    "root": "G",
    "nodes": [
        {"id": "G", "kind": "Goal"},
    ],
})


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "bsn.json"
    path.write_text(bundled.data_text("bsn.json"))
    return str(path)


@pytest.fixture()
def policy_file(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(bundled.data_text("policy.json"))
    return str(path)


@pytest.fixture()
def scenario_file(tmp_path):
    doc = json.loads(bundled.data_text("scenario_nominal.json"))
    doc["duration"] = 15
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompile:
    def test_stdout_formulas(self, capsys, model_file):
        code, out, _ = run_cli(capsys, "compile", model_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["goal"] == "G1"
        for goal in ("G1", "G2", "G3", "G4"):
            assert goal in doc["formulas"]
        assert set(doc["formulas"]["G4"]) == {"reliability", "weight", "cost"}

    def test_goal_restricts_subtree(self, capsys, model_file):
        code, out, _ = run_cli(capsys, "compile", model_file, "--goal", "G4")
        assert code == 0
        doc = json.loads(out)
        assert doc["goal"] == "G4"
        assert set(doc["formulas"]) == {"G4", "T2"}

    def test_unknown_goal(self, capsys, model_file):
        code, _, err = run_cli(capsys, "compile", model_file, "--goal", "G9")
        assert code == 1
        assert "G9" in err

    def test_invalid_model_lists_violations(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(BROKEN_MODEL)
        code, _, err = run_cli(capsys, "compile", str(path))
        assert code == 1
        assert "childless-node" in err

    def test_dangling_reference_names_rule_and_id(self, capsys, tmp_path):
        path = tmp_path / "dangling.json"
        path.write_text(json.dumps({
            "actor": "a", "root": "G",
            "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                       "children": ["nope"]}],
        }))
        code, _, err = run_cli(capsys, "compile", str(path))
        assert code == 1
        assert err == "error: invalid goal model: G: dangling-child: " \
            "child 'nope' is not defined\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compile", str(tmp_path / "nope.json"))
        assert code == 2
        assert "io error" in err

    def test_output_file_and_manifest(self, capsys, model_file, tmp_path):
        out_path = tmp_path / "formulas.json"
        code, out, _ = run_cli(capsys, "compile", model_file, "-o", str(out_path))
        assert code == 0
        assert out.strip() == str(out_path)
        manifest = json.loads((tmp_path / "formulas.json.manifest.json").read_text())
        assert manifest["command"] == "compile"
        assert manifest["inputs"] == [model_file]
        assert manifest["outputs"] == [str(out_path)]
        assert manifest["version"]
        expected = hashlib.sha256(open(model_file, "rb").read()).hexdigest()
        assert manifest["config_hash"] == expected

    def test_deterministic_output(self, capsys, model_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "compile", model_file, "-o", str(a))
        run_cli(capsys, "compile", model_file, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestEmitPrism:
    def test_writes_both_files(self, capsys, model_file, tmp_path, bsn):
        out_dir = tmp_path / "prism"
        code, out, _ = run_cli(capsys, "emit-prism", model_file,
                               "--goal", "T1", "--out-dir", str(out_dir))
        assert code == 0
        pm, pctl = out.strip().splitlines()
        assert open(pm).read() == prismgen.emit_model(bsn, "T1")
        assert open(pctl).read() == prismgen.emit_properties(bsn, "T1")

    def test_oversized_decision_rejected(self, capsys, tmp_path):
        children = [{"id": f"N{i}", "kind": "Task", "contexts": [f"K{i}"]}
                    for i in range(13)]
        doc = {
            "actor": "a", "root": "G",
            "nodes": [{
                "id": "G", "kind": "Goal", "decomposition": "Or",
                "children": [c["id"] for c in children],
                "dm": [c["id"] for c in children],
            }] + children,
            "contexts": [{"id": f"K{i}", "description": "x"} for i in range(13)],
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "emit-prism", str(path),
                               "--out-dir", str(tmp_path))
        assert code == 1
        assert "12" in err


class TestEval:
    @pytest.fixture()
    def formulas_file(self, capsys, model_file, tmp_path):
        path = tmp_path / "formulas.json"
        run_cli(capsys, "compile", model_file, "-o", str(path))
        return str(path)

    @staticmethod
    def unit_binding(formulas_file, tmp_path):
        doc = json.loads(open(formulas_file).read())
        names = set()
        for part in doc["formulas"]["G1"].values():
            names.update(n for n in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", part))
        path = tmp_path / "bind.json"
        path.write_text(json.dumps({name: 1.0 for name in names}))
        return str(path)

    def test_unit_binding_values(self, capsys, formulas_file, tmp_path):
        bind = self.unit_binding(formulas_file, tmp_path)
        code, out, _ = run_cli(capsys, "eval", formulas_file, "--bind", bind)
        assert code == 0
        doc = json.loads(out)
        assert doc["goal"] == "G1"
        assert doc["reliability"] == pytest.approx(1.0, abs=1e-12)
        # every executable leaf weighs 1, and at certainty the aggregate cost
        # is the whole subtree weight
        assert doc["cost"] == pytest.approx(14.0, abs=1e-12)
        assert doc["wall_ms"] >= 0

    def test_missing_binding(self, capsys, formulas_file, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"r_T2": 1.0}))
        code, _, err = run_cli(capsys, "eval", formulas_file, "--bind", str(path))
        assert code == 1
        assert "error" in err

    def test_not_a_formula_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        bind = tmp_path / "bind.json"
        bind.write_text("{}")
        code, _, err = run_cli(capsys, "eval", str(path), "--bind", str(bind))
        assert code == 1
        assert "compile" in err

    @pytest.mark.parametrize("formulas", [
        ["G1"],                                   # formulas is not an object
        {"G1": "f_T1*r_T1"},                      # the goal entry is not an object
        {"G1": {"reliability": "f_T1*r_T1"}},     # the goal entry lacks 'cost'
    ])
    def test_malformed_formula_entries(self, capsys, tmp_path, formulas):
        path = tmp_path / "formulas.json"
        path.write_text(json.dumps({"goal": "G1", "formulas": formulas}))
        bind = tmp_path / "bind.json"
        bind.write_text("{}")
        code, _, err = run_cli(capsys, "eval", str(path), "--bind", str(bind))
        assert code == 1
        assert err.startswith("error: ")

    def test_non_numeric_binding(self, capsys, formulas_file, tmp_path):
        bind = self.unit_binding(formulas_file, tmp_path)
        values = json.loads(open(bind).read())
        values["f_T2"] = "abc"
        open(bind, "w").write(json.dumps(values))
        code, _, err = run_cli(capsys, "eval", formulas_file, "--bind", bind)
        assert code == 1
        assert "f_T2" in err and err.startswith("error: ")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True,
                                       10**400],
                             ids=["NaN", "Infinity", "-Infinity", "true", "huge-int"])
    def test_non_finite_or_boolean_binding(self, capsys, formulas_file, tmp_path, value):
        bind = self.unit_binding(formulas_file, tmp_path)
        values = json.loads(open(bind).read())
        values["f_T2"] = value
        open(bind, "w").write(json.dumps(values))
        code, out, err = run_cli(capsys, "eval", formulas_file, "--bind", bind)
        assert (code, out) == (1, "")
        assert err.startswith("error: binding of 'f_T2' is not a finite number")

    def test_overflowing_result(self, capsys, formulas_file, tmp_path):
        bind = self.unit_binding(formulas_file, tmp_path)
        values = json.loads(open(bind).read())
        values.update({n: 1e308 for n in values if n.startswith("w_")})
        open(bind, "w").write(json.dumps(values))
        code, out, err = run_cli(capsys, "eval", formulas_file, "--bind", bind)
        assert (code, out) == (1, "")
        assert err == "error: cost of 'G1' is not finite under this binding: inf\n"


class TestVerify:
    def test_clean_report(self, capsys, model_file):
        code, out, _ = run_cli(capsys, "verify", model_file,
                               "--trials", "5", "--seed", "11")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == 0
        assert len(doc["rows"]) == 5
        assert all(row["ok"] for row in doc["rows"])
        assert all(row["reliability_delta"] <= 1e-9 for row in doc["rows"])

    def test_reproducible_and_thread_invariant(self, capsys, model_file):
        _, first, _ = run_cli(capsys, "verify", model_file,
                              "--trials", "6", "--seed", "4")
        _, second, _ = run_cli(capsys, "verify", model_file,
                               "--trials", "6", "--seed", "4")
        assert first == second

    # sha256 of the whole report: every oracle value is printed with its
    # shortest repr, so a change of enumeration order or rounding (even by
    # one ulp) changes these bytes.
    REPORTS = {
        ("G1", "200", "7"):
            "215a0d95e3fa8936b938351f75db66448b0bfc589c1504cb8e78df989e6cc985",
        ("T1", "50", "3"):
            "351e626b61df1d97d43bdfa2b2a6b3a33dd559a1ef6f5349adda6f8c10e347d1",
    }

    @pytest.mark.parametrize("goal,trials,seed", sorted(REPORTS))
    def test_report_bytes_are_pinned(self, capsys, model_file, goal, trials, seed):
        code, out, _ = run_cli(capsys, "verify", model_file, "--goal", goal,
                               "--trials", trials, "--seed", seed)
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == self.REPORTS[goal, trials, seed]

    def test_cost_is_compared_on_an_and_only_goal(self, capsys, model_file):
        # The pinned G1 and T1 reports fall outside the closed cost class;
        # T1.1 is an And of three leaves, so every trial compares cost.
        code, out, _ = run_cli(capsys, "verify", model_file, "--goal", "T1.1",
                               "--trials", "20", "--seed", "1")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 20
        assert all(row["cost_applicable"] and row["cost_delta"] <= 1e-9 for row in rows)

    def test_invalid_model(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(BROKEN_MODEL)
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert "childless-node" in err

    @pytest.mark.parametrize("flag", [
        ["--trials", "0"], ["--trials", "-3"], ["--tolerance", "nan"],
        ["--tolerance", "inf"], ["--tolerance=-0.5"],
    ])
    def test_vacuous_or_unsatisfiable_flags_are_usage_errors(self, capsys, model_file,
                                                             flag):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", model_file, *flag])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag[0].split("=")[0] in captured.err


def fan_out(n):
    """A decision Or over ``n`` context-gated And-triples: its expanded cost
    grows about 2.5x per branch."""
    branches = [f"B{i}" for i in range(n)]
    nodes = [{"id": "G", "kind": "Goal", "decomposition": "Or",
              "children": branches, "dm": branches}]
    for i, branch in enumerate(branches):
        steps = [f"{branch}.{j}" for j in range(3)]
        nodes.append({"id": branch, "kind": "Task", "decomposition": "And",
                      "children": steps, "contexts": [f"K{i}"]})
        nodes.extend({"id": step, "kind": "Task"} for step in steps)
    return json.dumps({"actor": "a", "root": "G", "nodes": nodes,
                       "contexts": [{"id": f"K{i}"} for i in range(n)]})


class TestTermBudget:
    @pytest.mark.parametrize("command", ["compile", "verify"])
    def test_exploding_expansion_fails_fast(self, capsys, tmp_path, command):
        path = tmp_path / "wide.json"
        path.write_text(fan_out(12))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: formula expands past 100000 terms")


def goal_chain(levels):
    """A chain of single-child And goals ending in one task, ``levels`` deep."""
    nodes = [{"id": f"G{i}", "kind": "Goal", "decomposition": "And",
              "children": [f"G{i + 1}" if i + 2 < levels else "T"]}
             for i in range(levels - 1)]
    nodes.append({"id": "T", "kind": "Task"})
    return json.dumps({"actor": "a", "root": "G0", "nodes": nodes})


class TestDeepModels:
    @pytest.mark.parametrize("levels", [100, 101, 3000])
    def test_every_command_finishes(self, capsys, tmp_path, levels):
        # Deeper than Python's default limit of 1,000 frames, too: no walk
        # over the goal tree recurses, and no depth bound is enforced.
        path = str(tmp_path / "deep.json")
        (tmp_path / "deep.json").write_text(goal_chain(levels))
        compiled, emitted, verified = [run_cli(capsys, *argv) for argv in (
            ["compile", path],
            ["emit-prism", path, "--out-dir", str(tmp_path)],
            ["verify", path, "--trials", "3"],
        )]
        assert [r[0] for r in (compiled, emitted, verified)] == [0, 0, 0]
        assert json.loads(compiled[1])["formulas"]["G0"]["reliability"] == "f_T*r_T"
        assert json.loads(verified[1])["failures"] == 0


class TestSimulate:
    def test_trace_to_stdout(self, capsys, model_file, policy_file, scenario_file):
        code, out, _ = run_cli(capsys, "simulate", model_file,
                               "--policy", policy_file, "--scenario", scenario_file)
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:3] == ["t", "reliability", "cost"]
        assert len(out.splitlines()) == 16  # header + 15 ticks

    def test_seeded_runs_are_byte_identical(self, capsys, model_file, policy_file,
                                            scenario_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "simulate", model_file,
                                 "--policy", policy_file,
                                 "--scenario", scenario_file,
                                 "--seed", "99", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["command"] == "simulate"
        assert len(manifest["inputs"]) == 3

    # sha256 of the trace CSV of every bundled scenario in both modes at its
    # default seed.  Any drift in a planned knob value or a formula value
    # (even by one ulp) changes these bytes.
    BUNDLED_TRACES = {
        ("nominal", "tamed"):
            "b3eb5bbb6c583257a7913e27307aafe1dc439fe89fd7c587fb0e211492ff968e",
        ("nominal", "untamed"):
            "7a8d03fa72f8402df55317310c5d6770d0a8fc6b2697a88c93cea143e3cfa0cb",
        ("hub_degradation", "tamed"):
            "6f774e258e40c08e5872e04e1fee5043abd91c432883d6b6afe5852313393b52",
        ("hub_degradation", "untamed"):
            "732d4ca87ad2fd4d016f70411188b5cf1b180995c06ba5a5127b6fb836e59b9b",
        ("miscommissioned", "tamed"):
            "6ccd0ff15359d682207f957b5f4287031f40834c98593d2e28001b19d135f1ba",
        ("miscommissioned", "untamed"):
            "381099087dfeb9e428c37bcf2d0fd4ef03016ab2769474a858b566f30500be2b",
        ("battery_cycling", "tamed"):
            "f4e30d2ff12c718c948058be4d640f44b22dd38fccefd56bbcc2b19016bd7211",
        ("battery_cycling", "untamed"):
            "c639f073bce1225fee73e77bf6d375cd0e51730b50763628cc15e4fc86d52af7",
    }

    @pytest.mark.parametrize("scenario,mode", sorted(BUNDLED_TRACES))
    def test_bundled_traces_are_pinned(self, capsys, model_file, policy_file,
                                       tmp_path, scenario, mode):
        path = tmp_path / "scenario.json"
        path.write_text(bundled.data_text(f"scenario_{scenario}.json"))
        code, out, _ = run_cli(capsys, "simulate", model_file, "--policy", policy_file,
                               "--scenario", str(path), "--mode", mode)
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == self.BUNDLED_TRACES[scenario, mode]

    def test_mode_override(self, capsys, model_file, policy_file, scenario_file):
        _, tamed, _ = run_cli(capsys, "simulate", model_file,
                              "--policy", policy_file, "--scenario", scenario_file,
                              "--mode", "tamed")
        _, untamed, _ = run_cli(capsys, "simulate", model_file,
                                "--policy", policy_file, "--scenario", scenario_file,
                                "--mode", "untamed")
        assert tamed.splitlines()[0] == untamed.splitlines()[0]

    def test_bad_scenario(self, capsys, model_file, policy_file, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"scenario\": \"Meteor\"}")
        code, _, err = run_cli(capsys, "simulate", model_file,
                               "--policy", policy_file, "--scenario", str(path))
        assert code == 1
        assert "error" in err

    def test_non_numeric_setpoint(self, capsys, model_file, scenario_file, tmp_path):
        doc = json.loads(bundled.data_text("policy.json"))
        doc["properties"][0]["setpoint"] = "abc"
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", model_file,
                               "--policy", str(path), "--scenario", scenario_file)
        assert code == 1
        assert "setpoint" in err and "abc" in err

    def test_unreachable_reliability_setpoint(self, capsys, model_file, scenario_file,
                                              tmp_path):
        doc = json.loads(bundled.data_text("policy.json"))
        doc["properties"][0]["setpoint"] = 1.5
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", model_file,
                                 "--policy", str(path), "--scenario", scenario_file)
        assert (code, out) == (1, "")
        assert err == "error: a Reliability setpoint must not exceed 1, got 1.5\n"

    @pytest.mark.parametrize("path,value,message", [
        (("initial_frequency", "T9"), 0.5,
         "initial_frequency names knobs the policy lacks: ['T9']"),
        (("true", "reliability", "T2"), 7, "true reliability of 'T2' outside [0, 1]: 7.0"),
        (("true", "cost", "T2"), -1, "true cost of 'T2' is negative or not finite: -1.0"),
        (("true", "cost", "T2"), float("inf"),
         "true cost of 'T2' is negative or not finite: inf"),
    ], ids=["unknown-knob", "reliability-7", "negative-cost", "infinite-cost"])
    def test_scenario_checked_against_policy_and_range(self, capsys, model_file,
                                                       policy_file, tmp_path,
                                                       path, value, message):
        doc = json.loads(bundled.data_text("scenario_nominal.json"))
        doc["duration"] = 5
        entry = doc
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", model_file,
                                 "--policy", policy_file, "--scenario", str(scenario))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_out_of_range_prior(self, capsys, model_file, policy_file, tmp_path):
        doc = json.loads(bundled.data_text("scenario_nominal.json"))
        doc["duration"] = 5
        doc["estimates"]["reliability"]["T2"] = 1.5
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", model_file,
                               "--policy", policy_file, "--scenario", str(path))
        assert code == 1
        assert "outside [0, 1]" in err

    @pytest.mark.parametrize("table,edit,message", [
        ("cost", {"T1.11": None}, "priors name different leaves: ['T1.11']"),
        ("reliability", {"NOPE": 0.9}, "priors name different leaves: ['NOPE']"),
    ], ids=["cost-lacks-leaf", "reliability-adds-leaf"])
    def test_mismatched_prior_tables(self, capsys, model_file, policy_file, tmp_path,
                                     table, edit, message):
        doc = json.loads(bundled.data_text("scenario_nominal.json"))
        doc["duration"] = 5
        for leaf, value in edit.items():
            if value is None:
                del doc["estimates"][table][leaf]
            else:
                doc["estimates"][table][leaf] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", model_file,
                                 "--policy", policy_file, "--scenario", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert message in err


class TestDomainErrors:
    def test_internal_value_error_is_not_a_domain_error(self, capsys, model_file,
                                                        monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "compile_model", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["compile", model_file])

    def test_non_utf8_input(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{}")
        code, _, err = run_cli(capsys, "compile", str(path))
        assert code == 1
        assert "UTF-8" in err

    def test_formula_file_not_json(self, capsys, tmp_path):
        path = tmp_path / "formulas.json"
        path.write_text("{not json")
        bind = tmp_path / "bind.json"
        bind.write_text("{}")
        code, _, err = run_cli(capsys, "eval", str(path), "--bind", str(bind))
        assert code == 1
        assert "not JSON" in err


class TestReport:
    @staticmethod
    def write_csv(path, rows):
        lines = ["t,reliability,cost"] + [
            f"{i},{r},{c}" for i, (r, c) in enumerate(rows)
        ]
        path.write_text("\n".join(lines) + "\n")

    def test_metrics_output(self, capsys, tmp_path):
        tamed, untamed = tmp_path / "tamed.csv", tmp_path / "untamed.csv"
        self.write_csv(tamed, [(0.89, 0.46), (0.91, 0.48)])
        self.write_csv(untamed, [(0.80, 0.40), (0.80, 0.40)])
        code, out, _ = run_cli(capsys, "report", str(tamed), str(untamed))
        assert code == 0
        doc = json.loads(out)
        assert doc["e_r"] == pytest.approx(10.0)
        assert doc["d_untamed"]["reliability"] == pytest.approx(0.10)

    def test_infinite_ratio_serialized_as_string(self, capsys, tmp_path):
        tamed, untamed = tmp_path / "tamed.csv", tmp_path / "untamed.csv"
        self.write_csv(tamed, [(0.90, 0.47)])
        self.write_csv(untamed, [(0.80, 0.40)])
        code, out, _ = run_cli(capsys, "report", str(tamed), str(untamed))
        assert code == 0
        doc = json.loads(out)
        assert doc["e_r"] == "inf" and doc["e_c"] == "inf"

    def test_unequal_lengths(self, capsys, tmp_path):
        tamed, untamed = tmp_path / "tamed.csv", tmp_path / "untamed.csv"
        self.write_csv(tamed, [(0.9, 0.47)])
        self.write_csv(untamed, [(0.9, 0.47), (0.9, 0.47)])
        code, _, err = run_cli(capsys, "report", str(tamed), str(untamed))
        assert code == 1
        assert "length" in err

    def test_missing_trace_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "report", str(tmp_path / "x.csv"),
                             str(tmp_path / "y.csv"))
        assert code == 2


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "goalc" in capsys.readouterr().out
