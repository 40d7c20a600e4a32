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

    def test_invalid_model(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(BROKEN_MODEL)
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert "childless-node" in err


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
