"""Command-line front end for the whole pipeline.

Subcommands: ``compile`` (model to formula JSON), ``emit-prism`` (model to
MDP/query text), ``eval`` (formula JSON at a concrete binding), ``verify``
(random-binding comparison against the enumeration oracle), ``simulate``
(closed-loop trace CSV), and ``report`` (trace pair to taming metrics).

Exit codes: 0 on success, 1 for domain errors (invalid models, unknown ids,
missing bindings, metric errors), 2 for IO and usage errors.  Data goes to
stdout, diagnostics to stderr.  Commands that write files also write a
``<output>.manifest.json`` recording command, inputs, seed, outputs, tool
version, and an input-content hash, so any artifact can be traced back to
what produced it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import random
import sys
import time
from typing import Callable, Dict, Mapping, Optional, Sequence

from . import __version__, bsnsim, oracle, prismgen, runtime, symexpr
from .bsnsim import ConfigError
from .cgm import ModelError, ParseError, mangle, parse_model
from .compiler import compile_model
from .prismgen import EmitError
from .runtime import PlanError, PolicyError, StateError
from .symexpr import ExprError


class InputError(ValueError):
    """Raised for an input file the command cannot read as its format."""


#: Terms ``compile`` and ``verify`` let a formula expansion reach (see
#: :meth:`symexpr.CircuitBuilder.expand`), so that a model whose formulas
#: explode fails within a second instead of running for minutes.  The
#: bundled model needs 434.
MAX_TERMS = 100_000


DOMAIN_ERRORS = (
    ParseError, ModelError, EmitError, PolicyError, PlanError, StateError,
    ConfigError, ExprError, InputError,
)


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_manifest(
    command: str,
    inputs: Sequence[str],
    outputs: Sequence[str],
    seed: Optional[int] = None,
) -> None:
    digest = hashlib.sha256()
    for path in inputs:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    manifest = {
        "command": command,
        "inputs": list(inputs),
        "seed": seed,
        "outputs": list(outputs),
        "version": __version__,
        "config_hash": digest.hexdigest(),
    }
    _write(f"{outputs[0]}.manifest.json", json.dumps(manifest, indent=2) + "\n")


def _load_model(path: str):
    return parse_model(_read(path))


# -- compile --------------------------------------------------------------------


def _cmd_compile(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    forms = compile_model(model, args.goal, MAX_TERMS)
    doc = {
        "actor": model.actor,
        "goal": args.goal or model.root,
        "formulas": {
            node: {
                "reliability": symexpr.render(f.reliability),
                "weight": symexpr.render(f.weight),
                "cost": symexpr.render(f.cost),
            }
            for node, f in sorted(forms.items())
        },
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        _write(args.out, text)
        _write_manifest("compile", [args.model], [args.out])
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


# -- emit-prism -----------------------------------------------------------------


def _cmd_emit_prism(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    goal = args.goal or model.root
    mdp = prismgen.emit_model(model, goal)
    queries = prismgen.emit_properties(model, goal)
    os.makedirs(args.out_dir, exist_ok=True)
    base = os.path.join(args.out_dir, mangle(goal))
    _write(f"{base}.pm", mdp)
    _write(f"{base}.pctl", queries)
    _write_manifest("emit-prism", [args.model], [f"{base}.pm", f"{base}.pctl"])
    print(f"{base}.pm")
    print(f"{base}.pctl")
    return 0


# -- eval -----------------------------------------------------------------------


def _read_json(path: str) -> object:
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not JSON: {exc.msg} (line {exc.lineno})") from None


def _cmd_eval(args: argparse.Namespace) -> int:
    doc = _read_json(args.formulas)
    if not isinstance(doc, dict) or not isinstance(doc.get("formulas"), dict):
        raise InputError("formula file must be the output of 'compile'")
    goal = args.goal or doc.get("goal")
    if not isinstance(goal, str) or goal not in doc["formulas"]:
        raise InputError(f"no formulas for goal {goal!r} in {args.formulas}")
    entry = doc["formulas"][goal]
    if not isinstance(entry, dict) or not all(
        isinstance(entry.get(part), str) for part in ("reliability", "cost")
    ):
        raise InputError(f"formulas of {goal!r} need 'reliability' and 'cost' strings")
    binding = _read_json(args.bind)
    if not isinstance(binding, dict):
        raise InputError("binding file must be a JSON object of parameter values")
    for name, value in binding.items():
        # JSON true would bind as 1, NaN and Infinity would print as non-JSON
        # output, and an integer past the float range cannot be evaluated.
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise InputError(f"binding of {name!r} is not a finite number: {value!r}")
    reliability_expr = symexpr.parse_expr(entry["reliability"])
    cost_expr = symexpr.parse_expr(entry["cost"])
    started = time.perf_counter()
    reliability = symexpr.evaluate(reliability_expr, binding)
    cost = symexpr.evaluate(cost_expr, binding)
    wall_ms = (time.perf_counter() - started) * 1000.0
    print(json.dumps({
        "goal": goal,
        "reliability": reliability,
        "cost": cost,
        "wall_ms": round(wall_ms, 3),
    }, indent=2))
    return 0


# -- verify ---------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    goal = args.goal or model.root
    forms = compile_model(model, goal, MAX_TERMS)[goal]

    master = random.Random(args.seed)
    rows = []
    for _ in range(args.trials):
        seed = master.randrange(2**63)
        binding = oracle.random_binding(random.Random(seed), model)
        result = oracle.check_formula(model, goal, forms, binding)
        row = {
            "seed": seed,
            "goal": goal,
            "reliability_formula": result.reliability_formula,
            "reliability_oracle": result.reliability_oracle,
            "reliability_delta": result.reliability_delta,
            "cost_applicable": result.cost_applicable,
            "ok": result.ok(args.tolerance),
        }
        if result.cost_applicable:
            row["cost_formula"] = result.cost_formula
            row["cost_oracle"] = result.cost_oracle
            row["cost_delta"] = result.cost_delta
        rows.append(row)
    failures = sum(1 for row in rows if not row["ok"])
    print(json.dumps({
        "goal": goal,
        "trials": args.trials,
        "tolerance": args.tolerance,
        "failures": failures,
        "rows": rows,
    }, indent=2))
    return 0 if failures == 0 else 1


# -- simulate -------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    policy = runtime.load_policy(_read(args.policy), model)
    mode = {"tamed": "Tamed", "untamed": "Untamed"}.get(args.mode)
    config = bsnsim.load_scenario(_read(args.scenario), mode=mode)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    trace = bsnsim.run(config, policy, model)
    csv = trace.to_csv()
    if args.out:
        _write(args.out, csv)
        _write_manifest(
            "simulate",
            [args.model, args.policy, args.scenario],
            [args.out],
            seed=config.seed,
        )
        print(args.out)
    else:
        sys.stdout.write(csv)
    return 0


# -- report ---------------------------------------------------------------------


def _setpoints(policy: runtime.Policy) -> Dict[str, float]:
    out = policy.reported([prop.setpoint for prop in policy.properties])
    for needed in ("reliability", "cost"):
        if needed not in out:
            raise PolicyError(f"policy declares no {needed} property")
    return out


def _json_safe(value: object) -> object:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, Mapping):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _cmd_report(args: argparse.Namespace) -> int:
    from . import bundled

    policy_text = _read(args.policy) if args.policy else bundled.data_text("policy.json")
    model = _load_model(args.model) if args.model \
        else parse_model(bundled.data_text("bsn.json"))
    policy = runtime.load_policy(policy_text, model)
    tamed = bsnsim.TimeSeries.from_csv(_read(args.tamed))
    untamed = bsnsim.TimeSeries.from_csv(_read(args.untamed))
    result = bsnsim.metrics(tamed, untamed, _setpoints(policy))
    print(json.dumps(_json_safe(result), indent=2))
    return 0


# -- argument parsing -------------------------------------------------------------


def _checked(convert: Callable[[str], object], ok: Callable[[object], bool],
             requirement: str) -> Callable[[str], object]:
    """An argparse ``type`` that accepts only converted values passing ``ok``."""
    def parse(text: str) -> object:
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goalc",
        description="Goal-model compiler, verifier, and self-adaptation loop.",
    )
    parser.add_argument("--version", action="version", version=f"goalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser("compile", help="compile a model to formula JSON")
    compile_p.add_argument("model", help="goal model JSON file")
    compile_p.add_argument("--goal", help="compile only this subtree")
    compile_p.add_argument("-o", "--out", help="output file (default stdout)")
    compile_p.set_defaults(func=_cmd_compile)

    emit_p = sub.add_parser("emit-prism", help="emit MDP model and query files")
    emit_p.add_argument("model", help="goal model JSON file")
    emit_p.add_argument("--goal", help="emit only this subtree")
    emit_p.add_argument("--out-dir", default=".", help="output directory")
    emit_p.set_defaults(func=_cmd_emit_prism)

    eval_p = sub.add_parser("eval", help="evaluate compiled formulas at a binding")
    eval_p.add_argument("formulas", help="formula JSON file from 'compile'")
    eval_p.add_argument("--goal", help="node to evaluate (default: the file's goal)")
    eval_p.add_argument("--bind", required=True, help="JSON file of parameter values")
    eval_p.set_defaults(func=_cmd_eval)

    verify_p = sub.add_parser("verify", help="compare formulas against the oracle")
    verify_p.add_argument("model", help="goal model JSON file")
    verify_p.add_argument("--goal", help="verify only this subtree")
    verify_p.add_argument("--trials", default=100, help="random bindings (at least 1)",
                          type=_checked(int, lambda v: v >= 1, "an integer >= 1"))
    verify_p.add_argument("--seed", type=int, default=0, help="master seed")
    verify_p.add_argument("--tolerance", default=1e-9,
                          help="largest accepted |formula - oracle| (finite, >= 0)",
                          type=_checked(float, lambda v: math.isfinite(v) and v >= 0,
                                        "a finite number >= 0"))
    verify_p.set_defaults(func=_cmd_verify)

    sim_p = sub.add_parser("simulate", help="run one closed-loop scenario")
    sim_p.add_argument("model", help="goal model JSON file")
    sim_p.add_argument("--policy", required=True, help="policy JSON file")
    sim_p.add_argument("--scenario", required=True, help="scenario JSON file")
    sim_p.add_argument("--mode", choices=["tamed", "untamed"],
                       help="override the scenario's controller mode")
    sim_p.add_argument("--seed", type=int, help="override the scenario's seed")
    sim_p.add_argument("--out", help="trace CSV file (default stdout)")
    sim_p.set_defaults(func=_cmd_simulate)

    report_p = sub.add_parser("report", help="taming metrics from a trace pair")
    report_p.add_argument("tamed", help="tamed trace CSV")
    report_p.add_argument("untamed", help="untamed trace CSV")
    report_p.add_argument("--policy", help="policy JSON (default: bundled)")
    report_p.add_argument("--model", help="model JSON (default: bundled)")
    report_p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DOMAIN_ERRORS as exc:
        _diag(f"error: {exc}")
        return 1
    except OSError as exc:
        _diag(f"io error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
