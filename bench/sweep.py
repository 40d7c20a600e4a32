"""Generated goal models for the compile_sweep workload.

Two shapes, each with a closed form for its root reliability that the
benchmark computes on its own, independently of the compiler:

* ``or<n>``: a runtime-decision Or over ``n`` context-gated And-triples, so
  reliability = 1 - prod_i (1 - C_i * prod_j r_ij * f_ij);
* ``and<n>``: a plain And over ``n`` leaves, so reliability = prod r_i * f_i.

The model texts are fixed (their formulas are digested once, see
``reference/sweep.json``); only the parameter bindings come from the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Dict, List, Tuple

#: Sweep cases in the order a pass runs them.  ``bsn`` is the bundled model.
#: The two that exceed the budget at the seed commit run last, so that the
#: peak memory of the cases that finish is known before the first abort.
CASES = ("or4", "or6", "or8", "and50", "and100", "bsn", "or12", "and800")


def fan_out_text(n: int) -> str:
    """A ``dm`` Or over ``n`` context-gated And-triples, as model JSON."""
    branches = [f"T{i}" for i in range(1, n + 1)]
    nodes: List[Dict] = [{
        "id": "G", "label": "fan-out root", "kind": "Goal",
        "decomposition": "Or", "children": branches, "dm": branches,
    }]
    for i, branch in enumerate(branches, start=1):
        leaves = [f"{branch}.{j}" for j in (1, 2, 3)]
        nodes.append({
            "id": branch, "label": f"alternative {i}", "kind": "Task",
            "decomposition": "And", "children": leaves, "contexts": [f"K{i}"],
        })
        nodes.extend({"id": leaf, "label": leaf, "kind": "LeafTask"} for leaf in leaves)
    contexts = [{"id": f"K{i}", "description": f"alternative {i} usable"}
                for i in range(1, n + 1)]
    return json.dumps({"actor": f"or{n}", "root": "G", "contexts": contexts,
                       "nodes": nodes}, indent=1)


def chain_text(n: int) -> str:
    """A plain And over ``n`` leaves, as model JSON."""
    leaves = [f"L{i}" for i in range(1, n + 1)]
    nodes = [{"id": "G", "label": "chain root", "kind": "Goal",
              "decomposition": "And", "children": leaves}]
    nodes.extend({"id": leaf, "label": leaf, "kind": "LeafTask"} for leaf in leaves)
    return json.dumps({"actor": f"and{n}", "root": "G", "nodes": nodes}, indent=1)


def case_text(case: str, bsn_text: str) -> str:
    if case == "bsn":
        return bsn_text
    if case.startswith("or"):
        return fan_out_text(int(case[2:]))
    return chain_text(int(case[3:]))


def binding(case: str, seed: int):
    """Seeded leaf values, context truths and the closed-form root reliability.

    Returns ``({leaf: (r, f, w)}, {context: truth}, reliability)``.  Chain
    values sit near 1 so the product over 1,600 factors stays far from zero.
    The bundled model has no closed form here, so its reliability is ``None``.
    """
    rng = random.Random(f"compile_sweep:{seed}:{case}")
    leaves: Dict[str, Tuple[float, float, float]] = {}
    contexts: Dict[str, int] = {}

    def leaf(name: str, low: float) -> float:
        r, f = rng.uniform(low, 1.0), rng.uniform(low, 1.0)
        leaves[name] = (r, f, rng.uniform(0.0, 2.0))
        return r * f

    if case.startswith("or"):
        miss = 1.0
        for i in range(1, int(case[2:]) + 1):
            contexts[f"K{i}"] = 1 if rng.random() < 0.7 else 0
            branch = math.prod(leaf(f"T{i}.{j}", 0.3) for j in (1, 2, 3))
            miss *= 1.0 - contexts[f"K{i}"] * branch
        return leaves, contexts, 1.0 - miss
    if case.startswith("and"):
        return leaves, contexts, math.prod(leaf(f"L{i}", 0.995)
                                           for i in range(1, int(case[3:]) + 1))
    return leaves, contexts, None


def compile_case(text: str):
    """The timed unit of work: parse, compile, render every formula, emit PRISM.

    goalc is reached through module attributes at call time, so the tracing
    wrappers installed by ``tracer`` see these calls.
    """
    from goalc import cgm, compiler, prismgen, symexpr

    model = cgm.parse_model(text)
    forms = compiler.compile_model(model)
    rendered = {
        nid: (symexpr.render(f.reliability), symexpr.render(f.weight),
              symexpr.render(f.cost))
        for nid, f in forms.items()
    }
    prism = (prismgen.emit_model(model, model.root)
             + prismgen.emit_properties(model, model.root))
    return model, forms, rendered, prism


def digests(rendered, prism: str) -> Dict[str, str]:
    """sha256 of every node's reliability/weight/cost text and of the PRISM text."""
    h = hashlib.sha256()
    for nid in sorted(rendered):
        h.update("\t".join((nid,) + rendered[nid]).encode("utf-8") + b"\n")
    return {"formulas": h.hexdigest(),
            "prism": hashlib.sha256(prism.encode("utf-8")).hexdigest()}
