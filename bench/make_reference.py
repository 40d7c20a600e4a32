"""Regenerate the reference data the benchmark checks outputs against.

    python3 bench/make_reference.py sweep          # formula/PRISM digests, all cases
    python3 bench/make_reference.py loop SEED ...  # pass-0 closed-loop traces at SEEDs

Run from the repository root, at the commit whose behaviour is the
reference.  The sweep digests include the cases that exceed the benchmark's
per-case budget, so this takes several minutes and a few GB of memory.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import sweep  # noqa: E402
import workloads  # noqa: E402
from goalc import bundled  # noqa: E402

REFERENCE = os.path.join(HERE, "reference")


def make_sweep() -> None:
    out = {}
    bsn = bundled.data_text("bsn.json")
    for case in sweep.CASES:
        _, _, rendered, prism = sweep.compile_case(sweep.case_text(case, bsn))
        out[case] = sweep.digests(rendered, prism)
        print(case, out[case], flush=True)
    with open(os.path.join(REFERENCE, "sweep.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def make_loop(seed: int) -> None:
    kit = workloads.LoopKit.load(seed)
    traces = {f"{name}:{mode}": workloads.trace_columns(kit.run_one(name, mode, 0))
              for name, mode in kit.runs}
    path = os.path.join(REFERENCE, f"loop_seed{seed}.json.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(traces, fh, sort_keys=True)


if __name__ == "__main__":
    os.makedirs(REFERENCE, exist_ok=True)
    if sys.argv[1:2] == ["sweep"]:
        make_sweep()
    elif sys.argv[1:2] == ["loop"]:
        for raw in sys.argv[2:]:
            make_loop(int(raw))
    else:
        sys.exit(__doc__)
