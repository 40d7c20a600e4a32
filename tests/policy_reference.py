"""A policy's meaning, interpreted: the reference its generated code is checked against.

:class:`goalc.runtime.Policy` defines satisfaction and score once, as the
Python source of :attr:`Policy.rank`, which the planner's search and
:meth:`Policy.satisfied` both run.  These functions walk the same
definitions directly, so a test comparing the two compares independent code.
"""

from typing import Sequence


def combination_satisfied(comb: object, flags: Sequence[bool]) -> bool:
    """Evaluate a policy's propositional combination over in-margin flags."""
    if isinstance(comb, str):
        return all(flags) if comb.lower() == "and" else any(flags)
    if isinstance(comb, int) and not isinstance(comb, bool):
        return flags[comb]
    op, args = comb[0], comb[1:]
    results = (combination_satisfied(sub, flags) for sub in args)
    return all(results) if op == "and" else any(results)


def satisfied(policy, values: Sequence[float]) -> bool:
    """Whether the combination holds over the properties' in-margin flags."""
    return combination_satisfied(
        policy.combination, [p.in_margin(v) for p, v in zip(policy.properties, values)]
    )


def objective(policy, values: Sequence[float]) -> float:
    """The sum of setpoint-normalized absolute errors; lower is better."""
    total = 0.0
    for prop, value in zip(policy.properties, values):
        scale = abs(prop.setpoint) or 1.0
        total += abs(value - prop.setpoint) / scale
    return total
