"""Output checks.  Each returns a list of failure messages; an empty
list means the check passed.  They work on plain cost dicts
(``{"power", "area", "ff", "cycles"}``) so they can be tested without
running the program."""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, Sequence

STATIC = ("power", "area", "ff")

# The campaign objectives, written out independently of repro.campaign.
OBJECTIVES = {
    "energy_delay": lambda costs: float(costs["cycles"]) * float(costs["power"]),
    "area_delay": lambda costs: float(costs["cycles"]) * float(costs["area"]),
}

Costs = Mapping[str, int]


def matches(
    label: str, produced: Iterable[tuple[Hashable, Costs]], reference: Mapping[Hashable, Costs]
) -> list[str]:
    """Every produced cost vector equals the reference for its key."""
    return [
        f"{label} {key}: got {dict(costs)}, expected {dict(reference[key])}"
        for key, costs in produced
        if dict(costs) != dict(reference[key])
    ]


def static_identical(label: str, rows: Iterable[tuple[Hashable, Costs]]) -> list[str]:
    """Rows sharing a key (program and hardware) that differ only in
    runtime data carry identical power, area and FF (the paper's
    static/dynamic split)."""
    first: dict[Hashable, dict] = {}
    failures = []
    for key, costs in rows:
        static = {metric: costs[metric] for metric in STATIC}
        expected = first.setdefault(key, static)
        if static != expected:
            failures.append(f"{label} {key}: static metrics {static} differ from {expected}")
    return failures


def cycles_positive(label: str, rows: Iterable[tuple[Hashable, Costs]]) -> list[str]:
    return [f"{label} {key}: cycles {costs['cycles']} <= 0" for key, costs in rows if costs["cycles"] <= 0]


def agree_across_passes(label: str, passes: Sequence[Sequence]) -> list[str]:
    """Every pass from the same starting state produced the same outputs."""
    return [
        f"{label}: pass {index} differs from pass 0"
        for index, outputs in enumerate(passes[1:], start=1)
        if list(outputs) != list(passes[0])
    ]


def cell_best(
    reported: Mapping[str, Optional[float]],
    records: Iterable[Mapping],
    objective_of: Mapping[str, str],
) -> list[str]:
    """Each cell's reported best objective equals the minimum of the
    objective formula over the cell's journaled costs."""
    best: dict[str, float] = {}
    for record in records:
        cell = record["cell"]
        value = OBJECTIVES[objective_of[cell]](record["actual"])
        best[cell] = min(value, best.get(cell, value))
    failures = [
        f"cell {cell}: reported best {value}, journal minimum {best.get(cell)}"
        for cell, value in reported.items()
        if value != best.get(cell)
    ]
    failures += [f"cell {cell}: journaled but not reported" for cell in best if cell not in reported]
    return failures
