"""Five-state lattice study: ten candidate programs ordered by relative
correctness against one enumerated specification.

States are the letters a..e, encoded as a single variable over 0..4.
"""

from __future__ import annotations

from ..relations import Relation, competence_domain, correctness_order, is_correct
from ..space import Interval, StateSpace
from . import load_fixture_json

__all__ = ["build", "run", "check"]  # the interface of a study (see `studies`)

LETTERS = "abcde"


def build() -> dict:
    """Returns {"space", "spec", "programs": {name: Relation}}."""
    doc = load_fixture_json("lattice.json")
    space = StateSpace((("v", Interval(0, len(doc["states"]) - 1)),))
    code = {letter: i for i, letter in enumerate(doc["states"])}

    def rel(pairs):
        return Relation(
            space,
            {
                (space.state({"v": code[s]}), space.state({"v": code[t]}))
                for s, t in pairs
            },
        )

    return {
        "space": space,
        "spec": rel(doc["spec"]),
        "programs": {name: rel(pairs) for name, pairs in doc["programs"].items()},
    }


def _letters(state_set) -> list:
    return sorted(LETTERS[s["v"]] for s in state_set.members)


def run() -> dict:
    built = build()
    spec = built["spec"]
    programs = built["programs"]
    names = sorted(programs)
    cds = {
        name: _letters(competence_domain(spec, programs[name]))
        for name in names
    }
    order = correctness_order([programs[n] for n in names], spec)
    groups = [sorted(names[i] for i in g) for g in order["groups"]]
    edges = sorted(
        [sorted(groups[i]), sorted(groups[j])] for i, j in order["edges"]
    )
    return {
        "competence_domains": cds,
        "spec_domain": _letters(spec.domain()),
        "correct": [n for n in names if is_correct(programs[n], spec)],
        "groups": sorted(groups),
        "hasse_edges": edges,
    }


def check(report: dict) -> list:
    expected = load_fixture_json("lattice_expected.json")
    failures = []
    for key in ("competence_domains", "spec_domain", "correct"):
        if report[key] != expected[key]:
            failures.append(f"{key}: expected {expected[key]}, got {report[key]}")
    if sorted(report["groups"]) != sorted(expected["groups"]):
        failures.append(f"groups: expected {expected['groups']}, got {report['groups']}")
    if sorted(report["hasse_edges"]) != sorted(expected["hasse_edges"]):
        failures.append(
            f"hasse_edges: expected {expected['hasse_edges']}, got {report['hasse_edges']}"
        )
    return failures
