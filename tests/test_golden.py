"""Canonical CLI output, frozen byte for byte.

Each case runs `genaft solve`, `genaft compare` or `genaft check` with
`--format json` on a worked file or a committed seeded input and compares
stdout with the stored golden file.  The axiom reports of the mutant
frameworks, on the vee poset or the claw, are frozen the same way, so
their exhaustive order and counterexamples cannot move.  A refactor must keep these bytes;
a deliberate output change rewrites them with `python tests/test_golden.py`.
"""

import contextlib
import io
import json
import pathlib

import pytest

from genaft import check_framework, report_to_json
from genaft.cli import main
from corpus import (
    NonTransitiveOrder,
    NoSideCondition,
    RejectingRecompose,
    SwappedRecompose,
    WrongLubL,
    WrongPairMeet,
    WrongTripleMeet,
    claw_poset,
    vee_poset,
)

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

CONFIGS = {
    "solve-interval-ultimate": ["solve", "--space", "interval", "--approximator", "ultimate"],
    "solve-interval-fitting": ["solve", "--space", "interval", "--approximator", "fitting"],
    "solve-flower-ultimate": ["solve", "--space", "flower", "--approximator", "ultimate"],
    "compare-fitting-ultimate": ["compare"],
    "compare-interval-flower": [
        "compare", "--space-a", "interval", "--approximator-a", "ultimate",
        "--space-b", "flower", "--approximator-b", "ultimate",
    ],
    "compare-flower-interval": [
        "compare", "--space-a", "flower", "--approximator-a", "ultimate",
        "--space-b", "interval", "--approximator-b", "ultimate",
    ],
    "compare-flower-flower": [
        "compare", "--space-a", "flower", "--approximator-a", "ultimate",
        "--space-b", "flower", "--approximator-b", "ultimate",
    ],
    "check": ["check"],
}

LP = ["solve-interval-ultimate", "solve-interval-fitting", "solve-flower-ultimate",
      "compare-fitting-ultimate", "compare-interval-flower"]
LATTICE = ["solve-interval-ultimate", "solve-flower-ultimate", "compare-interval-flower",
           "compare-flower-interval"]
CPO = ["solve-flower-ultimate", "compare-flower-flower"]
CHECK = ["check"]
SOLVE = ["solve-interval-ultimate", "solve-interval-fitting", "solve-flower-ultimate"]

INPUTS = {
    "vee_poset": (DATA / "vee_poset.json", CHECK),
    "vee_lattice": (DATA / "vee_lattice.json", CHECK),
    "even_loop": (DATA / "even_loop.json", LP + CHECK),
    "agent_theory": (DATA / "agent_theory.json", LATTICE + CHECK),
    "review_wadf": (DATA / "review_wadf.json", CPO + CHECK),
    "lp6": (GOLDEN / "inputs" / "lp6.json", LP + CHECK),
    "lp8": (GOLDEN / "inputs" / "lp8.json", LP),
    "lp10": (GOLDEN / "inputs" / "lp10.json", LP),
    "lp9": (GOLDEN / "inputs" / "lp9.json", SOLVE),
    "lp12": (GOLDEN / "inputs" / "lp12.json", SOLVE + CHECK),
    "lp16": (GOLDEN / "inputs" / "lp16.json", SOLVE),
    "lp_unsorted": (GOLDEN / "inputs" / "lp_unsorted.json", LP),
    "ael3": (GOLDEN / "inputs" / "ael3.json", LATTICE + CHECK),
    "wadf3": (GOLDEN / "inputs" / "wadf3.json", CPO + CHECK),
    "wadf4": (GOLDEN / "inputs" / "wadf4.json", ["solve-flower-ultimate"]),
    "ael4": (GOLDEN / "inputs" / "ael4.json", LATTICE),
    "poset14": (GOLDEN / "inputs" / "poset14.json", CHECK),
}

CASES = [(name, config) for name, (_, configs) in INPUTS.items() for config in configs]

MUTANTS = {
    "swapped_recompose": (SwappedRecompose, vee_poset),
    "no_side_condition": (NoSideCondition, vee_poset),
    "non_transitive_order": (NonTransitiveOrder, vee_poset),
    "wrong_pair_meet": (WrongPairMeet, vee_poset),
    "wrong_triple_meet": (WrongTripleMeet, claw_poset),
    "rejecting_recompose": (RejectingRecompose, claw_poset),
    "wrong_lub_l": (WrongLubL, vee_poset),
}


def _run(name: str, config: str) -> str:
    path, _ = INPUTS[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*CONFIGS[config], str(path), "--format", "json"])
    assert code == 0, err.getvalue()
    return out.getvalue()


def _golden(name: str, config: str) -> pathlib.Path:
    return GOLDEN / f"{name}.{config}.json"


def _mutant_report(name: str) -> str:
    cls, poset = MUTANTS[name]
    report = check_framework(cls(poset(), enumerable=True))
    return json.dumps(report_to_json(report), sort_keys=True, indent=2) + "\n"


def _mutant_golden(name: str) -> pathlib.Path:
    return GOLDEN / f"mutant.{name}.json"


@pytest.mark.parametrize("name,config", CASES)
def test_cli_output_matches_golden(name, config):
    assert _run(name, config) == _golden(name, config).read_text()


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_report_matches_golden(name):
    assert _mutant_report(name) == _mutant_golden(name).read_text()


if __name__ == "__main__":
    for name, config in CASES:
        _golden(name, config).write_text(_run(name, config))
    for name in MUTANTS:
        _mutant_golden(name).write_text(_mutant_report(name))
