"""Canonical CLI output, frozen byte for byte.

Each case runs `genaft solve` or `genaft compare` with `--format json`
on a worked file or a committed seeded input and compares stdout with
the stored golden file.  A refactor must keep these bytes; a deliberate
output change rewrites them with `python tests/test_golden.py`.
"""

import contextlib
import io
import pathlib

import pytest

from genaft.cli import main

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
    "compare-flower-flower": [
        "compare", "--space-a", "flower", "--approximator-a", "ultimate",
        "--space-b", "flower", "--approximator-b", "ultimate",
    ],
}

LP = ["solve-interval-ultimate", "solve-interval-fitting", "solve-flower-ultimate",
      "compare-fitting-ultimate", "compare-interval-flower"]
LATTICE = ["solve-interval-ultimate", "solve-flower-ultimate", "compare-interval-flower"]
CPO = ["solve-flower-ultimate", "compare-flower-flower"]

INPUTS = {
    "even_loop": (DATA / "even_loop.json", LP),
    "agent_theory": (DATA / "agent_theory.json", LATTICE),
    "review_wadf": (DATA / "review_wadf.json", CPO),
    "lp6": (GOLDEN / "inputs" / "lp6.json", LP),
    "lp8": (GOLDEN / "inputs" / "lp8.json", LP),
    "lp10": (GOLDEN / "inputs" / "lp10.json", LP),
    "lp_unsorted": (GOLDEN / "inputs" / "lp_unsorted.json", LP),
    "ael3": (GOLDEN / "inputs" / "ael3.json", LATTICE),
    "wadf3": (GOLDEN / "inputs" / "wadf3.json", CPO),
}

CASES = [(name, config) for name, (_, configs) in INPUTS.items() for config in configs]


def _run(name: str, config: str) -> str:
    path, _ = INPUTS[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*CONFIGS[config], str(path), "--format", "json"])
    assert code == 0, err.getvalue()
    return out.getvalue()


def _golden(name: str, config: str) -> pathlib.Path:
    return GOLDEN / f"{name}.{config}.json"


@pytest.mark.parametrize("name,config", CASES)
def test_cli_output_matches_golden(name, config):
    assert _run(name, config) == _golden(name, config).read_text()


if __name__ == "__main__":
    for name, config in CASES:
        _golden(name, config).write_text(_run(name, config))
