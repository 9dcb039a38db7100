"""The benchmark's traced run wraps genaft's layer entry points by name;
a refactor that drops or renames one must fail here, not pass silently
with a layer missing from the trace. The budget table in tests/budgets.py
is the one statement of every documented size's budget; the README's
`check` table, CI and the worked files must not drift from it."""

import dataclasses
import importlib
import importlib.util
import itertools
import pathlib
import re

from genaft.engine import Approximator
from genaft.flowers import FlowerFramework
from budgets import BUDGETS

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _entry_points() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_traced_entry_points_resolve():
    missing = []
    for module_name, entries in _entry_points().items():
        module = importlib.import_module(module_name)
        for entry in entries:
            target = module
            for part in entry.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{module_name}.{entry}")
    assert missing == []


def test_traced_run_attributes_exist():
    assert "mapping" in {f.name for f in dataclasses.fields(Approximator)}
    assert callable(FlowerFramework.aub_mask)


def test_the_budget_table_holds_the_readme_ci_and_every_worked_file():
    rows = {row: seconds for row, _, seconds, _ in BUDGETS}
    checked = {pathlib.PurePath(row.split()[1]).name: seconds
               for row, seconds in rows.items() if row.startswith("check ")}
    readme = (ROOT / "README.md").read_text().splitlines()
    table = readme[readme.index("| input | elements | measured | budget |") + 2:]
    cells = {re.search(r"`([^`]*\.json)`", line).group(1).split("/")[-1]: line.split("|")[-2].strip()
             for line in itertools.takewhile(lambda line: line.startswith("|"), table)}
    assert len(cells) == 10
    assert cells == {name: f"{checked.get(name)} s" for name in cells}
    worked = {f"check {p.relative_to(ROOT).as_posix()}" for p in (ROOT / "tests" / "data").glob("*.json")}
    assert worked - rows.keys() == set()
    assert "run: python tests/budgets.py" in (ROOT / ".github" / "workflows" / "tests.yml").read_text()
