"""Hold every documented size to its exit code, time budget and peak-RSS bound:
`python tests/budgets.py` runs each row in a fresh process, prints one line per
row and exits 1 naming every row that failed."""

import json
import os
import pathlib
import signal
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUNS = ("solve --space flower", "solve --space interval",
        "solve --space interval --semantics stable", "solve --space flower --semantics wf",
        "compare --space-a interval --approximator-a ultimate --space-b flower --approximator-b ultimate",
        "compare --space-a flower --approximator-a ultimate --space-b interval --approximator-b ultimate")

# argv after `genaft` ({gen} is the directory of the generated inputs), expected
# exit code, seconds (interpreter start-up included) and peak-RSS bound in MB.
BUDGETS = [
    ("check tests/data/agent_theory.json", 0, 3, 64),
    ("check tests/data/cyclic.json", 2, 60, 64),
    ("check tests/data/even_loop.json", 0, 60, 64),
    ("check tests/data/review_wadf.json", 0, 3, 64),
    ("check tests/data/vee_lattice.json", 0, 60, 64),
    ("check tests/data/vee_poset.json", 0, 60, 64),
    ("check tests/data/golden/inputs/lp9.json", 0, 5, None),
    ("check tests/data/golden/inputs/wadf4.json", 0, 5, None),
    ("check tests/data/golden/inputs/lp12.json", 0, 10, None),
    # past check's 4,096-element cap, and a 7,776-element product past MAX_ELEMENTS
    ("check tests/data/golden/inputs/ael4.json", 2, 5, None),
    ("check tests/data/golden/inputs/lp16.json", 2, 5, None),
    ("solve {gen}/wadf5.json --space flower", 2, 5, None),
    ("check {gen}/claw.json", 0, 60, 64),
    ("check {gen}/grid.json", 0, 60, 64),
    ("check {gen}/chain.json", 0, 60, 64),
    *((f"{run} tests/data/golden/inputs/{stem}.json", 0, 5, 200)
      for stem in ("ael4", "lp16") for run in RUNS),
]


def generate(gen: pathlib.Path) -> None:
    """Bottom below 4,095 atoms, a 16×16×16 grid, a 4,096-chain, and a 5-argument wADF."""
    atoms, chain = [f"a{i}" for i in range(4095)], [f"c{i}" for i in range(4096)]
    cells = [(x, y, z) for x in range(16) for y in range(16) for z in range(16)]
    name = "{}-{}-{}".format
    steps = [[name(x, y, z), name(*d)] for x, y, z in cells
             for d in ((x + 1, y, z), (x, y + 1, z), (x, y, z + 1)) if max(d) < 16]
    values = json.loads((ROOT / "tests/data/golden/inputs/wadf4.json").read_text())["values"]
    for stem, data in (
        ("claw", {"elements": ["bot", *atoms], "hasse": [["bot", a] for a in atoms]}),
        ("grid", {"elements": [name(*c) for c in cells], "hasse": steps}),
        ("chain", {"elements": chain, "hasse": [list(pair) for pair in zip(chain, chain[1:])]}),
        ("wadf5", {"arguments": atoms[:5], "values": values,
                   "acceptance": {a: ["parent", a] for a in atoms[:5]}}),
    ):
        (gen / f"{stem}.json").write_text(json.dumps(data))


def run(argv: list[str], seconds: float) -> tuple[int, float, float]:
    """Exit code (-SIGALRM past `seconds`), wall seconds and peak RSS in MB of `genaft argv`."""
    start = time.monotonic()
    # fork, not posix_spawn or subprocess: those start the child with vfork,
    # and its exec then charges the parent's peak RSS to the child.
    pid = os.fork()
    if pid == 0:
        try:
            signal.setitimer(signal.ITIMER_REAL, seconds)  # survives exec; its SIGALRM kills
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execve(sys.executable, [sys.executable, "-m", "genaft.cli", *argv],
                      {**os.environ, "PYTHONPATH": str(ROOT / "src")})
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)  # ru_maxrss counts KiB on Linux
    return os.waitstatus_to_exitcode(status), time.monotonic() - start, usage.ru_maxrss / 1024


def main() -> int:
    os.chdir(ROOT)
    failed = []
    with tempfile.TemporaryDirectory() as gen:
        generate(pathlib.Path(gen))
        for row, expected, seconds, rss_mb in BUDGETS:
            code, took, peak_mb = run(row.format(gen=gen).split(), seconds)
            ok = code == expected and took <= seconds and (rss_mb is None or peak_mb <= rss_mb)
            failed += [] if ok else [row]
            print(f"{'ok  ' if ok else 'FAIL'} {row}: exit {code} (expected {expected}), "
                  f"{took:.2f} s of {seconds}, peak RSS {peak_mb:.0f} MB (bound {rss_mb})", flush=True)
    print(f"{len(failed)} of {len(BUDGETS)} rows failed", *failed, sep="\n  ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
