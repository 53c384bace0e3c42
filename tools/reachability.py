"""Which functions of dgkit its commands, checks and benchmark never execute.

Run from the repository root:

    python3 tools/reachability.py

Under ``sys.setprofile``, switched on before dgkit is imported, it runs every
command of every bundled scenario through the CLI (``dgkit <command>
--scenario <doc>``, over the document's field and over ``--field Fp:7``),
``dgkit verify --suite paper``, and each item of the benchmark's derived-ring
and scenario-deform workloads (``perfbench/workloads.py``) once at seed 5.  It
then prints each top-level function and method of ``src/dgkit`` that never ran
and is not on ``ALLOWLIST``, and each allowlisted one that did run, and exits
1 if it printed anything.  ``__repr__`` and ``__hash__`` are not checked.
"""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dgkit"
SEED = 5
WORKLOADS = ["derived-ring", "scenario-deform"]
SKIPPED = {"__repr__", "__hash__"}

# (file, qualified name): why a definition the runs above do not execute stays.
# The list may shrink; an entry that runs is stale and is reported.
ALLOWLIST: Dict[Tuple[str, str], str] = {
    ("complexes.py", "GradedSpace.label"): "names the space in a law-failure message",
    ("dgring.py", "DgRing.label"): "names the ring in a law-failure message",
    ("matrix.py", "Mat.scale"):
        "the idempotent search rescales a candidate only when its square is a multiple of it",
    ("instances.py", "random_nonpositive_category"):
        "the fallback after 50 draws of a generated category fail its laws",
    ("errors.py", "WindowCertificationError.__init__"): "raised when a resolution reaches its generator cap",
    ("fields.py", "Field.inv"): "the interface every field implements",
    ("fields.py", "Field.from_int"): "the interface every field implements",
    ("fields.py", "Field.parse"): "the interface every field implements",
    ("fields.py", "Field.render"): "the interface every field implements",
    ("fields.py", "RationalField.render"): "renders a scalar in a report; no bundled report prints one",
    ("fields.py", "PrimeField.render"): "renders a scalar in a report; no bundled report prints one",
    ("verdict.py", "Verdict.__bool__"): "the guard that raises when a verdict is tested for truth",
    ("changeofrings.py", "s_vs_r_module_comparison"):
        "the paper's S-linear vs R-linear comparison, which no command or check reaches; after ROADMAP "
        "item 3, item 10 decides whether a CLI entry, a paper check or this entry carries it",
    ("dgcat.py", "truncate_cat"):
        "the paper's truncation of a dg-category to degrees <= 0, which no command or check reaches; after "
        "ROADMAP item 3, item 10 decides whether a CLI entry, a paper check or this entry carries it",
    ("dgcat.py", "h0_as_degree0_category"): "builds the degree-0 part of truncate_cat",
    ("changeofrings.py", "heart_coextension_check"):
        "the paper's coextension on the heart, waiting on ROADMAP item 3 for a map-certified verdict",
    ("changeofrings.py", "truncate_bimodule_le0"): "the truncation heart_coextension_check builds on",
    ("complexes.py", "TensorLayout.map_from_entries"):
        "the elementwise reference the tests compare the block builders with; the benchmark's tracer "
        "wraps it by name",
    ("dgring.py", "ideal_power"): "the benchmark's tracer wraps it by name (dgring.ideal_power.self_s)",
}


def definitions(package: Path) -> Dict[Tuple[str, int, str], Tuple[str, str]]:
    """The top-level functions and the methods of top-level classes of each
    module of ``package``, keyed as their code objects are: (resolved file,
    first line, decorators included, name); the value is (file name,
    qualified name)."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                funcs = [(f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                funcs = [(node.name, node)]
            else:
                continue
            for qual, fn in funcs:
                if fn.name not in SKIPPED:
                    first = min([fn.lineno] + [dec.lineno for dec in fn.decorator_list])
                    found[(str(path.resolve()), first, fn.name)] = (path.name, qual)
    return found


def record(run: Callable[[], None]) -> Set[Tuple[str, int, str]]:
    """(file, first line, name) of every Python function that started while
    ``run()`` ran."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in codes}


def report(package: Path, ran: Set[Tuple[str, int, str]], allowlist: Dict[Tuple[str, str], str]) -> List[str]:
    """One line for each definition that never ran and is not allowlisted,
    and one for each allowlisted definition that ran."""
    defined = definitions(package)
    ran_names = {name for key, name in defined.items() if key in ran}
    lines = [f"never ran: {file} {qual}" for file, qual in sorted(set(defined.values()) - ran_names)
             if (file, qual) not in allowlist]
    lines += [f"allowlisted but ran: {file} {qual}" for file, qual in sorted(ran_names & allowlist.keys())]
    return lines


def run_commands_and_benchmark():
    """Every bundled scenario's commands through the CLI, the paper suite,
    and one pass of the benchmark workloads at seed 5."""
    from click.testing import CliRunner

    from dgkit import cli

    def invoke(args: Iterable[str]):
        # the CLI maps a verdict or input error to an exit code; any other exception propagates
        CliRunner().invoke(cli.main, list(args), catch_exceptions=False)

    for path in sorted((PACKAGE / "data" / "scenarios").glob("*.json")):
        commands = dict.fromkeys(entry["run"] for entry in json.loads(path.read_text())["commands"])
        for command in commands:
            invoke([command, "--scenario", str(path)])
            invoke([command, "--scenario", str(path), "--field", "Fp:7"])
    invoke(["verify", "--suite", "paper"])

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    dg = SimpleNamespace(**{m.name: importlib.import_module(f"dgkit.{m.name}")
                            for m in pkgutil.iter_modules([str(PACKAGE)])})
    for name in WORKLOADS:
        for item in workloads.BY_NAME[name](dg, SEED).items:
            try:
                item.call()
            except Exception as exc:
                if type(exc).__name__ != item.expect:
                    raise


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    lines = report(PACKAGE, record(run_commands_and_benchmark), ALLOWLIST)
    if lines:
        print("\n".join(lines))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
