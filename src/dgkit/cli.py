"""Command-line interface: scenario-driven commands and the paper suite.

Exit codes: 0 all pass, 1 some verdict failed, 2 input or validation error.
Reports are deterministic for a fixed scenario and version.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

import click

from . import __version__
from .bimodules import coend_of, compose_bimodules, dual_of, end_of
from .changeofrings import coextension_adjunction_check, extend_scalars_cat
from .complexes import cone_complex, degree_cap, truncate_ge, truncate_le
from .deform import check_hlc, deform_category, factorize
from .derived import DegreeWindow, derived_hom, derived_tensor, tstruct_truncate
from .errors import DgkitError, ScenarioError
from .scenario import Scenario, load_scenario
from .verdict import passes, render, unchecked
from .verify import run_paper_suite


def _window_from(scn: Scenario, entry: Dict, override: Optional[str]) -> DegreeWindow:
    if override:
        try:
            lo, hi = (int(part) for part in override.split(":"))
        except ValueError:
            raise ScenarioError(f"expected lo:hi integers, got {override!r}", "--window") from None
        return DegreeWindow(lo, hi)
    wname = entry.get("window")
    if wname:
        return scn.resolve("windows", wname, "commands")
    return DegreeWindow(-4, 0)


def run(command: str, scn: Scenario, entry: Dict) -> Dict:
    """One scenario command entry's result, rendered."""
    return render(_result(command, scn, entry, None))


def _result(command: str, scn: Scenario, entry: Dict, window_override: Optional[str]) -> Dict:
    """Dispatch one scenario command entry to its owning module; its report
    stays unrendered."""
    out: Dict = {"command": command}
    if command == "cohomology":
        cx = scn.resolve("complexes", entry.get("complex"), "commands")
        out["dims"] = {str(d): v for d, v in cx.cohomology().as_dict().items()}
        out["passed"] = True
    elif command == "truncate":
        cx = scn.resolve("complexes", entry.get("complex"), "commands")
        try:
            n = int(entry.get("n", 0))
        except (TypeError, ValueError):
            raise ScenarioError(f"truncation degree must be an integer, got {entry.get('n')!r}",
                                "commands") from None
        if entry.get("kind", "le") == "le":
            t, comparison = truncate_le(cx, n)
        else:
            t, comparison = truncate_ge(cx, n)
        out["dims"] = {str(d): v for d, v in t.cohomology().as_dict().items()}
        out["passed"] = True
    elif command == "cone":
        f = scn.resolve("maps", entry.get("map"), "commands")
        c = cone_complex(f)
        out["dims"] = {str(d): v for d, v in c.cohomology().as_dict().items()}
        out["passed"] = True
    elif command in ("end", "coend"):
        t = scn.resolve("bimodules", entry.get("bimodule"), "commands")
        res = end_of(t) if command == "end" else coend_of(t)
        out["dims"] = {str(d): res.complex.dim(d) for d in res.complex.degrees()}
        out["passed"] = True
    elif command == "compose":
        f = scn.resolve("bimodules", entry.get("first"), "commands")
        g = scn.resolve("bimodules", entry.get("second"), "commands")
        comp = compose_bimodules(f, g)
        out["components"] = {f"{a},{b}": {str(d): comp.at(a, b).dim(d)
                                          for d in comp.at(a, b).degrees()}
                             for a in comp.acat.objects for b in comp.bcat.objects}
        out["passed"] = True
    elif command == "dual":
        f = scn.resolve("bimodules", entry.get("bimodule"), "commands")
        d = dual_of(f)
        out["components"] = {f"{a},{b}": {str(k): v for k, v in
                                          d.at(a, b).cohomology().as_dict().items()}
                             for a in d.acat.objects for b in d.bcat.objects}
        out["passed"] = True
    elif command == "derived-tensor":
        m = scn.resolve("modules", entry.get("left"), "commands")
        n = scn.resolve("modules", entry.get("right"), "commands")
        w = _window_from(scn, entry, window_override)
        rep = derived_tensor(m, n, w)
        out["dims"] = rep.as_dict()
        out["window"] = w.as_dict()
        out["passed"] = True
    elif command == "derived-hom":
        m = scn.resolve("modules", entry.get("source"), "commands")
        n = scn.resolve("modules", entry.get("target"), "commands")
        w = _window_from(scn, entry, window_override)
        rep = derived_hom(m, n, w)
        out["dims"] = rep.as_dict()
        out["window"] = w.as_dict()
        out["passed"] = True
    elif command == "tstruct":
        m = scn.resolve("modules", entry.get("module"), "commands")
        rep = tstruct_truncate(m)
        out["triangle_distinguished"] = rep.triangle_is_distinguished
        out["aisle_le_dims"] = {str(a): {str(d): v for d, v in
                                         rep.tau_le.at(a).cohomology().as_dict().items()}
                                for a in m.cat.objects}
        out["aisle_ge_dims"] = {str(a): {str(d): v for d, v in
                                         rep.tau_ge.at(a).cohomology().as_dict().items()}
                                for a in m.cat.objects}
        out["passed"] = rep.triangle_is_distinguished
    elif command == "coextend-check":
        acat = scn.resolve("categories", entry.get("acat"), "commands")
        bcat = scn.resolve("categories", entry.get("bcat"), "commands")
        g = scn.resolve("bimodules", entry.get("bimodule"), "commands")
        out["report"] = coextension_adjunction_check(acat, bcat, g)
    elif command == "extend":
        cat = scn.resolve("categories", entry.get("category"), "commands")
        theta = scn.resolve("morphisms", entry.get("morphism"), "commands")
        ext = extend_scalars_cat(cat, theta)
        out["hom_dims"] = {f"{a},{b}": {str(d): ext.category.hom(a, b).dim(d)
                                        for d in ext.category.hom(a, b).degrees()}
                           for a in cat.objects for b in cat.objects}
        out["passed"] = True
    elif command == "factorize":
        theta = scn.resolve("morphisms", entry.get("morphism"), "commands")
        out["report"] = factorize(theta)
    elif command == "deform":
        cat = scn.resolve("categories", entry.get("category"), "commands")
        theta = scn.resolve("morphisms", entry.get("morphism"), "commands")
        _, out["report"] = deform_category(cat, theta)
    elif command == "check-hlc":
        cat = scn.resolve("categories", entry.get("category"), "commands")
        out["report"] = check_hlc(cat)
    else:
        raise ScenarioError(f"unknown command {command!r}", "commands")
    if "report" in out:
        out["passed"] = passes(out["report"])
    return out


COMMANDS = [
    "cohomology", "truncate", "cone", "end", "coend", "compose", "dual",
    "derived-tensor", "derived-hom", "tstruct", "coextend-check", "extend",
    "factorize", "deform", "check-hlc",
]


def _emit(report: Dict, fmt: str, out_path: Optional[str], lines: List[str], last: str):
    """Print or write a rendered report, as JSON or as ``lines``, one line per
    unchecked verdict and ``last``; exit 0 when it passed, 1 otherwise."""
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = "\n".join(lines + [f"  [unchecked] {u['path']}: {u['reason']}" for u in report["unchecked"]] + [last])
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)
    sys.exit(0 if report["passed"] else 1)


def _run_scenario_command(command: str, scenario: str, window: Optional[str],
                          field: Optional[str], out: Optional[str], fmt: str):
    import shlex

    try:
        scn = load_scenario(scenario, field)
        entries = [e for e in scn.commands if e.get("run") == command]
        if not entries:
            raise ScenarioError(f"scenario declares no {command!r} command", "commands")
        results = [_result(command, scn, e, window) for e in entries]
    except DgkitError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    # replay with the overrides the run used; ``--window=`` lets a negative window parse
    replay = ["dgkit", command, "--scenario", scenario]
    if window:
        replay.append(f"--window={window}")
    if field:
        replay += ["--field", field]
    report = {
        "version": __version__,
        "scenario": scenario,
        "command": command,
        "results": results,
        "passed": all(r["passed"] for r in results),
        "replay": shlex.join(replay),
    }
    report = render({**report, "unchecked": unchecked(report)})
    lines = [f"dgkit {__version__} :: {command} :: scenario {scenario}"]
    for res in report["results"]:
        keys = {k: v for k, v in res.items() if k not in ("command", "passed")}
        lines.append(f"  [{'pass' if res['passed'] else 'FAIL'}] {command} {json.dumps(keys, sort_keys=True)}")
    _emit(report, fmt, out, lines, "all passed" if report["passed"] else f"FAILED; replay: {report['replay']}")


@click.group()
@click.version_option(__version__)
def main():
    """Exact-arithmetic toolkit for small dg-categories."""
    try:
        degree_cap()
    except ScenarioError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _register(command: str):
    @main.command(name=command)
    @click.option("--scenario", required=True, type=click.Path(), help="scenario JSON file")
    @click.option("--window", default=None, help="override window as lo:hi")
    @click.option("--field", default=None, help="override field: Q or Fp:<p>")
    @click.option("--out", default=None, type=click.Path(), help="write the report to a file")
    @click.option("--format", "fmt", default="text", type=click.Choice(["json", "text"]))
    def _cmd(scenario, window, field, out, fmt, command=command):
        _run_scenario_command(command, scenario, window, field, out, fmt)

    _cmd.__name__ = f"cmd_{command.replace('-', '_')}"
    return _cmd


for _name in COMMANDS:
    _register(_name)


@main.command()
@click.option("--suite", default="paper", type=click.Choice(["paper"]))
@click.option("--filter", "name_filter", default=None, help="substring filter on check names")
@click.option("--out", default=None, type=click.Path())
@click.option("--format", "fmt", default="text", type=click.Choice(["json", "text"]))
def verify(suite, name_filter, out, fmt):
    """Run the paper verification suite (one pass/fail line per criterion)."""
    results = run_paper_suite(name_filter)
    passed = all(r.passed for r in results)
    report = {
        "version": __version__,
        "suite": suite,
        "results": [r.as_dict() for r in results],
        "passed": passed,
        "unchecked": unchecked({"results": results}),
    }
    lines = [f"dgkit {__version__} :: verify --suite {suite}"]
    lines += [f"  [{'pass' if r.passed else 'FAIL'}] {r.name}" for r in results]
    _emit(report, fmt, out, lines, "all criteria passed" if passed else "FAILURES; replay: dgkit verify --suite paper")


if __name__ == "__main__":
    main()
