"""Golden outputs: every bundled scenario command under Q, F_7 and F_3, as
``--format json``, must print the committed stdout byte for byte and exit
with the committed code.

Regenerate the committed file, after checking that a change of output is
intended, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from dgkit.cli import main

SCENARIOS = Path(str(resources.files("dgkit.data").joinpath("scenarios")))
GOLDEN = Path(__file__).resolve().parent / "golden" / "bundled_scenarios.json"
FIELDS = ("Q", "Fp:7", "Fp:3")


def invocations():
    """(scenario file, command, field) for each distinct command a bundled
    scenario declares, in file and declaration order."""
    for path in sorted(SCENARIOS.glob("*.json")):
        commands = dict.fromkeys(entry["run"] for entry in json.loads(path.read_text())["commands"])
        for command in commands:
            for field in FIELDS:
                yield path.name, command, field


def invoke(name, command, field):
    """Exit code and stdout of one invocation, run from the scenario directory
    so that the reported scenario path is the bare file name."""
    cwd = os.getcwd()
    os.chdir(SCENARIOS)
    try:
        result = CliRunner().invoke(main, [command, "--scenario", name, "--field", field, "--format", "json"])
    finally:
        os.chdir(cwd)
    return {"exit_code": result.exit_code, "stdout": result.stdout}


def key(name, command, field):
    return f"{name} {command} {field}"


def test_golden_file_lists_every_invocation():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(key(*inv) for inv in invocations())


@pytest.mark.parametrize("name, command, field", list(invocations()))
def test_bundled_invocation_matches_golden(name, command, field):
    expected = json.loads(GOLDEN.read_text())[key(name, command, field)]
    assert invoke(name, command, field) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({key(*inv): invoke(*inv) for inv in invocations()}, indent=1, sort_keys=True) + "\n")
