"""tools/reachability.py: what it reports on a small package, and that its
allowlist names definitions of dgkit."""

import importlib
import sys

import reachability

SAMPLE = '''def called():
    return 1


def uncalled():
    return 2


class Kept:
    @staticmethod
    def run():
        return 3
'''


def test_reports_the_uncalled_definition_and_the_stale_entry(tmp_path, monkeypatch):
    package = tmp_path / "reachability_sample"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(SAMPLE)
    monkeypatch.syspath_prepend(str(tmp_path))

    def run():
        mod = importlib.import_module("reachability_sample.mod")
        mod.called()
        mod.Kept.run()

    try:
        ran = reachability.record(run)
    finally:
        for name in ("reachability_sample.mod", "reachability_sample"):
            sys.modules.pop(name, None)
    allowlist = {("mod.py", "Kept.run"): "kept for a reason"}
    assert reachability.report(package, ran, allowlist) == [
        "never ran: mod.py uncalled", "allowlisted but ran: mod.py Kept.run"]


def test_every_allowlist_entry_names_a_definition():
    defined = set(reachability.definitions(reachability.PACKAGE).values())
    assert set(reachability.ALLOWLIST) - defined == set()
