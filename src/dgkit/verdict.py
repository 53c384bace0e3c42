"""One verdict for every report: certified, failed or unchecked, with its
reason and an optional witness, and one renderer for the reports holding them.

A report is a dataclass whose fields are verdicts, nested reports, lists and
dicts of those, or plain data.  A field declared with ``repr=False`` holds a
working object for the caller and is not part of the report.  A report passes
when no verdict in it failed: an unchecked verdict never fails, and
``unchecked`` names each one with its reason.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

CERTIFIED, FAILED, UNCHECKED = "certified", "failed", "unchecked"
RENDERED = {CERTIFIED: True, FAILED: False, UNCHECKED: UNCHECKED}


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str
    witness: object = None

    def __post_init__(self):
        if self.status not in RENDERED:
            raise ValueError(f"unknown verdict status {self.status!r}")

    def __bool__(self):
        # an unchecked verdict is neither a pass nor a fail
        raise TypeError("a Verdict has no truth value; read its status or use passes()")

    @staticmethod
    def of(ok: bool, reason: str) -> "Verdict":
        """Certified when ``ok`` holds, failed otherwise; ``reason`` says what
        was checked."""
        return Verdict(CERTIFIED if ok else FAILED, reason)


def _parts(report):
    """The (key, value) pairs ``render`` lays out under a report, dict or list."""
    if isinstance(report, Verdict):
        return ()
    if is_dataclass(report):
        return [(f.name, getattr(report, f.name)) for f in fields(report) if f.repr]
    if isinstance(report, dict):
        return report.items()
    if isinstance(report, (list, tuple)):
        return enumerate(report)
    return ()


def _verdicts(report, path=""):
    """(JSON pointer into ``render(report)``, verdict) for every verdict in it."""
    if isinstance(report, Verdict):
        yield path, report
    for key, value in _parts(report):
        yield from _verdicts(value, f"{path}/{key}")


def passes(report) -> bool:
    """No verdict anywhere in the report failed."""
    return all(v.status != FAILED for _, v in _verdicts(report))


def unchecked(report):
    """Each unchecked verdict of the report as {path, reason}."""
    return [{"path": path, "reason": v.reason} for path, v in _verdicts(report) if v.status == UNCHECKED]


def render(report):
    """The report as JSON data: a verdict as true, false or "unchecked", a
    report as its fields plus ``all_pass``, any other object by its name."""
    if isinstance(report, Verdict):
        return RENDERED[report.status]
    if isinstance(report, (list, tuple)):
        return [render(v) for v in report]
    if isinstance(report, dict) or is_dataclass(report):
        out = {str(key): render(value) for key, value in _parts(report)}
        if is_dataclass(report):
            out["all_pass"] = passes(report)
        return out
    return report if report is None or isinstance(report, (bool, int, str)) else report.name
