"""The one Verdict type and its renderer."""

from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from dgkit.verdict import CERTIFIED, FAILED, UNCHECKED, Verdict, passes, render, unchecked


class Named:
    name = "theta"


@dataclass
class Inner:
    ok: Verdict
    open_question: Verdict


@dataclass
class Outer:
    steps: List[Named]
    inner: List[Inner]
    dims: Dict[int, int]
    label: str
    work: object = field(repr=False)


def outer(inner_ok: bool, work=None):
    return Outer([Named()], [Inner(Verdict.of(inner_ok, "checked"), Verdict(UNCHECKED, "not computed"))],
                 {-1: 2}, "x", work)


def test_render_states_each_verdict_and_skips_working_fields():
    hidden = Inner(Verdict(FAILED, "kept for the caller"), Verdict(FAILED, "kept for the caller"))
    report = outer(True, work=hidden)
    assert render(report) == {
        "steps": ["theta"],
        "inner": [{"ok": True, "open_question": "unchecked", "all_pass": True}],
        "dims": {"-1": 2},
        "label": "x",
        "all_pass": True,
    }
    # a failed verdict in a repr=False field is not part of the report
    assert passes(report)


def test_unchecked_never_fails_and_is_listed_with_its_reason():
    assert passes(outer(True))
    assert not passes(outer(False))
    assert render(outer(False))["all_pass"] is False
    assert unchecked({"results": [outer(False)]}) == [
        {"path": "/results/0/inner/0/open_question", "reason": "not computed"}]


def test_verdicts_have_no_truth_value():
    for status in (CERTIFIED, FAILED, UNCHECKED):
        with pytest.raises(TypeError):
            bool(Verdict(status, "r"))
    with pytest.raises(ValueError):
        Verdict("passed", "r")
