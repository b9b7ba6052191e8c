"""The demo scripts run to the end and print their sections."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "argv, headers",
    [
        (
            ["tour.py"],
            [
                "Outcomes under misere play (the player who cannot move wins)",
                "The star pair collapses to zero, the *2 pair does not",
                "A reduction trace: {0,*,*2|0} simplifies in one rewrite",
                "A canonical form that is not invertible: {0|*2}",
                "Non-invertibility without *2 anywhere in the position",
                "Order relations are four-way",
            ],
        ),
        (
            ["census.py", "200"],
            [
                "all dicots born by day 2",
                "fixed-seed sample of 200 dicots of birthday <= 3",
            ],
        ),
    ],
)
def test_demo_runs(monkeypatch, capsys, argv, headers):
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(DEMOS / argv[0]), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    for header in headers:
        assert header in lines
