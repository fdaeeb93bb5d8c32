"""Shared pytest wiring: acceptance verdict lines in the summary, an expm counter."""

import pytest
import scipy.linalg

ACCEPTANCE_VERDICTS = []


def record_verdict(line):
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def expm_calls(monkeypatch):
    """Shapes of the scipy.linalg.expm calls made during the test, in order."""
    calls = []
    expm = scipy.linalg.expm

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return expm(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    return calls
