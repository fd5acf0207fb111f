import sys

import pytest

_criterion_lines: list[str] = []


@pytest.fixture
def record_criterion():
    """Collector for one-line acceptance verdicts shown after the run."""
    return _criterion_lines.append


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on int-to-str conversion, 4300
    digits, for one test; skipped where the interpreter has no such limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on int-to-str conversion")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    del exitstatus, config
    if not _criterion_lines:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in _criterion_lines:
        terminalreporter.write_line(line)
