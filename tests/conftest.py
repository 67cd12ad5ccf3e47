import contextlib
import io
import time
from types import SimpleNamespace

import pytest

from cellqec import cli


@pytest.fixture(scope="session")
def verify_paper_run():
    """One `search verify-paper` run, the slowest command, shared by
    every test that checks it: its exit code, stdout and seconds."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["search", "verify-paper"])
    return SimpleNamespace(code=code, stdout=out.getvalue(),
                           seconds=time.perf_counter() - t0)


def pytest_configure(config):
    config.acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
