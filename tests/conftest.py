from __future__ import annotations

import os

import pytest
from hypothesis import settings

from summit import PromptRegistry

_ACCEPTANCE_KEY = pytest.StashKey()

# CI runs the property tests harder; a property test that pins its own
# max_examples keeps that count under either profile.
settings.register_profile("ci", max_examples=1000)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def registry() -> PromptRegistry:
    return PromptRegistry.load()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    results = item.config.stash.setdefault(_ACCEPTANCE_KEY, {})
    if report.when == "call" or (report.when == "setup" and report.skipped):
        results[marker.kwargs.get("id", item.nodeid)] = (
            marker.kwargs.get("title", ""),
            report.outcome,
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = config.stash.get(_ACCEPTANCE_KEY, None)
    if not results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for criterion_id in sorted(results):
        title, outcome = results[criterion_id]
        terminalreporter.write_line(f"  {criterion_id} {title}: {outcome.upper()}")
