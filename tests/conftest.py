import os
import sys

# make tests/support.py importable regardless of how pytest was invoked
sys.path.insert(0, os.path.dirname(__file__))


def pytest_terminal_summary(terminalreporter, config):
    """Under ``-v``, list the ``slack`` property each test recorded (the
    certificate harness of ``test_certificates.py`` records one per
    operation, with the operation's read map ``(a, b)``)."""
    if config.option.verbose < 1:
        return
    rows = [(report.nodeid, value)
            for reports in terminalreporter.stats.values()
            for report in reports if getattr(report, "when", "") == "call"
            for key, value in report.user_properties if key == "slack"]
    if rows:
        terminalreporter.section("certificate slack")
        for nodeid, value in rows:
            terminalreporter.write_line(f"{value:<52}  {nodeid}")
