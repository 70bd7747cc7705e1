from hypothesis import HealthCheck, settings

# One profile for every property test: enough examples to reach the error
# paths, no per-example deadline (some cases build files), and derandomized
# so a tier-1 run is reproducible.
settings.register_profile(
    "fuzz",
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("fuzz")

CRITERION_PREFIX = "test_acceptance.py::test_criterion"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if CRITERION_PREFIX not in nodeid or getattr(report, "when", "call") != "call":
                continue
            results[nodeid.split("::")[-1]] = outcome == "passed"
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(results):
        verdict = "PASS" if results[name] else "FAIL"
        terminalreporter.write_line(f"{name}: {verdict}")
