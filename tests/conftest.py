import os

from hypothesis import HealthCheck, settings

from blas_kernel import blas_kernel
from thermofuse.cli import _THREAD_VARS

# `pytester` runs an inner pytest session under the project's own settings.
pytest_plugins = ["pytester"]

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


def pytest_report_header(config):
    """The BLAS kernel and thread variables of the run: the pinned digests
    hold only on the kernel they were recorded under."""
    threads = " ".join(f"{var}={os.environ.get(var, '')}" for var in _THREAD_VARS)
    return [f"BLAS kernel: {blas_kernel()}", f"threads: {threads}"]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """The report header again when `-q` hid it, then one pass/fail line
    per acceptance criterion at the end of the run."""
    if config.get_verbosity() < 0:
        terminalreporter.section("run environment")
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)
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
