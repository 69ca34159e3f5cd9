import re

import pytest
from hypothesis import HealthCheck, settings

from bowtie.theorems import Instance, make_zn_instance

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session", autouse=True)
def _ignore_shell_budget():
    """Run the CLI tests as if BOWTIE_BUDGET were unset in the caller's shell.

    Only the CLI reads the variable: cli.main in process, and the children
    that test_cli.py starts, which inherit this environment. Tests of the
    variable set it themselves.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("BOWTIE_BUDGET", raising=False)
        yield


@pytest.fixture(scope="session")
def z6() -> Instance:
    """The running example: Z_6 with I = 3Z_6."""
    return make_zn_instance(6, [0, 3])


@pytest.fixture(scope="session")
def z12() -> Instance:
    return make_zn_instance(12, [0, 4, 8])


@pytest.fixture(scope="session")
def z16() -> Instance:
    return make_zn_instance(16, [0, 4, 8, 12])


@pytest.fixture(scope="session")
def z20() -> Instance:
    return make_zn_instance(20, [0, 4, 8, 12, 16])


# ------------------------------------------------- acceptance reporting
#
# Tests named test_cNN[letter]_... in test_acceptance.py are grouped by
# criterion number NN; the terminal summary prints one PASS/FAIL line per
# criterion so the gate is readable at a glance.

_CRITERION = re.compile(r"::test_c(\d\d)")
_results: dict[int, list[tuple[str, bool]]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    _results.setdefault(int(m.group(1)), []).append(
        (report.nodeid, report.passed)
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for crit in sorted(_results):
        entries = _results[crit]
        ok = all(passed for _, passed in entries)
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {crit}: {status}")
        if not ok:
            for nodeid, passed in entries:
                if not passed:
                    short = nodeid.split("::")[-1]
                    terminalreporter.write_line(f"  failing: {short}")
