import os
import re
from pathlib import Path

import pytest

from quditcs import phase_space, qcs

# Child interpreters (the CLI round trips) import quditcs from the source
# tree that pyproject.toml's pythonpath gives pytest itself, so a bare
# `python -m pytest` needs no PYTHONPATH.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

_CRITERIA = {
    1: "fidelity table reproduction",
    2: "oracle equivalence",
    3: "cat-state analytics",
    4: "nonclassical volume",
    5: "wigner invariant suite",
    6: "tomogram cross-validation",
    7: "special-function suite",
    8: "parity suppression",
}


@pytest.fixture(autouse=True)
def _clear_factor_and_plan_caches():
    """Start every test with empty per-amplitude factor caches, Weyl plans and
    Laguerre step tables, so that an entry cached by an earlier test cannot
    hide what a test patches (such as qcs.he_roots or
    phase_space.hermite_function_table)."""
    for cache in (
        qcs._displacement_column,
        qcs._series_magnitudes,
        qcs._phases,
        phase_space._weyl_plan,
        phase_space._laguerre_steps,
    ):
        cache.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    outcomes = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", rep.nodeid)
            if match:
                outcomes.setdefault(int(match.group(1)), []).append(key == "passed")
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(outcomes):
        verdict = "PASS" if all(outcomes[num]) else "FAIL"
        name = _CRITERIA.get(num, "?")
        terminalreporter.write_line(f"criterion {num} ({name}): {verdict}")
