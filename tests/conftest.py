import numpy as np
import pytest

import netstab
from netstab import harness, presets, stability

# one line per acceptance criterion, echoed after the run so a plain
# `pytest` invocation still shows the pass/fail table
_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def constants(monkeypatch):
    """Set module constants for the rest of one test, e.g.
    ``constants(GAMMA_SAMPLES=1024, REFINE_SWEEPS=1)``.  Each name is looked
    up in `netstab.stability`, else in `netstab.harness` (SUITE_HORIZON); an
    unknown name raises AttributeError.  The functions read their constants
    at call time, so a test runs them smaller or at a chunk's edges."""
    def set_(**values):
        for name, value in values.items():
            monkeypatch.setattr(stability if hasattr(stability, name) else harness,
                                name, value)
    return set_


@pytest.fixture(scope="session")
def ref_spec():
    return presets.reference_network()


@pytest.fixture(scope="session")
def ref_ds():
    return presets.reference_diagrams()


@pytest.fixture(scope="session")
def ref_eq(ref_spec, ref_ds):
    return netstab.solve_uep(ref_spec, ref_ds, presets.reference_vstar())


@pytest.fixture(scope="session")
def ref_cert(ref_spec, ref_ds, ref_eq):
    """Certificate with the synthesized controller (default sampling)."""
    return netstab.certify(ref_spec, ref_ds, ref_eq)


@pytest.fixture(scope="session")
def bench_ctrl(ref_eq):
    return presets.experiment_controller(ref_eq.xstar)


@pytest.fixture(scope="session")
def mass_audit():
    """Max per-trajectory mass-balance residuals, keyed by criterion."""
    return {}


@pytest.fixture(scope="session")
def congestion_d(ref_spec, ref_ds):
    from netstab.equilibrium import fit_supply_scale

    d4, _ = fit_supply_scale(ref_spec, ref_ds, presets.congested_candidate(),
                             presets.reference_vstar(), (1.0, 0.0, 1.0))
    return np.array([1.0, 0.0, 1.0, d4])
