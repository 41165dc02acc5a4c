import numpy as np
import pytest

from netstab import presets
from netstab.diagrams import d_corners
from netstab.equilibrium import (equilibrium_flows, equilibrium_residual,
                                 fit_supply_scale, solve_uep)
from netstab.errors import InfeasibleInflow, NonUniformEquilibrium

import oracles


def test_reference_equilibrium_values(ref_eq):
    np.testing.assert_allclose(ref_eq.xstar, oracles.XSTAR, rtol=0, atol=1e-9)
    np.testing.assert_allclose(ref_eq.flows, oracles.EQ_FLOWS, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(ref_eq.vstar, oracles.VSTAR)


def test_flow_accumulation_solves_the_balance(ref_spec):
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.uniform(0, 10, size=8)
        F = equilibrium_flows(ref_spec, v)
        np.testing.assert_allclose(F, v + F @ ref_spec.P, rtol=0, atol=1e-12)


def test_residual_vanishes_at_equilibrium(ref_spec, ref_ds, ref_eq):
    for d in d_corners(ref_ds):
        res = equilibrium_residual(ref_spec, ref_ds, ref_eq.xstar,
                                   ref_eq.vstar, d)
        assert np.max(np.abs(res)) < 1e-9


def test_off_equilibrium_residual_is_nonzero(ref_spec, ref_ds, ref_eq):
    x = np.array(ref_eq.xstar)
    x[2] = 40.0
    res = equilibrium_residual(ref_spec, ref_ds, x, ref_eq.vstar,
                               np.array([1.0, 0, 1, 0.25]))
    assert np.max(np.abs(res)) > 0.1


def test_solver_rejects_disturbance_dependent_targets(ref_spec, ref_ds):
    """Off the common crossing point, the balance density varies with d."""
    v = presets.reference_vstar()
    v[0] = 24.0
    with pytest.raises(NonUniformEquilibrium) as exc:
        solve_uep(ref_spec, ref_ds, v)
    assert exc.value.max_deviation > 0


def test_solver_rejects_infeasible_inflow(ref_spec, ref_ds):
    v = presets.reference_vstar()
    v[7] = 0.2  # pushes the tail cell past the subcritical peak of 25
    with pytest.raises(InfeasibleInflow) as exc:
        solve_uep(ref_spec, ref_ds, v)
    assert exc.value.cell == 7
    assert exc.value.requested == pytest.approx(25.2)


def test_solver_rejects_inflow_beyond_cap(ref_spec, ref_ds):
    v = presets.reference_vstar()
    v[0] = 26.0  # above both vmax and the guaranteed empty-cell supply
    with pytest.raises(ValueError, match="admissible"):
        solve_uep(ref_spec, ref_ds, v)


def test_solver_rejects_negative_inflow(ref_spec, ref_ds):
    v = presets.reference_vstar()
    v[3] = -1.0
    with pytest.raises(ValueError):
        solve_uep(ref_spec, ref_ds, v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solver_rejects_non_finite_inflow(ref_spec, ref_ds, bad):
    v = presets.reference_vstar()
    v[4] = bad
    with pytest.raises(ValueError, match=r"^cell 5: equilibrium inflow .* is not finite"):
        solve_uep(ref_spec, ref_ds, v)


def test_supply_scale_fit(ref_spec, ref_ds):
    d4, residual = fit_supply_scale(ref_spec, ref_ds,
                                    presets.congested_candidate(),
                                    presets.reference_vstar(),
                                    (1.0, 0.0, 1.0))
    assert 0.2590 < d4 < 0.2610
    assert residual < 1e-2
    assert ref_ds.d_lo[3] <= d4 <= ref_ds.d_hi[3]
