from dataclasses import replace

import numpy as np
import pytest

from netstab import presets
from netstab.diagrams import d_corners
from netstab.equilibrium import (equilibrium_flows, equilibrium_residual,
                                 fit_supply_scale, solve_uep)
from netstab.errors import DomainError, InfeasibleInflow, NonUniformEquilibrium
from netstab.stability import certify

import oracles
from test_stability import _jam_capacity


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
    with pytest.raises(DomainError, match=r"^cell 1: equilibrium inflow 26 exceeds the admissible"):
        solve_uep(ref_spec, ref_ds, v)


def test_solver_rejects_negative_inflow(ref_spec, ref_ds):
    v = presets.reference_vstar()
    v[3] = -1.0
    with pytest.raises(DomainError, match=r"^cell 4: equilibrium inflow -1 is negative$"):
        solve_uep(ref_spec, ref_ds, v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solver_rejects_non_finite_inflow(ref_spec, ref_ds, bad):
    v = presets.reference_vstar()
    v[4] = bad
    with pytest.raises(DomainError, match=r"^cell 5: equilibrium inflow .* is not finite"):
        solve_uep(ref_spec, ref_ds, v)


def test_solver_refuses_diagrams_of_another_jam_capacity(ref_spec, ref_ds):
    """An equilibrium of curves that jam at 120 on a cell the network fills
    to 170 would describe another network."""
    with pytest.raises(ValueError, match=r"^cell 3: diagrams give jam capacity "
                                         r"a = 120 but the network has a = 170$"):
        solve_uep(ref_spec, _jam_capacity(ref_ds, 2, 120.0), presets.reference_vstar())


def test_solver_refuses_a_network_validate_rejects(ref_spec, ref_ds):
    """The benchmark with cell 4's exit fraction at 0.6, so its row sums to
    1.1.  `solve_uep` refuses it, and so does `certify` around an
    equilibrium solved on the sound network; the refusal reads as the first
    violation does on the command line."""
    Qexit = ref_spec.Qexit.copy()
    Qexit[3] = 0.6
    bad = replace(ref_spec, Qexit=Qexit)
    refusal = r"^cell 4: turning rates plus exit fraction sum to 1\.1, expected 1 \(row_sum\)$"
    with pytest.raises(ValueError, match=refusal):
        solve_uep(bad, ref_ds, presets.reference_vstar())
    eq = solve_uep(ref_spec, ref_ds, presets.reference_vstar())
    with pytest.raises(ValueError, match=refusal):
        certify(bad, ref_ds, eq)


def test_supply_scale_fit(ref_spec, ref_ds):
    d4, residual = fit_supply_scale(ref_spec, ref_ds,
                                    presets.congested_candidate(),
                                    presets.reference_vstar(),
                                    (1.0, 0.0, 1.0))
    assert 0.2590 < d4 < 0.2610
    assert residual < 1e-2
    assert ref_ds.d_lo[3] <= d4 <= ref_ds.d_hi[3]


def _piecewise_net(rng):
    """A random acyclic net of `oracles` whose cells carry one of two
    continuous disturbance-free polynomial curves (each also as an equal
    copy, as a file read gives), with inflows from a few levels so
    throughputs repeat."""
    import dataclasses

    from netstab.diagrams import DiagramSet, Piece
    from netstab.network import NetworkSpec
    from test_curve_table import PIECEWISE

    P, _, _ = oracles.random_acyclic_instance(rng)
    n = len(P)
    curves = tuple(dataclasses.replace(PIECEWISE, subcritical=(
        Piece(0.0, 30.0, (0.0, slope)), Piece(30.0, presets.DELTA, (c0, slope, c2))))
        for slope, c0, c2 in ((0.5, 0.9, -0.001), (0.45, 0.72, -0.0008)))
    pool = curves + tuple(dataclasses.replace(fd) for fd in curves)
    demands = tuple(pool[k] for k in rng.integers(0, len(pool), n))
    ref = presets.reference_diagrams()
    spec = NetworkSpec(n=n, a=np.full(n, presets.JAM), P=P, Qexit=1.0 - P.sum(axis=1),
                       mu=np.full(n, presets.MU_MAIN), vmax=np.full(n, 25.0))
    v = rng.choice([0.0, 7.0, 14.0], n)
    v *= min(1.0, 22.0 / max(v.sum(), 1.0))  # every throughput stays below 22
    return spec, DiagramSet(demands, (ref.supplies[0],) * n, ref.d_lo, ref.d_hi), v


def _uep_cases():
    """(name, spec, diagrams, v*, distinct pairs or None) of the benchmark,
    its 8 relabelled copies and random nets of two curves."""
    from test_curve_table import _corridor

    yield ("benchmark", presets.reference_network(), presets.reference_diagrams(),
           presets.reference_vstar(), 2)
    spec, ds = _corridor(8, 11)
    v = np.zeros(spec.n)
    v[np.random.default_rng(11).permutation(spec.n)] = np.tile(presets.reference_vstar(), 8)
    yield "corridor of 8 copies", spec, ds, v, 2
    rng = np.random.default_rng(17)
    for k in range(12):
        yield (f"random net {k}", *_piecewise_net(rng), None)


def test_solver_bisects_each_distinct_curve_and_throughput_once(monkeypatch):
    """x* equals one bisection per cell bit for bit, while the solver bisects
    each distinct (curve, throughput) pair once; equal curves that are
    separate objects share their bisection too."""
    from netstab import equilibrium

    bisect = equilibrium._invert_subcritical
    calls = []

    def counted(fd, dref, target):
        calls.append((fd, target))
        return bisect(fd, dref, target)

    monkeypatch.setattr(equilibrium, "_invert_subcritical", counted)
    cells = bisections = shared = 0
    for name, spec, ds, v, n_pairs in _uep_cases():
        calls.clear()
        eq = solve_uep(spec, ds, v)
        assert eq.xstar.tobytes() == oracles.uep_xstar_reference(spec, ds, v).tobytes(), name
        pairs = {(fd, float(F)) for fd, F in zip(ds.demands, eq.flows)}
        assert len(calls) == len(set(calls)) == len(pairs), name
        if n_pairs is not None:
            assert len(pairs) == n_pairs, name
            continue
        cells, bisections = cells + spec.n, bisections + len(calls)
        shared += len({(id(fd), float(F)) for fd, F in zip(ds.demands, eq.flows)}) - len(pairs)
    # the random nets repeat pairs, some of them through equal curve objects
    assert bisections < cells and shared > 0
