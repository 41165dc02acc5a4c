import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstab import dynamics, presets
from netstab.diagrams import (D_TOL, DiagramSet, SupplyFunction, d_corners, demand_all,
                              demand_batch, supply_all,
                              supply_batch, uniform_uncertainty)
from netstab.dynamics import STATE_TOL, compute_flows, is_uncongested, step
from netstab.errors import DimensionError, DomainError, NumericalError
from netstab.network import NetworkSpec
from netstab.stability import ThrottleBound

import oracles

UNIT = st.floats(0, 1)
STATE = st.lists(st.floats(0, 170), min_size=8, max_size=8)
INFLOW = st.lists(st.floats(0, 30), min_size=8, max_size=8)
DBOX = st.tuples(UNIT, UNIT, UNIT, st.floats(0.22, 0.3))


def test_equilibrium_is_a_fixed_point(ref_spec, ref_ds, ref_eq):
    for d in d_corners(ref_ds):
        x_next, fb = step(ref_spec, ref_ds, ref_eq.xstar, ref_eq.vstar, d)
        np.testing.assert_allclose(x_next, ref_eq.xstar, rtol=0, atol=1e-9)
        np.testing.assert_allclose(fb.outflow, ref_eq.flows, rtol=0, atol=1e-9)
        assert np.all(fb.s == 1.0) and np.all(fb.w == 1.0)


@settings(max_examples=60, deadline=None)
@given(x=STATE, v=INFLOW, d=DBOX)
def test_step_invariants(x, v, d):
    """Mass balance, state confinement, and flow caps on arbitrary inputs."""
    spec = presets.reference_network()
    ds = presets.reference_diagrams()
    x, v, d = np.array(x), np.array(v), np.array(d)
    x_next, fb = step(spec, ds, x, v, d)

    assert np.all(x_next >= 0) and np.all(x_next <= spec.a)
    # change of total mass == accepted externals - departures
    lhs = x_next.sum() - x.sum()
    rhs = (fb.w * v).sum() - fb.exit.sum()
    assert lhs == pytest.approx(rhs, abs=1e-9)
    # nobody sends more than their demand or receives beyond their supply
    g = supply_all(ds, d, x)
    assert np.all(fb.outflow <= fb.attempted_demand + 1e-12)
    assert np.all(fb.inflow <= g + 1e-9)
    assert np.all((fb.s >= 0) & (fb.s <= 1))
    assert np.all((fb.w >= 0) & (fb.w <= 1))


@settings(max_examples=60, deadline=None)
@given(x=STATE, v=INFLOW, d=DBOX)
def test_flows_match_plain_loop_oracle(x, v, d):
    spec = presets.reference_network()
    ds = presets.reference_diagrams()
    x, v, d = np.array(x), np.array(v), np.array(d)
    fb = compute_flows(spec, ds, x, v, d)
    outflow, inflow, w = oracles.flows_reference(spec, ds, x, v, d)
    np.testing.assert_allclose(fb.outflow, outflow, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fb.inflow, inflow, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fb.w, w, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(x=STATE, v=INFLOW, d=DBOX)
def test_inflow_takes_min_form_on_chain_topology(x, v, d):
    """Every cell here feeds one junction, so admission is a plain min."""
    spec = presets.reference_network()
    ds = presets.reference_diagrams()
    x, v, d = np.array(x), np.array(v), np.array(d)
    fb = compute_flows(spec, ds, x, v, d)
    g = supply_all(ds, d, x)
    attempted = v + fb.attempted_demand @ spec.P
    np.testing.assert_allclose(fb.inflow, np.minimum(g, attempted),
                               rtol=1e-12, atol=1e-9)


def test_descending_priority_at_the_merge(ref_spec, ref_ds):
    """When supply runs short at the merge, the on-ramp sender wins."""
    x = np.array([55.0, 55, 55, 160, 27.5, 160, 168, 55])
    v = np.zeros(8)
    d = np.array([1.0, 0, 1, 0.22])
    fb = compute_flows(ref_spec, ref_ds, x, v, d)
    g7 = supply_all(ref_ds, d, x)[6]
    f = fb.attempted_demand
    assert f[5] >= g7  # the prioritized sender alone exhausts the merge
    assert fb.s[5] == pytest.approx(g7 / f[5], abs=1e-12)
    assert fb.s[3] == 0.0
    assert fb.inflow[6] == pytest.approx(g7, abs=1e-12)


def test_external_inflow_has_priority(ref_spec, ref_ds):
    x = np.array([55.0, 168, 55, 55, 27.5, 27.5, 55, 55])
    v = np.zeros(8)
    v[1] = 30.0  # far beyond cell 2's remaining supply
    d = np.array([1.0, 0, 1, 0.22])
    fb = compute_flows(ref_spec, ref_ds, x, v, d)
    g2 = supply_all(ref_ds, d, x)[1]
    assert fb.w[1] == pytest.approx(g2 / 30.0)
    assert fb.s[0] == 0.0  # upstream sender sees no remaining supply
    assert fb.inflow[1] == pytest.approx(g2, abs=1e-12)


def test_throttle_bound_is_conservative(ref_spec, ref_ds):
    bound = ThrottleBound(ref_spec, ref_ds)
    rng = np.random.default_rng(17)
    X = rng.uniform(0, 170, size=(200, 8))
    V = rng.uniform(0, 25, size=(200, 8))
    D = uniform_uncertainty(ref_ds, 200, rng)
    S_lo = bound.allocate(demand_batch(ref_ds, D, X), supply_batch(ref_ds, D, X), V)
    for k in range(200):
        s = compute_flows(ref_spec, ref_ds, X[k], V[k], D[k]).s
        assert np.all(S_lo[k] <= s + 1e-12)


def test_empty_cells_emit_nothing(ref_spec, ref_ds):
    x = np.zeros(8)
    fb = compute_flows(ref_spec, ref_ds, x, np.zeros(8),
                       np.array([0.5, 0.5, 0.5, 0.25]))
    np.testing.assert_array_equal(fb.outflow, np.zeros(8))
    assert np.all(fb.s == 1.0)


def test_is_uncongested(ref_spec, ref_ds, ref_eq):
    d = np.array([0.5, 0.5, 0.5, 0.3])
    assert is_uncongested(ref_spec, ref_ds, ref_eq.xstar, ref_eq.vstar, d)
    jam = np.array(ref_spec.a)
    assert not is_uncongested(ref_spec, ref_ds, jam, ref_eq.vstar,
                              np.array([1.0, 0, 1, 0.22]))


def test_step_rejects_bad_inputs(ref_spec, ref_ds, ref_eq):
    d = np.array([0.5, 0.5, 0.5, 0.25])
    with pytest.raises(DomainError, match="outside"):
        step(ref_spec, ref_ds, np.full(8, 171.0), ref_eq.vstar, d)
    with pytest.raises(DomainError, match="negative"):
        step(ref_spec, ref_ds, ref_eq.xstar, np.full(8, -1.0), d)
    with pytest.raises(DomainError, match="uncertainty"):
        step(ref_spec, ref_ds, ref_eq.xstar, ref_eq.vstar,
             np.array([0.5, 0.5, 0.5, 0.1]))
    with pytest.raises(DimensionError):
        step(ref_spec, ref_ds, np.zeros(5), ref_eq.vstar, d)


def _past(z, toward):
    return float(np.nextafter(z, toward))


BOX = "outside the uncertainty box"
DBL_MAX = float(np.finfo(float).max)
TINY = _past(0.0, np.inf)  # 5e-324
# (input, index, value, DomainError message or None when admitted): x is
# edited at cell 3 (a = 170), v at cell 5 and d at each coordinate (box
# [0, 1] for d1..d3 and [0.22, 0.3] for d4); an index list edits several
# cells, here to inflows whose finite entries overflow their sum
EDGES = [
    ("x", 2, -STATE_TOL, None),
    ("x", 2, presets.JAM + STATE_TOL, None),
    ("x", 2, _past(-STATE_TOL, -np.inf), "cell 3: density -1e-09 outside [0, 170]"),
    ("x", 2, _past(presets.JAM + STATE_TOL, np.inf), "cell 3: density 170 outside [0, 170]"),
    ("x", 2, np.nan, "cell 3: non-finite density nan"),
    ("x", 2, np.inf, "cell 3: non-finite density inf"),
    ("x", 2, -np.inf, "cell 3: non-finite density -inf"),
    ("x", 2, -0.0, None),
    ("x", 2, 0.0, None),
    ("x", 2, TINY, None),
    ("x", 2, presets.JAM, None),
    ("x", 2, _past(presets.JAM, np.inf), None),
    ("x", 2, STATE_TOL / 2, None),
    ("x", 2, -STATE_TOL / 2, None),
    ("x", 2, DBL_MAX, "cell 3: density 1.79769e+308 outside [0, 170]"),
    ("x", 2, -DBL_MAX, "cell 3: density -1.79769e+308 outside [0, 170]"),
    ("v", 4, -0.0, None),
    ("v", 4, DBL_MAX, None),
    ("v", 4, _past(0.0, -np.inf), "cell 5: negative external inflow -4.94066e-324"),
    ("v", 4, np.nan, "cell 5: non-finite external inflow nan"),
    ("v", 4, np.inf, "cell 5: non-finite external inflow inf"),
    ("v", 4, -np.inf, "cell 5: non-finite external inflow -inf"),
    ("v", 4, 0.0, None),
    ("v", 4, TINY, None),
    ("v", 4, presets.JAM, None),
    ("v", 4, _past(presets.JAM, np.inf), None),
    ("v", 4, STATE_TOL / 2, None),
    ("v", 4, -STATE_TOL / 2, "cell 5: negative external inflow -5e-10"),
    ("v", 4, -DBL_MAX, "cell 5: negative external inflow -1.79769e+308"),
    ("v", [0, 4], DBL_MAX, None),
    ("v", [0, 4, 6], [DBL_MAX, DBL_MAX, np.nan], "cell 7: non-finite external inflow nan"),
    ("d", 1, 0.0 - D_TOL, None),
    ("d", 1, 1.0 + D_TOL, None),
    ("d", 3, 0.22 - D_TOL, None),
    ("d", 3, 0.3 + D_TOL, None),
    ("d", 1, _past(0.0 - D_TOL, -np.inf), f"disturbance coordinate d2 = -1e-12 {BOX} [0, 1]"),
    ("d", 1, _past(1.0 + D_TOL, np.inf), f"disturbance coordinate d2 = 1 {BOX} [0, 1]"),
    ("d", 3, _past(0.22 - D_TOL, -np.inf), f"disturbance coordinate d4 = 0.22 {BOX} [0.22, 0.3]"),
    ("d", 3, _past(0.3 + D_TOL, np.inf), f"disturbance coordinate d4 = 0.3 {BOX} [0.22, 0.3]"),
    ("d", 1, np.nan, f"disturbance coordinate d2 = nan {BOX} [0, 1]"),
    ("d", 3, np.inf, f"disturbance coordinate d4 = inf {BOX} [0.22, 0.3]"),
    ("d", 3, -np.inf, f"disturbance coordinate d4 = -inf {BOX} [0.22, 0.3]"),
    *[("d", k, edge, None) for k in (0, 2) for edge in (0.0 - D_TOL, 1.0 + D_TOL)],
    *[("d", k, _past(edge, out), f"disturbance coordinate d{k + 1} = {_past(edge, out):.6g} "
       f"{BOX} [0, 1]") for k in (0, 2) for edge, out in ((-D_TOL, -np.inf), (1 + D_TOL, np.inf))],
    *[("d", k, np.nan, f"disturbance coordinate d{k + 1} = nan {BOX} [0, 1]") for k in (0, 2)],
]


@pytest.mark.parametrize("which, index, value, message", EDGES)
def test_step_admits_exactly_its_box(ref_spec, ref_ds, ref_eq, monkeypatch, which, index,
                                     value, message):
    """The admission edges of `step` and each value its screens can meet:
    the state box widened by STATE_TOL, v in [0, inf) and the uncertainty
    box widened by D_TOL, each edge admitted and the next float past it
    refused with a message naming the cell or the coordinate of d.  An
    admitted input gives x_next and every flow field of
    `oracles.step_reference` bit for bit, which clips every state and
    screens nothing, and reaches the slow path (`_check_domain`) only for
    a density outside [0, a] or inflows whose sum overflows."""
    args = {"x": ref_eq.xstar.copy(), "v": ref_eq.vstar.copy(),
            "d": np.array([0.5, 0.5, 0.5, 0.25])}
    args[which][index] = value
    if message is None:
        slow = []
        check = dynamics._check_domain
        monkeypatch.setattr(dynamics, "_check_domain", lambda *a: slow.append(a) or check(*a))
        x_next, fb = step(ref_spec, ref_ds, args["x"], args["v"], args["d"])
        x = args["x"]
        fast = ((x >= 0.0) & (x <= ref_spec.a)).all() and math.isfinite(sum(args["v"].tolist()))
        assert len(slow) == (not fast)
        want_x, want = oracles.step_reference(ref_spec, ref_ds, args["x"], args["v"], args["d"])
        assert x_next.tobytes() == want_x.tobytes()
        for field in oracles.FLOW_FIELDS:
            assert getattr(fb, field).tobytes() == want[field].tobytes(), field
    else:
        with pytest.raises(DomainError) as exc:
            step(ref_spec, ref_ds, args["x"], args["v"], args["d"])
        assert str(exc.value) == message


# densities a closed loop never feeds back, admitted: -0.0 passes the strict
# screen of [0, a] unclipped, the rest lie in the STATE_TOL band around it
# and take the slow path, which clips them
BAND = (-0.0, 0.0, _past(0.0, -np.inf), -1e-10, -STATE_TOL,
        presets.JAM, _past(presets.JAM, np.inf), presets.JAM + 1e-10,
        presets.JAM + STATE_TOL)


def test_step_on_the_tolerance_band_matches_the_reference(ref_spec, ref_ds, ref_eq):
    """States with band entries at random cells, under the 16 box corners and
    random d: x_next and all six fields equal `oracles.step_reference`,
    which clips every state, and what `step` gives on the clipped state."""
    rng = np.random.default_rng(22)
    D = np.vstack([d_corners(ref_ds), uniform_uncertainty(ref_ds, 16, rng)])
    for k, d in enumerate(D):
        x = rng.uniform(0.0, ref_spec.a)
        cells = rng.choice(8, size=1 + k % 8, replace=False)
        x[cells] = rng.choice(BAND, size=cells.size)
        v = ref_eq.vstar * rng.uniform(0.0, 2.0)
        x_next, fb = step(ref_spec, ref_ds, x, v, d)
        want_x, want = oracles.step_reference(ref_spec, ref_ds, x, v, d)
        clip_next, clip_fb = step(ref_spec, ref_ds, np.clip(x, 0.0, ref_spec.a), v, d)
        assert np.array_equal(x_next, want_x) and np.array_equal(x_next, clip_next)
        for field in oracles.FLOW_FIELDS:
            assert np.array_equal(getattr(fb, field), want[field]), field
            assert np.array_equal(getattr(fb, field), getattr(clip_fb, field)), field


def test_breakdown_keeps_the_inflow_it_was_offered(ref_spec, ref_ds, ref_eq):
    """`w` is derived on first read, from the inflow the step was offered:
    writing into the caller's v array afterwards changes nothing."""
    x, d = ref_eq.xstar * 1.5, np.array([0.5, 0.5, 0.5, 0.25])
    v = ref_eq.vstar * 3.0
    want = compute_flows(ref_spec, ref_ds, x, v.copy(), d).w
    _, fb = step(ref_spec, ref_ds, x, v, d)
    v[:] = 1.0
    assert np.array_equal(fb.w, want) and (want < 1.0).any()


@pytest.mark.parametrize("a, bad, admitted, message", [
    (170.0, (2, np.nan), (6, -1e-10), "cell 3: non-finite density nan"),
    (170.0, (0, np.inf), (3, presets.JAM + STATE_TOL), "cell 1: non-finite density inf"),
    (170.0, (7, -np.inf), (1, -0.0), "cell 8: non-finite density -inf"),
    (170.0, (4, _past(-STATE_TOL, -np.inf)), (2, presets.JAM + STATE_TOL),
     "cell 5: density -1e-09 outside [0, 170]"),
    (170.0, (5, _past(presets.JAM + STATE_TOL, np.inf)), (0, -STATE_TOL),
     "cell 6: density 170 outside [0, 170]"),
    (170.0, (1, -1.0), (7, _past(0.0, -np.inf)), "cell 2: density -1 outside [0, 170]"),
    # a + STATE_TOL rounds up at a = 100, so the admitted cell 3 lies further
    # out than the refused cell 5
    (100.0, (4, _past(-STATE_TOL, -np.inf)), (2, 100.0 + STATE_TOL),
     "cell 5: density -1e-09 outside [0, 100]"),
])
def test_step_names_the_refused_cell_beside_an_admitted_one(ref_spec, ref_ds, ref_eq,
                                                           a, bad, admitted, message):
    """A state refused at one cell while another lies in the tolerance band:
    the DomainError names the refused cell."""
    spec = NetworkSpec(8, np.full(8, a), ref_spec.P, ref_spec.Qexit, ref_spec.mu,
                       ref_spec.vmax)
    x = np.full(8, 50.0)
    x[admitted[0]], x[bad[0]] = admitted[1], bad[1]
    with pytest.raises(DomainError) as exc:
        step(spec, ref_ds, x, ref_eq.vstar, np.array([0.5, 0.5, 0.5, 0.25]))
    assert str(exc.value) == message


@pytest.mark.parametrize("x_bad, v_bad, d_bad, error, message", [
    ((2, np.nan), None, None, DomainError, "cell 3: non-finite density"),
    ((0, np.inf), None, None, DomainError, "cell 1: non-finite density"),
    ((7, -np.inf), None, None, DomainError, "cell 8: non-finite density"),
    (None, (1, np.nan), None, DomainError, "cell 2: non-finite external inflow"),
    (None, (4, np.inf), None, DomainError, "cell 5: non-finite external inflow"),
    (None, None, np.array([0.5, 0.5, 0.5]), DimensionError, r"shape \(4,\)"),
    (None, None, np.array([0.5, np.nan, 0.5, 0.25]), DomainError, "d2 = nan"),
    (None, None, np.array([0.5, 0.5, 0.5, 0.31]), DomainError,
     r"d4 = 0.31 outside the uncertainty box \[0.22, 0.3\]"),
])
def test_step_names_the_cell_of_bad_input(ref_spec, ref_ds, ref_eq,
                                          x_bad, v_bad, d_bad, error, message):
    """Non-finite or misshapen input is refused up front, naming its cell or
    its coordinate of d, before any flow is computed."""
    x, v = ref_eq.xstar.copy(), ref_eq.vstar.copy()
    d = np.array([0.5, 0.5, 0.5, 0.25]) if d_bad is None else d_bad
    if x_bad is not None:
        x[x_bad[0]] = x_bad[1]
    if v_bad is not None:
        v[v_bad[0]] = v_bad[1]
    with pytest.raises(error, match=message):
        step(ref_spec, ref_ds, x, v, d)


def _huge_pair(supplies, d_hi):
    """Two cells, 1 feeding 2, of jam capacity 1e308 with the benchmark's
    main-line demand and the given supplies."""
    ref = presets.reference_diagrams()
    fd = dataclasses.replace(ref.demands[0], a=1e308)
    spec = NetworkSpec(n=2, a=np.full(2, 1e308), P=np.array([[0.0, 1.0], [0.0, 0.0]]),
                       Qexit=np.array([0.0, 1.0]), mu=np.full(2, 40.0), vmax=np.full(2, 20.0))
    return spec, DiagramSet((fd, fd), supplies, ref.d_lo, d_hi)


def test_finite_flows_whose_sum_overflows_pass():
    """`compute_flows` screens f and g by their sum, which finite terms can
    overflow: supplies of 1e308 on two cells sum past DBL_MAX, and the check
    behind the screen finds every value finite and raises nothing."""
    sf = SupplyFunction(qcap=1e308, a=1e308)
    spec, ds = _huge_pair((sf, sf), np.array([1.0, 1.0, 1.0, 1.0]))
    x, v = np.array([0.0, 0.0]), np.array([2.0, 0.0])
    d = np.array([0.5, 0.5, 0.5, 1.0])
    assert supply_all(ds, d, x).tolist() == [1e308, 1e308]
    fb = compute_flows(spec, ds, x, v, d)
    assert fb.s.tolist() == [1.0, 1.0] and fb.inflow.tolist() == [2.0, 0.0]


def test_non_finite_supply_names_its_cell():
    """A supply that is not finite still raises NumericalError naming its
    cell: cell 2 scales by d4 = inf, cell 1 by a pinned wave."""
    supplies = (SupplyFunction(qcap=1e308, a=1e308, wave=0.3),
                SupplyFunction(qcap=1e308, a=1e308))
    spec, ds = _huge_pair(supplies, np.array([1.0, 1.0, 1.0, np.inf]))
    with pytest.raises(NumericalError, match="non-finite supply at cell 2") as exc:
        compute_flows(spec, ds, np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                      np.array([0.5, 0.5, 0.5, np.inf]))
    assert exc.value.cell == 1


def _clipped_successor(spec, ds, x, v, d):
    """The successor as `step` returned every one before it skipped the
    identity clip: the clipped state's flows, then the successor clipped
    with np.minimum(np.maximum(., 0.0), a)."""
    x = np.minimum(np.maximum(x, 0.0), spec.a)
    fb = compute_flows(spec, ds, x, v, d)
    return np.minimum(np.maximum(x - fb.outflow + fb.inflow, 0.0), spec.a)


def test_successor_keeps_its_bits_and_sign_of_zero(ref_spec, ref_ds, ref_eq):
    """Successors with exact 0 and exact a entries, states with -0.0 entries
    (in x, and in v as well) and band states: `step` returns the bits of
    clipping every successor, and never a -0.0."""
    a, rng = ref_spec.a, np.random.default_rng(8)
    ramp_dry = a.copy()
    ramp_dry[[4, 5]] = 0.0
    signed = ref_eq.xstar.copy()
    signed[[1, 4, 5]] = -0.0
    cases = [(np.zeros(8), np.zeros(8)), (np.full(8, -0.0), np.full(8, -0.0)),
             (a.copy(), np.zeros(8)), (ramp_dry, np.zeros(8)),
             (signed, ref_eq.vstar), (signed, np.zeros(8))]
    for k in range(40):
        x = rng.uniform(0.0, a)
        cells = rng.choice(8, size=1 + k % 8, replace=False)
        x[cells] = rng.choice(BAND, size=cells.size)
        cases.append((x, ref_eq.vstar * rng.uniform(0.0, 2.0) * (rng.random(8) < 0.7)))
    ends = set()
    for x, v in cases:
        for d in d_corners(ref_ds)[::5]:
            got, _ = step(ref_spec, ref_ds, x, v, d)
            assert got.tobytes() == _clipped_successor(ref_spec, ref_ds, x, v, d).tobytes()
            assert not np.signbit(got).any()
            ends |= {"0" for z in got if z == 0.0} | {"a" for z, top in zip(got, a) if z == top}
    assert ends == {"0", "a"}


@pytest.mark.parametrize("net", ["benchmark", "corridor of 8 copies", "dense 128"])
def test_stacked_matmul_keeps_per_row_bits(ref_spec, net):
    """`np.matmul` over a stack runs one matrix-vector product per row, with
    the bits of that row alone: outflow rows O as (N, 1, n) @ P against each
    o @ P (the product a batched step would route with), and A @ E[..., None]
    against each A @ e (the control law's and the contraction check's)."""
    from test_curve_table import _corridor

    rng = np.random.default_rng(len(net))
    P = {"benchmark": ref_spec.P, "corridor of 8 copies": _corridor(8, 11)[0].P,
         "dense 128": rng.uniform(0.0, 1.0 / 128, (128, 128))}[net]
    n = len(P)
    O = rng.uniform(0.0, 30.0, (200, n)) * (rng.random((200, n)) < 0.8)
    routed = np.matmul(O[:, None, :], P)[:, 0, :]
    assert routed.tobytes() == np.array([o @ P for o in O]).tobytes()
    A = rng.uniform(0.0, 0.3, (n, n))
    assert np.matmul(A, O[..., None])[..., 0].tobytes() == np.array([A @ o for o in O]).tobytes()


def test_successor_past_a_is_clipped_within_the_band_and_refused_beyond(ref_spec, ref_ds):
    """A supply scale above 1 (wave 1.5 on cell 2) lets a cell just below a
    take in more than its room; its outflow is blocked by a full cell 3.  An
    overshoot inside STATE_TOL is clipped to a exactly, a larger one raises
    NumericalError naming the cell."""
    sup = list(ref_ds.supplies)
    sup[1] = dataclasses.replace(sup[1], wave=1.5)
    ds = dataclasses.replace(ref_ds, supplies=tuple(sup))
    d = np.array([0.5, 0.5, 0.5, 0.25])
    x = np.full(8, 50.0)
    x[1], x[2] = ref_spec.a[1] - 1e-9, ref_spec.a[2]
    got, _ = step(ref_spec, ds, x, np.zeros(8), d)
    assert got[1] == ref_spec.a[1]
    assert got.tobytes() == _clipped_successor(ref_spec, ds, x, np.zeros(8), d).tobytes()
    x[1] = ref_spec.a[1] - 4e-9
    with pytest.raises(NumericalError, match=r"^state left its box at cell 2 by 2e-09$") as exc:
        step(ref_spec, ds, x, np.zeros(8), d)
    assert exc.value.cell == 1
