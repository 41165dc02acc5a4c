"""The curve-coefficient table and the single-row step against the pre-table
loop references in `oracles`, bit for bit.

`demand_batch` evaluates each built-in family with scalar coefficients,
`demand_all` every cell of one state in a Python loop over floats, and
`step` runs on that row path.  None of it may move a bit of a demand value,
a flow field or a successor state.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from netstab import diagrams, dynamics, network, presets
from netstab.diagrams import (DEMAND_FLOOR, DemandFunction, DiagramSet, Piece,
                              SupplyFunction, _branch_pieces, _demand_values,
                              d_corners, demand_all, demand_batch, demand_cap,
                              supply_all, uniform_uncertainty)
from netstab.dynamics import compute_flows, step
from netstab.equilibrium import solve_uep
from netstab.errors import DomainError, NumericalError
from netstab.harness import (ControlSpec, DisturbanceSpec, ScenarioConfig,
                             mass_balance_residuals, run_scenario)
from netstab.network import NetworkSpec

import oracles

# densities on the seams of the curves: the on-ramp knee, the critical density,
# the empty-cell floor (a hair above and below), a subnormal and the ends
SEAMS = (27.5, presets.DELTA, DEMAND_FLOOR, 0.5 * DEMAND_FLOOR, 5e-324, 0.0,
         presets.JAM)

PIECEWISE = DemandFunction(
    family="piecewise", a=presets.JAM, delta=presets.DELTA,
    delta_tilde=presets.DELTA, L=0.3, G=0.5, fmin=10.0,
    subcritical=(Piece(0.0, 30.0, (0.0, 0.5)),
                 Piece(30.0, presets.DELTA, (3.0, 0.5, -0.001))),
    overcritical=(Piece(presets.DELTA, presets.JAM, (30.0, -0.1)),),
)


def _benchmark(wave=None, pinned=(), piecewise=()):
    """The 8-cell freeway; `pinned` cells (0-based) fix their supply scale at
    `wave` and `piecewise` cells take a user polynomial curve."""
    spec, ref = presets.reference_network(), presets.reference_diagrams()
    demands = tuple(PIECEWISE if k in piecewise else fd
                    for k, fd in enumerate(ref.demands))
    supplies = tuple(replace(sf, wave=wave) if k in pinned else sf
                     for k, sf in enumerate(ref.supplies))
    return spec, DiagramSet(demands, supplies, ref.d_lo, ref.d_hi)


def _corridor(copies, seed, ds8=None):
    """`copies` disjoint freeways with cells relabelled by a seeded
    permutation; each copy takes the curves of `ds8`, else the benchmark's."""
    spec8, ds8 = presets.reference_network(), ds8 or presets.reference_diagrams()
    n = 8 * copies
    perm = np.random.default_rng(seed).permutation(n)
    P = np.zeros((n, n))
    vec = {k: np.zeros(n) for k in ("a", "Qexit", "mu", "vmax")}
    dem, sup = [None] * n, [None] * n
    for c in range(copies):
        new = perm[8 * c:8 * c + 8]
        P[np.ix_(new, new)] = spec8.P
        for k in vec:
            vec[k][new] = getattr(spec8, k)
        for i, j in enumerate(new):
            dem[j], sup[j] = ds8.demands[i], ds8.supplies[i]
    spec = NetworkSpec(n=n, P=P, **vec)
    return spec, DiagramSet(tuple(dem), tuple(sup), ds8.d_lo, ds8.d_hi)


def _random_net(rng):
    """A random acyclic net from `oracles` with mixed families and pinned waves."""
    P, _, _ = oracles.random_acyclic_instance(rng)
    n = len(P)
    ref = presets.reference_diagrams()
    pool = (ref.demands[0], ref.demands[4], PIECEWISE)
    demands = tuple(pool[int(k)] for k in rng.choice(3, size=n, p=(0.5, 0.35, 0.15)))
    supplies = tuple(
        SupplyFunction(qcap=presets.QCAP, a=presets.JAM,
                       wave=float(rng.uniform(0.2, 0.35)) if rng.random() < 0.3 else None)
        for _ in range(n))
    spec = NetworkSpec(n=n, a=np.full(n, presets.JAM), P=P,
                       Qexit=1.0 - P.sum(axis=1), mu=np.full(n, presets.MU_MAIN),
                       vmax=rng.uniform(0.3, 25.0, n))
    return spec, DiagramSet(demands, supplies, ref.d_lo, ref.d_hi)


def _turning_rate_above_one():
    """A raw 4-cell net whose cell 1 routes six times its outflow into cell 3
    (NetworkSpec does not validate P).  Demand rises with slope 0.2 to 0.9
    from the empty cell, so at density DEMAND_FLOOR cell 1 demands less than
    the floor while its claim 6 f is above it."""
    ref = presets.reference_diagrams()
    P = np.zeros((4, 4))
    P[0, 2], P[1, 2], P[2, 3] = 6.0, 1.0, 1.0
    spec = NetworkSpec(n=4, a=np.full(4, presets.JAM), P=P,
                       Qexit=np.array([0.0, 0.0, 0.0, 1.0]),
                       mu=np.full(4, presets.MU_MAIN), vmax=np.full(4, 20.0))
    return spec, DiagramSet(ref.demands[3:7], ref.supplies[3:7], ref.d_lo, ref.d_hi)


def _states(spec, ds, rng, N):
    """N states, each seam density planted in random cells of its own rows,
    plus inflows and disturbances (all box corners first)."""
    X = rng.uniform(0.0, spec.a, (N, spec.n))
    for k, z in enumerate(SEAMS):
        X[k::len(SEAMS) + 3][rng.random(X[k::len(SEAMS) + 3].shape) < 0.5] = z
    V = rng.uniform(0.0, 30.0, (N, spec.n))
    V[rng.random(V.shape) < 0.3] = 0.0
    D = np.vstack([d_corners(ds), uniform_uncertainty(ds, N - 16, rng)])
    return X, V, D


def _nets():
    rng = np.random.default_rng(29)
    nets = {"benchmark": _benchmark(),
            "benchmark, pinned waves": _benchmark(0.27, pinned=(0, 4, 7)),
            "benchmark, piecewise cell": _benchmark(0.27, pinned=(2,), piecewise=(2, 5)),
            "corridor of 3 copies": _corridor(3, 7),
            "corridor of 8 copies": _corridor(8, 11),
            "turning rate above 1": _turning_rate_above_one()}
    for k in range(6):
        nets[f"random {k}"] = _random_net(rng)
    # the curves the large corridor lacks, on as many cells
    nets["corridor of 8 copies, piecewise and pinned"] = _corridor(
        8, 13, _benchmark(0.27, pinned=(0, 4, 7), piecewise=(2, 5))[1])
    return nets


NETS = _nets()


@pytest.mark.parametrize("name", NETS)
def test_demand_evaluators_match_pre_table_references(name):
    spec, ds = NETS[name]
    rng = np.random.default_rng(len(name))
    X, _, D = _states(spec, ds, rng, 200)
    want = oracles.demand_batch_reference(ds, D, X)
    assert np.array_equal(demand_batch(ds, D, X), want)
    for k in range(len(X)):
        assert np.array_equal(demand_all(ds, D[k], X[k]), want[k])
    for fd in {fd.family: fd for fd in ds.demands}.values():
        # the broadcast form the audits use: d-weights down, densities across
        d1, d2, d3 = (D[:, t:t + 1] for t in range(3))
        z = np.concatenate([SEAMS, X[0]])[None, :]
        assert np.array_equal(_demand_values(fd, d1, d2, d3, z),
                              oracles.demand_values_reference(fd, d1, d2, d3, z))
        for z in SEAMS:
            assert np.array_equal(_demand_values(fd, D[3, 0], D[3, 1], D[3, 2], z),
                                  oracles.demand_values_reference(
                                      fd, D[3, 0], D[3, 1], D[3, 2], z))


@pytest.mark.parametrize("name", NETS)
def test_step_matches_pre_table_reference(name):
    spec, ds = NETS[name]
    rng = np.random.default_rng(100 + len(name))
    X, V, D = _states(spec, ds, rng, 120)
    for x, v, d in zip(X, V, D):
        x_next, fb = step(spec, ds, x, v, d)
        want_x, want = oracles.step_reference(spec, ds, x, v, d)
        assert np.array_equal(x_next, want_x)
        for field in oracles.FLOW_FIELDS:
            assert np.array_equal(getattr(fb, field), want[field]), field


@pytest.mark.parametrize("name", NETS)
def test_demand_all_at_the_seams(name):
    """Every cell at 0, DEMAND_FLOOR, the on-ramp knee, its delta and its a,
    and one float either side of each inside [0, a], under every box corner
    and random d.  `demand_all` picks each cell's knee piece on the
    coefficients, so these states are where the pick could slip."""
    spec, ds = NETS[name]
    a = np.array([fd.a for fd in ds.demands])
    delta = np.array([fd.delta for fd in ds.demands])
    seams = (np.zeros(ds.n), np.full(ds.n, DEMAND_FLOOR), np.full(ds.n, 27.5), delta, a)
    X = np.clip([np.nextafter(z, toward) for z in seams for toward in (-np.inf, z, np.inf)],
                0.0, a)
    D = np.vstack([d_corners(ds), uniform_uncertainty(ds, 16, np.random.default_rng(5))])
    XX, DD = np.repeat(X, len(D), axis=0), np.tile(D, (len(X), 1))
    want = oracles.demand_batch_reference(ds, DD, XX)
    for k in range(len(XX)):
        assert np.array_equal(demand_all(ds, DD[k], XX[k]), want[k]), (XX[k], DD[k])


@pytest.mark.parametrize("name", NETS)
def test_demand_never_exceeds_its_cap(name):
    """The gamma search bounds every demand by its cell's cap (`demand_cap`)
    to skip Sobol blocks unevaluated.  Both evaluators stay at or below it,
    in magnitude, at random states and at every cell's knees, piece ends,
    delta, DEMAND_FLOOR, 0 and a (one float either side inside [0, a]),
    under the 16 box corners and random d."""
    spec, ds = NETS[name]
    rng = np.random.default_rng(7 + len(name))
    assert np.isfinite(ds._fcap).all()
    ends = {0.0, DEMAND_FLOOR, 27.5, *(e for fd in set(ds.demands)
                                       for _, pieces in _branch_pieces(fd)
                                       for p in pieces for e in (p.lo, p.hi))}
    a = np.array([fd.a for fd in ds.demands])
    seams = np.clip([np.nextafter(np.full(ds.n, z), toward) for z in sorted(ends)
                     for toward in (-np.inf, z, np.inf)], 0.0, a)
    X = np.vstack([seams, a, rng.uniform(0.0, a, (60, ds.n))])
    D = np.vstack([d_corners(ds), uniform_uncertainty(ds, 16, rng)])
    XX, DD = np.repeat(X, len(D), axis=0), np.tile(D, (len(X), 1))
    F = demand_batch(ds, DD, XX)
    assert (np.abs(F) <= ds._fcap).all()
    assert all((np.abs(demand_all(ds, d, x)) <= ds._fcap).all() for x, d in zip(XX, DD))
    assert (F.max(axis=0) > 0.05 * ds._fcap).all()  # a bound, not a blanket


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["benchmark, piecewise cell",
                                  "corridor of 8 copies, piecewise and pinned"])
def test_non_finite_densities_fail_alike_on_row_and_batch_paths(name, bad):
    """`compute_flows` does not screen x.  A NaN or +inf density in a
    built-in cell gives a non-finite demand there, with the same bits on the
    row path, the batch path and the reference, and the flows raise
    NumericalError naming that cell; -inf lies below DEMAND_FLOOR, so that
    cell emits nothing.  In a piecewise cell no piece covers a non-finite
    density, and every path raises the same DomainError."""
    spec, ds = NETS[name]
    piecewise, builtin = ds._piecewise[0], min(set(range(ds.n)) - set(ds._piecewise))
    d = 0.5 * (ds.d_lo + ds.d_hi)
    for cell in (builtin, piecewise):
        x = 0.5 * spec.a
        x[cell] = bad
        outcomes = []
        for demand in (lambda: demand_all(ds, d, x),
                       lambda: demand_batch(ds, d[None], x[None])[0],
                       lambda: oracles.demand_batch_reference(ds, d[None], x[None])[0]):
            try:
                with np.errstate(invalid="ignore"):
                    outcomes.append(demand().tobytes())
            except DomainError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1] == outcomes[2], (cell, outcomes)
        if cell == piecewise:
            assert outcomes[0] == f"no polynomial piece covers density {bad}"
        elif bad == -math.inf:
            assert compute_flows(spec, ds, x, np.ones(ds.n), d).attempted_demand[cell] == 0.0
        else:
            refusal = f"^non-finite demand at cell {cell + 1}$"
            with pytest.raises(NumericalError, match=refusal) as exc:
                compute_flows(spec, ds, x, np.ones(ds.n), d)
            assert exc.value.cell == cell


def test_demand_cap_per_curve(monkeypatch):
    """A curve whose pieces rise with positive coefficients reaches its cap
    at the top of its last piece, within the 2^-40 allowance.  A 64-cell
    corridor holds two distinct curves, and each gets one `demand_cap`.  A
    coefficient or piece end that is not finite, or a bound that overflows,
    gives no finite cap (the search then evaluates every block)."""
    rising = DemandFunction(**{**PIECEWISE.__dict__, "overcritical": (
        Piece(presets.DELTA, 100.0, (1.0, 0.1)), Piece(100.0, presets.JAM, (1.0, 0.1, 1e-3)))})
    top = 1.0 + 0.1 * presets.JAM + 1e-3 * presets.JAM ** 2
    assert demand_cap(rising) == top * (1.0 + 2.0 ** -40)
    assert demand_cap(PIECEWISE) == (30.0 + 0.1 * presets.JAM) * (1.0 + 2.0 ** -40)
    ref = presets.reference_diagrams()
    ds = DiagramSet((rising,), ref.supplies[:1], ref.d_lo, ref.d_hi)
    f = demand_batch(ds, ref.d_lo[None, :], np.full((1, 1), presets.JAM))[0, 0]
    assert f <= ds._fcap[0] and abs(f - top) <= 1e-14 * top
    calls, ds = [], _corridor(8, 11)[1]
    monkeypatch.setattr(diagrams, "demand_cap", lambda fd: calls.append(fd) or demand_cap(fd))
    again = DiagramSet(ds.demands, ds.supplies, ds.d_lo, ds.d_hi)
    assert len(calls) == len(set(calls)) == len(set(ds.demands)) == 2
    assert np.array_equal(again._fcap, ds._fcap)
    for coeffs, hi in (((0.0, math.inf), 30.0), ((0.0, 0.5), math.inf),
                       ((1e200, 0.0, 1e200), 1e60)):
        fd = DemandFunction(**{**PIECEWISE.__dict__,
                               "subcritical": (Piece(0.0, hi, coeffs),)})
        assert not math.isfinite(demand_cap(fd))


def test_floor_in_the_throttle_loop_equals_the_mask():
    """`_allocate` never throttles a sender with f < DEMAND_FLOOR, where the
    reference throttles it in the claims loop and then resets it to 1 with a
    mask over empty and demandless cells.  Cell 1 sits at DEMAND_FLOOR, so its
    claim 6 f clears the floor while f does not, and it feeds a jammed cell
    that takes nothing; the other senders are empty or flowing."""
    spec, ds = NETS["turning rate above 1"]
    jam = presets.JAM
    states = [([DEMAND_FLOOR, DEMAND_FLOOR, jam, 100.0], [0.0, 0.0, 0.0, 0.0]),
              ([DEMAND_FLOOR, 0.0, jam, 0.0], [3.0, 0.0, 0.0, 0.0]),
              ([DEMAND_FLOOR, 40.0, 169.9, jam], [0.0, 2.0, 0.5, 0.0]),
              ([0.0, 0.0, jam, jam], [0.0, 0.0, 0.0, 0.0]),
              ([0.0, 60.0, 150.0, 0.0], [1.0, 0.0, 0.0, 4.0])]
    for x, v in states:
        x, v = np.array(x), np.array(v)
        for d in d_corners(ds):
            fb = compute_flows(spec, ds, x, v, d)
            want_x, want = oracles.step_reference(spec, ds, x, v, d)
            assert np.array_equal(fb.s, want["s"])
            x_next, fb = step(spec, ds, x, v, d)
            assert np.array_equal(x_next, want_x)
            for field in oracles.FLOW_FIELDS:
                assert np.array_equal(getattr(fb, field), want[field]), field
            if x[0] == DEMAND_FLOOR and x[2] == jam:
                # the case the floor is for: a claim above it from a demand
                # below it, into a junction with no room
                f = fb.attempted_demand[0]
                assert f < DEMAND_FLOOR < spec.P[0, 2] * f and fb.s[0] == 1.0


# The junction screen ----------------------------------------------------------
# From `network.SCREEN_CLAIMS` junctions on, `step` forms the unthrottled
# inflow first and skips the allocation when every junction clears its margin
# (`dynamics._flows`).  These tests hold both paths to
# `oracles.step_reference` bit for bit and count the allocations to see which
# path ran; a net below the gate is screened with the gate lowered.


def _dense_net(rng, n):
    """A dense random acyclic net: in a random order each cell routes to the
    next and to about half of the cells after it, so a column of P holds up
    to n - 1 claims, which the product and the claim loop sum in different
    orders."""
    order = rng.permutation(n)
    P = np.zeros((n, n))
    for k in range(n - 1):
        later = order[k + 1:]
        to = np.union1d(later[rng.random(len(later)) < 0.5], later[:1])
        w = rng.uniform(0.05, 1.0, len(to))
        P[order[k], to] = w * rng.uniform(0.5, 0.95) / w.sum()
    ref = presets.reference_diagrams()
    demands = tuple(ref.demands[int(k)] for k in rng.choice([0, 4], size=n))
    supplies = (SupplyFunction(qcap=presets.QCAP, a=presets.JAM),) * n
    spec = NetworkSpec(n=n, a=np.full(n, presets.JAM), P=P, Qexit=1.0 - P.sum(axis=1),
                       mu=np.full(n, presets.MU_MAIN), vmax=np.full(n, 20.0))
    return spec, DiagramSet(demands, supplies, ref.d_lo, ref.d_hi)


def _screen_nets():
    """Name -> (spec, diagrams, x*, v*): the corridors of 16 and 64 cells at
    their equilibrium, and dense random nets, which have none (x* and v*
    None)."""
    nets = {}
    for copies, seed in ((2, 3), (8, 11)):
        spec, ds = _corridor(copies, seed)
        vstar = np.empty(spec.n)
        vstar[np.random.default_rng(seed).permutation(spec.n)] = np.tile(
            presets.reference_vstar(), copies)
        nets[f"corridor of {copies} copies"] = (spec, ds, solve_uep(spec, ds, vstar).xstar,
                                                vstar)
    rng = np.random.default_rng(41)
    for k in range(3):
        nets[f"dense {k}"] = (*_dense_net(rng, 26 + 4 * k), None, None)
    return nets


SCREEN_NETS = _screen_nets()


def _allocations(monkeypatch):
    """A list that gains an entry at each `_allocate` call from now on."""
    calls, allocate = [], dynamics._allocate
    monkeypatch.setattr(dynamics, "_allocate", lambda *args: calls.append(1) or allocate(*args))
    return calls


def _gated(monkeypatch, spec, gate):
    """A fresh copy of `spec`, whose junction screen is decided under `gate`
    on first use."""
    monkeypatch.setattr(network, "SCREEN_CLAIMS", gate)
    return replace(spec)


def _screened(monkeypatch, name):
    """SCREEN_NETS[name], with the gate lowered below a narrower net."""
    spec, ds, xstar, vstar = SCREEN_NETS[name]
    if len(spec.claims) < network.SCREEN_CLAIMS:
        spec = _gated(monkeypatch, spec, 0)
    assert spec.junction_screen is not None
    return spec, ds, xstar, vstar


def _assert_step_is_the_reference(spec, ds, x, v, d):
    x_next, fb = step(spec, ds, x, v, d)
    want_x, want = oracles.step_reference(spec, ds, x, v, d)
    assert np.array_equal(x_next, want_x)
    for field in oracles.FLOW_FIELDS:
        assert np.array_equal(getattr(fb, field), want[field]), field
    return want


@pytest.mark.parametrize("name", SCREEN_NETS)
def test_screened_step_matches_the_reference(name, monkeypatch):
    """At x* (a light state on the dense nets, whose curves have no uniform
    equilibrium), at jam, near empty, with each source jammed below an
    inflow above its supply, and at random states, under every box corner
    and random d: x_next and every field equal `oracles.step_reference` bit
    for bit.  The equilibrium steps skip the allocation; jam allocates."""
    spec, ds, xstar, vstar = _screened(monkeypatch, name)
    calls = _allocations(monkeypatch)
    rng = np.random.default_rng(300 + len(name))
    n, a = spec.n, spec.a
    sources = [j for j, p in enumerate(spec.predecessors) if not p]
    if xstar is None:
        xstar, vstar = rng.uniform(0.0, 0.3, n) * spec.mu, np.zeros(n)
        vstar[sources] = 1.0
    jammed_sources = xstar.copy()
    jammed_sources[sources] = a[sources] - 0.01
    near_empty = rng.choice([0.0, 0.5 * DEMAND_FLOOR, DEMAND_FLOOR, 2 * DEMAND_FLOOR, 1e-9, 1e-6],
                            n)
    X, V, D = _states(spec, ds, rng, 24)
    states = [(xstar, vstar), (a, vstar), (near_empty, vstar), (jammed_sources, vstar),
              *zip(X[16:], V[16:])]
    allocated = []
    for x, v in states:
        before = len(calls)
        for d in D[:20]:
            _assert_step_is_the_reference(spec, ds, x, v, d)
        allocated.append(len(calls) - before)
    assert allocated[0] == 0 and allocated[1] == len(D[:20])


def _ulps(z, k):
    """z and the k floats on either side of it."""
    out, lo, hi = [z], z, z
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize("name", SCREEN_NETS)
def test_step_at_planted_junction_slack(name, monkeypatch):
    """Light states whose busiest junction j takes an inflow that puts its
    unthrottled inflow a few ulps either side of the screen's threshold
    c g_j, and either side of g_j itself, equal the reference bit for bit.
    The threshold plants run both paths.  Near g_j the dense nets hold a
    plant that a screen without margin would pass while the claim loop
    throttles, and a state whose product sums junction j's claims to
    another value than the loop's order does."""
    spec, ds, _, _ = _screened(monkeypatch, name)
    calls = _allocations(monkeypatch)
    rng = np.random.default_rng(400 + len(name))
    c, n = spec.junction_screen, spec.n
    j = int(np.argmax(np.count_nonzero(spec.P, axis=0)))
    claims = dict(spec.claims)[j]
    paths, unsafe, disagree = set(), 0, 0
    for _ in range(6):
        d = uniform_uncertainty(ds, 1, rng)[0]
        x = rng.uniform(0.0, 0.3, n) * spec.mu
        f, g = demand_all(ds, d, x), supply_all(ds, d, x)
        S = (f @ spec.P)[j]
        in_order = 0.0
        for i, p in claims:
            in_order += p * f[i]
        disagree += in_order != S
        for at_margin, y0 in ((True, c * g[j]), (False, g[j])):
            plants = {vj for y in _ulps(y0, 3) for vj in _ulps(y - S, 2) if vj >= 0.0}
            for vj in sorted(plants):
                v = np.zeros(n)
                v[j] = vj
                before = len(calls)
                want = _assert_step_is_the_reference(spec, ds, x, v, d)
                if at_margin:
                    paths.add(len(calls) == before)
                else:
                    unsafe += vj + S <= g[j] and want["s"].min() < 1.0
    assert paths == {True, False}
    if name.startswith("dense"):
        assert unsafe and disagree, (unsafe, disagree)


def _merge(P02, demand0):
    """Cells 1 and 2 merging into cell 3 (0-based 0, 1 -> 2), cell 1 routing
    P02 of its flow and taking the demand curve `demand0`."""
    ref = presets.reference_diagrams()
    P = np.zeros((3, 3))
    P[0, 2], P[1, 2] = P02, 1.0
    spec = NetworkSpec(n=3, a=np.full(3, presets.JAM), P=P, Qexit=1.0 - P.sum(axis=1),
                       mu=np.full(3, presets.MU_MAIN), vmax=np.full(3, 20.0))
    return spec, DiagramSet((demand0, ref.demands[0], ref.demands[0]), ref.supplies[:3],
                            ref.d_lo, ref.d_hi)


# -30 + 0.1 z: below 0 on the whole of [0, a] but the empty cell
DIPPING = DemandFunction(
    family="piecewise", a=presets.JAM, delta=presets.DELTA, delta_tilde=presets.DELTA,
    L=0.3, G=0.5, fmin=10.0, subcritical=(Piece(0.0, presets.DELTA, (-30.0, 0.1)),),
    overcritical=(Piece(presets.DELTA, presets.JAM, (-30.0, 0.1)),))


@pytest.mark.parametrize("P02, demand0", [(-1.0, presets.reference_diagrams().demands[0]),
                                          (1.0, DIPPING)], ids=["negative P", "dipping demand"])
def test_a_negative_claim_falls_back_to_the_loop(P02, demand0, monkeypatch):
    """Cell 2 claims more than the merge's room and is throttled; cell 1's
    claim, after it, is negative, through a negative turning rate or a
    demand below 0.  The sum of the claims clears the margin, so only the
    signs keep the step on the claim loop, with the gate lowered to 0."""
    spec, ds = _merge(P02, demand0)
    spec = _gated(monkeypatch, spec, 0)
    calls = _allocations(monkeypatch)
    x, v = np.array([40.0, 40.0, presets.JAM - 1.0]), np.zeros(3)
    for d in d_corners(ds):
        f, g = demand_all(ds, d, x), supply_all(ds, d, x)
        assert np.all(np.minimum(v, g) + f @ spec.P <= g)
        want = _assert_step_is_the_reference(spec, ds, x, v, d)
        assert want["s"][1] < 1.0
    assert len(calls) == len(d_corners(ds))
    assert (spec.junction_screen is None) == (P02 < 0)


def test_negative_supply_or_inflow_falls_back_to_the_loop(monkeypatch):
    """`compute_flows` takes states beyond a, where supply is negative, and
    negative inflows.  With cell j past a and v_j planted so that the
    unthrottled inflow clears the margin, the screen would pass where the
    loop throttles; the signs keep `compute_flows` on the loop, bit for bit
    with the same net's flows under a gate no net reaches."""
    spec, ds, _, _ = SCREEN_NETS["dense 0"]
    looped = _gated(monkeypatch, spec, math.inf)
    calls = _allocations(monkeypatch)
    rng = np.random.default_rng(17)
    c, n = spec.junction_screen, spec.n
    j = int(np.argmax(np.count_nonzero(spec.P, axis=0)))
    unsafe = 0
    for _ in range(4):
        d = uniform_uncertainty(ds, 1, rng)[0]
        x = rng.uniform(0.0, 0.3, n) * spec.mu
        x[j] = spec.a[j] + 200.0
        f, g = demand_all(ds, d, x), supply_all(ds, d, x)
        S = (f @ spec.P)[j]
        for vj in _ulps(c * g[j] - S, 4):
            v = np.zeros(n)
            v[j] = vj
            before = len(calls)
            fb, want = compute_flows(spec, ds, x, v, d), compute_flows(looped, ds, x, v, d)
            assert len(calls) == before + 2
            for field in oracles.FLOW_FIELDS:
                assert np.array_equal(getattr(fb, field), getattr(want, field)), field
            unsafe += vj + S <= c * g[j] and want.s.min() < 1.0
    assert g[j] < 0.0 and unsafe


def test_the_gate_decides_which_nets_screen(ref_spec, ref_ds, ref_eq, monkeypatch):
    """The benchmark's 6 junctions stay below the gate and allocate at x*
    too; the 64-cell corridor's 48 reach it and skip the allocation there."""
    calls = _allocations(monkeypatch)
    spec, ds, xstar, vstar = SCREEN_NETS["corridor of 8 copies"]
    d = 0.5 * (ds.d_lo + ds.d_hi)
    assert len(ref_spec.claims) < network.SCREEN_CLAIMS <= len(spec.claims)
    step(ref_spec, ref_ds, ref_eq.xstar, ref_eq.vstar, d)
    assert len(calls) == 1
    step(spec, ds, xstar, vstar, d)
    assert len(calls) == 1


def test_screened_breakdowns_share_no_array(monkeypatch):
    """On the screened path `outflow`, `attempted_demand` and `s` are three
    fresh arrays: writing into one leaves the others, the next step's
    breakdown and a record's mass balance unchanged."""
    spec, ds, xstar, vstar = SCREEN_NETS["corridor of 8 copies"]
    calls = _allocations(monkeypatch)
    d = 0.5 * (ds.d_lo + ds.d_hi)
    fields = ("outflow", "attempted_demand", "s")
    for name in fields:
        _, fb = step(spec, ds, xstar, vstar, d)
        kept = {other: getattr(fb, other).copy() for other in fields}
        getattr(fb, name)[:] = -1.0
        for other in set(fields) - {name}:
            assert np.array_equal(getattr(fb, other), kept[other])
        _, again = step(spec, ds, xstar, vstar, d)
        for other in fields:
            assert np.array_equal(getattr(again, other), kept[other])
    cfg = ScenarioConfig(x0=xstar, horizon=12,
                         disturbance=DisturbanceSpec(kind="uniform", seed=3),
                         control=ControlSpec(kind="open-loop", v=vstar))
    rec = run_scenario(spec, ds, cfg)
    residuals = mass_balance_residuals(rec)
    for fb in rec.flows:
        fb.attempted_demand[:] = -1.0
        fb.s[:] = -1.0
    assert np.array_equal(mass_balance_residuals(rec), residuals)
    assert not calls
