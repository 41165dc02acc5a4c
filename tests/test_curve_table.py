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

from netstab import diagrams, presets
from netstab.diagrams import (DEMAND_FLOOR, DemandFunction, DiagramSet, Piece,
                              SupplyFunction, _branch_pieces, _demand_values,
                              d_corners, demand_all, demand_batch, demand_cap,
                              uniform_uncertainty)
from netstab.dynamics import compute_flows, step
from netstab.errors import DomainError, NumericalError
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
