"""The curve-coefficient table and the single-row step against the pre-table
loop references in `oracles`, bit for bit.

`demand_batch` evaluates each built-in family with scalar coefficients,
`demand_all` every cell of one state with per-cell coefficient arrays, and
`step` runs on that row path.  None of it may move a bit of a demand value,
a flow field or a successor state.
"""

import numpy as np
import pytest

from netstab import presets
from netstab.diagrams import (DEMAND_FLOOR, DemandFunction, DiagramSet, Piece,
                              SupplyFunction, _demand_values, d_corners,
                              demand_all, demand_batch, uniform_uncertainty)
from netstab.dynamics import FlowBreakdown, step
from netstab.network import NetworkSpec

import oracles

FIELDS = tuple(FlowBreakdown.__dataclass_fields__)

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


def _benchmark(pinned=(), piecewise=()):
    """The 8-cell freeway; `pinned` cells fix their supply scale (`wave`) and
    `piecewise` cells take a user polynomial curve."""
    spec, ref = presets.reference_network(), presets.reference_diagrams()
    demands = tuple(PIECEWISE if k in piecewise else fd
                    for k, fd in enumerate(ref.demands))
    supplies = tuple(SupplyFunction(qcap=sf.qcap, a=sf.a, wave=0.27) if k in pinned
                     else sf for k, sf in enumerate(ref.supplies))
    return spec, DiagramSet(demands, supplies, ref.d_lo, ref.d_hi)


def _corridor(copies, seed):
    """`copies` disjoint freeways with cells relabelled by a seeded permutation."""
    spec8, ds8 = presets.reference_network(), presets.reference_diagrams()
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
            "benchmark, pinned waves": _benchmark(pinned=(0, 4, 7)),
            "benchmark, piecewise cell": _benchmark(pinned=(2,), piecewise=(2, 5)),
            "corridor of 3 copies": _corridor(3, 7),
            "corridor of 8 copies": _corridor(8, 11)}
    for k in range(6):
        nets[f"random {k}"] = _random_net(rng)
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
        for field in FIELDS:
            assert np.array_equal(getattr(fb, field), want[field]), field
