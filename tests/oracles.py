"""Independent reference implementations the tests compare the package against.

Everything here is written from scratch against the plain formulas — exact
rational arithmetic for the flow curves, dense eigensolves for spectral
radii, brute-force scans for orderings — so that each test pits two
independent code paths against each other rather than a function against
itself.
"""

from fractions import Fraction as Fr

import numpy as np

JAM = Fr(170)
QCAP = Fr(115)
DELTA = 55.0 + 2e-5  # branch threshold, compared in float like the package


def _phi1(z):
    return Fr(5, 11) * z


def _phi2(z):
    return -Fr(27, 6050) * z * z + Fr(7, 10) * z


def _phi3(z):
    return Fr(14, 3025) * z * z + Fr(1, 5) * z


def _phi4(z):
    if z <= Fr(55, 2):
        return -Fr(49, 3025) * z * z + Fr(9, 10) * z
    return -Fr(38, 3025) * z * z + Fr(82, 55) * z - 19


def _phi5(z):
    if z <= Fr(55, 2):
        return Fr(28, 3025) * z * z + Fr(1, 5) * z
    return Fr(21, 6050) * z * z + Fr(13, 220) * z + Fr(33, 4)


def _phi6(z):
    return -Fr(3, 23) * z + Fr(740, 23)


def _phi7(z):
    return Fr(83, 52900) * z * z - Fr(4471, 10580) * z + Fr(46019, 1058)


def demand_exact(kind: str, d, z):
    """Exact uncertain demand value at density z; kind is "main" or "ramp"."""
    d1, d2, d3 = (Fr(v) for v in d[:3])
    z = Fr(z)
    if float(z) <= DELTA:
        lo, hi = (_phi2, _phi3) if kind == "main" else (_phi4, _phi5)
        return d1 * _phi1(z) + d2 * (1 - d1) * lo(z) + (1 - d2) * (1 - d1) * hi(z)
    return d3 * _phi6(z) + (1 - d3) * _phi7(z)


def supply_exact(d4, z):
    return Fr(d4) * min(QCAP, JAM - Fr(z))


# hand-computed benchmark facts ------------------------------------------------

XSTAR = np.array([55.0, 55, 55, 55, 27.5, 27.5, 55, 55])
VSTAR = np.array([25.0, 0, 0, 0, 12.5, 0, 0, 0])
EQ_FLOWS = np.array([25.0, 25, 25, 25, 12.5, 12.5, 25, 25])
R_WEIGHTS = np.array([128.0, 64, 32, 16, 8, 4, 2, 1])
XI_WEIGHTS = np.array([1.0, 7.1, 50.41, 357.911, 1.0, 200.0,
                       4341.1681, 30822.29351])
RHO_CLOSED_FORM = 0.991  # 1 - min release rate over the eight cells


def spectral_radius_eig(M):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(M, dtype=float)))))


def is_topological(P, order):
    """True when `order` lists every cell once with senders before receivers."""
    n = len(P)
    if sorted(order) != list(range(n)):
        return False
    pos = {cell: k for k, cell in enumerate(order)}
    rows, cols = np.nonzero(np.asarray(P) > 0)
    return all(pos[i] < pos[j] for i, j in zip(rows, cols))


def random_acyclic_instance(rng, n_max=12):
    """Random routing matrix with row sums <= 1 plus release/inflow slopes."""
    n = int(rng.integers(2, n_max + 1))
    perm = rng.permutation(n)
    P = np.zeros((n, n))
    for a in range(n - 1):
        k = int(rng.integers(0, min(3, n - 1 - a) + 1))
        if k == 0:
            continue
        targets = rng.choice(np.arange(a + 1, n), size=k, replace=False)
        w = rng.uniform(0.05, 1.0, size=k)
        w *= rng.uniform(0.3, 1.0) / w.sum()
        P[perm[a], perm[targets]] = w
    L = rng.uniform(0.01, 0.95, size=n)
    G = rng.uniform(L, 1.0)
    return P, L, G


def spec_of(P):
    """A NetworkSpec around the routing matrix P.  The weights and Gamma read
    only its routing, so the other fields are placeholders: unit capacities
    and inflow bounds, threshold 0.5, exits closing each row."""
    from netstab.network import NetworkSpec

    P = np.asarray(P, dtype=float)
    n = len(P)
    return NetworkSpec(n=n, a=np.ones(n), P=P, Qexit=1.0 - P.sum(axis=1),
                       mu=np.full(n, 0.5), vmax=np.ones(n))


def flows_reference(spec, ds, x, v, d):
    """Plain-loop junction allocation, mirroring the documented discipline.

    External inflow is accepted first (charged against supply at its full
    requested size), then upstream senders claim the rest in descending cell
    order; each claimant consumes its full attempted share of the remaining
    supply whether or not it was granted in full.  Returns (outflow, inflow,
    w) like the package's flow breakdown.
    """
    import netstab

    n = spec.n
    f = np.array([netstab.eval_demand(ds.demands[i], d, x[i]) for i in range(n)])
    g = np.array([netstab.eval_supply(ds.supplies[i], d, x[i]) for i in range(n)])
    s = np.ones(n)
    for j in range(n):
        senders = [i for i in range(n) if spec.P[i, j] > 0]
        room = g[j] - v[j]
        for i in sorted(senders, reverse=True):
            want = spec.P[i, j] * f[i]
            if want > 1e-12:
                s[i] = min(s[i], max(0.0, room / want))
            room -= want
    s[(np.asarray(x) <= 0.0) | (f < 1e-12)] = 1.0
    accepted = np.minimum(v, g)
    w = np.ones(n)
    for j in range(n):
        if v[j] > 0:
            w[j] = accepted[j] / v[j]
    outflow = s * f
    inflow = accepted + outflow @ spec.P
    return outflow, inflow, w


# gamma-search references -------------------------------------------------------
# The drain-constant search as plain loops: the throttle bound junction by
# junction and claimant by claimant, supplies cell by cell, the seed cloud in
# one piece and the best seeds refined one after another.  The package batches
# all of these and must reproduce them bit for bit.

def supply_loop(ds, D, X):
    """Supplies cell by cell: (N, 4), (N, n) -> (N, n)."""
    out = np.empty(X.shape)
    for k, sf in enumerate(ds.supplies):
        scale = D[:, 3] if sf.wave is None else sf.wave
        out[:, k] = scale * np.minimum(sf.qcap, sf.a - X[:, k])
    return out


def stilde_bound_loop(spec, ds):
    """The throttle lower bound, one junction and one claimant at a time."""
    from netstab.diagrams import demand_batch

    P, a = spec.P, spec.a
    junctions = [(j, spec.predecessors[j]) for j in range(spec.n)
                 if spec.predecessors[j]]

    def bound(X, V, D):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        V = np.atleast_2d(np.asarray(V, dtype=float))
        D = np.atleast_2d(np.asarray(D, dtype=float))
        F = demand_batch(ds, D, X)
        Gm = supply_loop(ds, D, X)
        S = np.ones_like(F)
        for j, preds in junctions:
            rem = Gm[:, j] - V[:, j]
            for i in preds:
                frac = np.clip(rem / (P[i, j] * a[i]), 0.0, 1.0)
                np.minimum(S[:, i], frac, out=S[:, i])
                rem = rem - P[i, j] * F[:, i]
        return S

    return bound


def seed_cloud_reference(spec, ds, v_box, n_samples, seed):
    """(X, V, D) of the gamma search's seeds, stacked in one piece: every jam
    pattern (or 4096 random ones above 12 cells) x both inflow ends x all
    uncertainty corners, then a scrambled-Sobol cloud."""
    import math

    from scipy.stats import qmc

    from netstab.diagrams import d_corners

    n = spec.n
    if n <= 12:
        codes = np.arange(1, 2 ** n)
        patterns = (codes[:, None] >> np.arange(n)[None, :]) & 1
    else:
        rng = np.random.Generator(np.random.Philox(seed ^ 0x9E3779B9))
        patterns = rng.random((4096, n)) < 0.5
    X_pat = patterns * spec.a[None, :]
    V_opts = np.stack([np.zeros(n), v_box])
    D_crn = d_corners(ds)
    reps = len(V_opts) * len(D_crn)
    X_struct = np.repeat(X_pat, reps, axis=0)
    V_struct = np.tile(np.repeat(V_opts, len(D_crn), axis=0), (len(X_pat), 1))
    D_struct = np.tile(D_crn, (len(X_pat) * len(V_opts), 1))
    m = 2 ** max(1, math.ceil(math.log2(max(n_samples, 2))))
    u = qmc.Sobol(d=2 * n + 4, scramble=True, seed=seed).random_base2(int(math.log2(m)))
    X_all = np.vstack([X_struct, u[:, :n] * spec.a[None, :]])
    V_all = np.vstack([V_struct, u[:, n:2 * n] * v_box[None, :]])
    D_all = np.vstack([D_struct, ds.d_lo + u[:, 2 * n:] * (ds.d_hi - ds.d_lo)])
    return X_all, V_all, D_all


def gamma_search_reference(spec, ds, r, stilde=None, n_samples=100_000, seed=0,
                           refine_top=8, refine_sweeps=3):
    """(gamma, argmin, n_evaluated) of the sampled drain-constant search.

    Same seeds, weights and refinement rule as `drain_constants`, with the
    bound evaluated on the whole seed cloud at once and each seed refined
    by its own coordinate scans of 33 grid points per zoom level.  A
    stand-in bound `stilde` is driven like the search drives the built-in
    one, through `allocate` on the curves of whole rows; without one, the
    junction loop `stilde_bound_loop` bounds the rows.  Every row is weighed
    and the mass floor applied after, as in `stability._ratios`.
    """
    from netstab.diagrams import demand_batch, supply_batch

    n = spec.n
    caps = np.minimum(spec.vmax, [
        (ds.d_lo[3] if sf.wave is None else sf.wave) * min(sf.qcap, sf.a)
        for sf in ds.supplies])
    eps_tilde = 0.5 * float(caps.min())
    v_box = caps - eps_tilde
    mass_floor = min(min(fd.delta for fd in ds.demands), eps_tilde / (2.0 * n))
    if stilde is None:
        sbound = stilde_bound_loop(spec, ds)
    else:
        def sbound(X, V, D):
            return stilde.allocate(demand_batch(ds, D, X), supply_batch(ds, D, X), V)

    def ratios(X, V, D):
        S = sbound(X, V, D)
        den = X @ r
        num = (S * X) @ r
        out = np.full(len(X), np.inf)
        ok = (X.sum(axis=1) >= mass_floor) & (den > 0)
        out[ok] = num[ok] / den[ok]
        return out

    X_all, V_all, D_all = seed_cloud_reference(spec, ds, v_box, n_samples, seed)
    vals = ratios(X_all, V_all, D_all)
    n_evaluated = int(np.isfinite(vals).sum())

    best_idx = np.argsort(vals, kind="stable")[:refine_top]  # equal ratios in row order
    incumbent = (float(vals[best_idx[0]]), X_all[best_idx[0]].copy(),
                 V_all[best_idx[0]].copy(), D_all[best_idx[0]].copy())

    def refine(x0, v0, d0, val0):
        pt = {"x": x0.copy(), "v": v0.copy(), "d": d0.copy()}
        val = val0

        def scan(kind, idx, lo_full, hi_full):
            nonlocal val
            lo, hi = lo_full, hi_full
            for _ in range(3):
                ts = np.linspace(lo, hi, 33)
                grid = {key: np.tile(p, (33, 1)) for key, p in pt.items()}
                grid[kind][:, idx] = ts
                cand = ratios(grid["x"], grid["v"], grid["d"])
                k = int(np.argmin(cand))
                if cand[k] < val:
                    val = float(cand[k])
                    pt[kind][idx] = ts[k]
                span = (hi - lo) / 32
                lo = max(lo_full, ts[k] - span)
                hi = min(hi_full, ts[k] + span)

        for _ in range(refine_sweeps):
            for i in range(n):
                scan("x", i, 0.0, float(spec.a[i]))
            for i in range(n):
                scan("v", i, 0.0, float(v_box[i]))
            for k in range(4):
                scan("d", k, float(ds.d_lo[k]), float(ds.d_hi[k]))
        return val, pt["x"], pt["v"], pt["d"]

    for idx in best_idx:
        if not np.isfinite(vals[idx]):
            continue
        val, x, v, d = refine(X_all[idx], V_all[idx], D_all[idx], float(vals[idx]))
        if val < incumbent[0]:
            incumbent = (val, x, v, d)
    gamma, x, v, d = incumbent
    return gamma, {"x": x, "v": v, "d": d, "ratio": gamma}, n_evaluated


# pre-table row references ------------------------------------------------------
# The demand families as they were written before the coefficient table (one
# float function per base curve, the blend spelled out per family, one batch
# column group per family) and the one-step update built on them.  The table,
# its blend and the single-row step must reproduce these bit for bit.

def _phi1_f(z):
    return (5.0 / 11.0) * z


def _phi2_f(z):
    return -(13.5 / 3025.0) * z * z + 0.7 * z


def _phi3_f(z):
    return (14.0 / 3025.0) * z * z + 0.2 * z


def _phi4_f(z):
    lo = -(49.0 / 3025.0) * z * z + 0.9 * z
    hi = -(38.0 / 3025.0) * z * z + (82.0 / 55.0) * z - 19.0
    return np.where(z <= 27.5, lo, hi)


def _phi5_f(z):
    lo = (7.0 / 756.25) * z * z + 0.2 * z
    hi = (21.0 / 6050.0) * z * z + (71.5 / 1210.0) * z + 8.25
    return np.where(z <= 27.5, lo, hi)


def _phi6_f(z):
    return -(3.0 / 23.0) * z + 740.0 / 23.0


def _phi7_f(z):
    return (83.0 / 52900.0) * z * z - (4471.0 / 10580.0) * z + 46019.0 / 1058.0


FLOOR = 1e-12  # densities below this are empty cells


def demand_values_reference(fd, d1, d2, d3, z):
    """One curve's demand, branch by branch, broadcasting d-weights over z."""
    from netstab.diagrams import _eval_pieces

    z = np.asarray(z, dtype=float)
    if fd.family == "piecewise":
        sub = _eval_pieces(fd.subcritical, np.minimum(z, fd.delta))
        over = _eval_pieces(fd.overcritical, np.maximum(z, fd.delta))
    else:
        w2 = d2 * (1.0 - d1)
        w3 = (1.0 - d2) * (1.0 - d1)
        if fd.family == "freeway-main":
            sub = d1 * _phi1_f(z) + w2 * _phi2_f(z) + w3 * _phi3_f(z)
        else:
            sub = d1 * _phi1_f(z) + w2 * _phi4_f(z) + w3 * _phi5_f(z)
        over = d3 * _phi6_f(z) + (1.0 - d3) * _phi7_f(z)
    return np.where(z < FLOOR, 0.0, np.where(z <= fd.delta, sub, over))


def demand_batch_reference(ds, D, X):
    """Demand of a batch, one column group per built-in family: (N, 4), (N, n)."""
    out = np.empty(X.shape)
    d1, d2, d3 = D[:, 0:1], D[:, 1:2], D[:, 2:3]
    for fam, lo, hi in (("freeway-main", _phi2_f, _phi3_f),
                        ("freeway-onramp", _phi4_f, _phi5_f)):
        idx = np.array([k for k, fd in enumerate(ds.demands) if fd.family == fam],
                       dtype=int)
        if idx.size == 0:
            continue
        z = X[:, idx]
        w2 = d2 * (1.0 - d1)
        w3 = (1.0 - d2) * (1.0 - d1)
        sub = d1 * _phi1_f(z) + w2 * lo(z) + w3 * hi(z)
        over = d3 * _phi6_f(z) + (1.0 - d3) * _phi7_f(z)
        delta = np.array([ds.demands[k].delta for k in idx])
        out[:, idx] = np.where(z <= delta, sub, over)
    for k, fd in enumerate(ds.demands):
        if fd.family == "piecewise":
            out[:, k] = demand_values_reference(fd, d1[:, 0], d2[:, 0], d3[:, 0], X[:, k])
    out[X < FLOOR] = 0.0
    return out


# the public fields of the package's FlowBreakdown
FLOW_FIELDS = ("outflow", "inflow", "exit", "s", "w", "attempted_demand")


def step_reference(spec, ds, x, v, d):
    """(x_next, flow fields) of one step as one batch row, claimant by claimant.

    The fields are the FLOW_FIELDS of the package's FlowBreakdown, keyed by
    name.
    """
    n = spec.n
    x = np.clip(np.asarray(x, dtype=float), 0.0, spec.a)
    v = np.asarray(v, dtype=float)
    D = np.asarray(d, dtype=float)[None, :]
    f = demand_batch_reference(ds, D, x[None, :])[0]
    g = supply_loop(ds, D, x[None, :])[0]
    s = np.ones(n)
    for j, preds in enumerate(spec.predecessors):
        if not preds:
            continue
        rem = g[j] - v[j]
        for i in preds:
            cap = spec.P[i, j] * f[i]
            if cap > FLOOR:
                ratio = rem / cap
                if ratio < s[i]:
                    s[i] = max(0.0, ratio)
            rem -= cap
    s[(x <= 0.0) | (f < FLOOR)] = 1.0
    outflow = s * f
    accepted = np.minimum(v, g)
    fields = {
        "outflow": outflow,
        "inflow": accepted + outflow @ spec.P,
        "exit": spec.Qexit * outflow,
        "s": s,
        "w": np.divide(accepted, v, out=np.ones(n), where=v > 0),
        "attempted_demand": f,
    }
    x_next = x - outflow + fields["inflow"]
    return np.clip(x_next, 0.0, spec.a), fields


def eager_mass_balance(spec, ds, record):
    """(w, exit, residuals) of a run as the step computed w and exit for
    every breakdown before they were derived on demand: w from the supply at
    each recorded state, stacked per step, then the conservation error."""
    from netstab.diagrams import supply_all

    T, n = record.horizon, spec.n
    w, exit_flow = [], []
    for t, fb in enumerate(record.flows):
        v = record.inflows[t]
        accepted = np.minimum(v, supply_all(ds, record.disturbances[t], record.states[t]))
        w.append(np.divide(accepted, v, out=np.ones(n), where=v > 0))
        exit_flow.append(spec.Qexit * fb.outflow)
    w = np.array(w).reshape(T, n)
    exit_flow = np.array(exit_flow).reshape(T, n)
    mass = record.states.sum(axis=1)
    accepted = (w * record.inflows[:T]).sum(axis=1)
    return w, exit_flow, np.abs(np.diff(mass) - accepted + exit_flow.sum(axis=1))


# sampled curve audits ------------------------------------------------------------
# The audits as they were before they read their worst cases off the curve
# pieces and the box corners: secant slopes on a density grid crossed with
# low-discrepancy blend weights, and a supply margin over corners, Sobol' d
# samples and a random (x, d) cloud.  A sampled extreme can only be less
# extreme than the exact one, so the exact audits are checked against them.

AUDIT_GRID = 512       # densities per branch in a demand audit
AUDIT_D_SAMPLES = 64   # low-discrepancy d samples per audit (a power of two)
AUDIT_X_SAMPLES = 4096  # random (x, d) states in the supply-margin audit


def sample_uncertainty(ds, m: int, seed: int = 0) -> np.ndarray:
    """The 16 corners of the uncertainty box, then m - 16 low-discrepancy
    samples of d: the first Sobol points of one power-of-two draw, scaled
    into the box."""
    from netstab.diagrams import _D_DIM, d_corners
    from netstab.sobol import Sobol

    corners = d_corners(ds)
    k = m - len(corners)
    if k < 0:
        raise ValueError(f"need m >= {len(corners)} to include all corners, got {m}")
    u = Sobol(_D_DIM, seed).random(1 << (k - 1).bit_length())[:k]
    return np.vstack([corners, ds.d_lo + u * (ds.d_hi - ds.d_lo)])


def audit_demand_curve_sampled(fd, seed: int = 0):
    """Audit increase/sector/floor/strict-bound behavior of a demand curve.

    Sampling-based: AUDIT_GRID densities per branch crossed with the corners
    and AUDIT_D_SAMPLES low-discrepancy blend weights of [0,1]^3.
    Reports the tightest empirical constants next to the declared ones.
    """
    import itertools
    import math

    from netstab.diagrams import DemandAudit, _demand_values
    from netstab.sobol import Sobol

    if fd.family == "piecewise":
        dmat = np.zeros((1, 3))
    else:
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
        dmat = np.vstack([corners, Sobol(3, seed).random(AUDIT_D_SAMPLES)])
    d1, d2, d3 = (dmat[:, k:k + 1] for k in range(3))

    zs = np.linspace(0.0, fd.delta, AUDIT_GRID)
    f_sub = _demand_values(fd, d1, d2, d3, zs[None, :])
    df = np.diff(f_sub, axis=1)
    slopes = df / np.diff(zs)
    monotone_ok = bool((df > 0).all())
    # two-point slopes over a sorted grid: adjacent pairs attain the extremes
    tilde = zs[1:] <= fd.delta_tilde + 1e-12
    L_hat = float(slopes[:, tilde].min()) if tilde.any() else math.inf
    G_hat = float(slopes.max())
    sector_ok = bool(L_hat >= fd.L - 1e-9 and G_hat <= fd.G + 1e-9)

    zo = np.linspace(fd.delta, fd.a, AUDIT_GRID)
    f_over = _demand_values(fd, d1, d2, d3, zo[None, :])
    fmin_hat = float(f_over.min())
    fmin_ok = bool(fmin_hat >= fd.fmin - 1e-9)

    z_all = np.concatenate([zs[1:], zo])
    f_all = np.hstack([f_sub[:, 1:], f_over])
    strict_bound_ok = bool((f_all > 0).all() and (f_all < z_all[None, :]).all())

    return DemandAudit(monotone_ok, sector_ok, fmin_ok, strict_bound_ok,
                    L_hat, G_hat, fmin_hat)


def audit_supply_margin_sampled(spec, ds, seed: int = 0):
    """Check v_max + routed demand <= supply for all sampled x <= mu, d in D.

    Both demand and supply are monotone in x, so the honest worst case sits
    at x = mu exactly; that slice is swept against all box corners and a
    low-discrepancy d-sample, then a random (x, d) cloud fills in the rest.
    Slack slightly below zero (within SUPPLY_TOL) still passes: instances built
    with deliberate epsilon padding of mu sit a hair past exact equality.
    """
    from netstab.diagrams import (_D_DIM, SUPPLY_TOL, SupplyMarginAudit, _philox,
                                  demand_batch, supply_batch, uniform_uncertainty)

    n = spec.n
    dmat = sample_uncertainty(ds, 2 ** _D_DIM + AUDIT_D_SAMPLES, seed)
    X_mu = np.tile(spec.mu, (len(dmat), 1))

    rng = _philox(seed)
    D_rand = uniform_uncertainty(ds, AUDIT_X_SAMPLES, rng)
    X_rand = rng.uniform(size=(AUDIT_X_SAMPLES, n)) * spec.mu

    D_all = np.vstack([dmat, D_rand])
    X_all = np.vstack([X_mu, X_rand])
    F = demand_batch(ds, D_all, X_all)
    Gs = supply_batch(ds, D_all, X_all)
    slack = Gs - spec.vmax[None, :] - F @ spec.P  # (N, n); col j gets sum_i P[i,j] f_i
    flat = int(np.argmin(slack))
    row, cell = divmod(flat, n)
    return SupplyMarginAudit(
        min_slack=float(slack.flat[flat]),
        worst_cell=cell,
        worst_d=D_all[row].copy(),
        passed=bool(slack.flat[flat] >= -SUPPLY_TOL),
    )


def contraction_reference(spec, ds, controller, cert, n_samples: int, seed: int = 0) -> float:
    """The contraction check's worst gap from whole arrays: every successor,
    then both stacked Lyapunov maps, then one Gamma @ v per sample, stacked,
    as `stability.contraction_check` computed it before it worked in chunks."""
    import math

    from netstab.control import control_law
    from netstab.diagrams import _philox, uniform_uncertainty
    from netstab.dynamics import step
    from netstab.stability import lyapunov_eval

    rng = _philox(seed)
    beta = np.asarray(cert.beta, dtype=float)
    Gamma = np.asarray(cert.Gamma, dtype=float)
    X = rng.uniform(0.0, beta, size=(n_samples, spec.n))
    D = uniform_uncertainty(ds, n_samples, rng)
    X_next = np.empty_like(X)
    for k, (x, d) in enumerate(zip(X, D)):
        X_next[k], _ = step(spec, ds, x, control_law(controller, x), d)
    V = lyapunov_eval(X, controller.xstar)
    V_next = lyapunov_eval(X_next, controller.xstar)
    gap = V_next - np.array([Gamma @ vk for vk in V]).reshape(V.shape)
    return float(gap.max(initial=-math.inf))


def uep_xstar_reference(spec, ds, vstar) -> np.ndarray:
    """x* of `equilibrium.solve_uep` with one bisection per cell, as it
    solved before equal (curve, throughput) pairs shared one: the throughput
    of each cell by forward substitution, then its demand curve at the
    midpoint disturbance bisected down to BISECTION_TOL."""
    from netstab.diagrams import _demand_values
    from netstab.equilibrium import BISECTION_TOL, equilibrium_flows

    F = equilibrium_flows(spec, np.asarray(vstar, dtype=float))
    d1, d2, d3, _ = 0.5 * (ds.d_lo + ds.d_hi)
    xstar = np.zeros(spec.n)
    for i, fd in enumerate(ds.demands):
        if F[i] <= 0.0:
            continue
        lo, hi = 0.0, fd.delta
        while hi - lo > BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            if _demand_values(fd, d1, d2, d3, mid) < F[i]:
                lo = mid
            else:
                hi = mid
        xstar[i] = 0.5 * (lo + hi)
    return xstar
