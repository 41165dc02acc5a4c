import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstab.control import (ControllerConfig, control_law,
                             controller_from_dict, load_controller,
                             save_controller, synthesize, uniform_gain)
from netstab.errors import DimensionError

import oracles


def test_law_equals_vstar_at_or_below_equilibrium(bench_ctrl, ref_eq):
    np.testing.assert_array_equal(control_law(bench_ctrl, ref_eq.xstar),
                                  bench_ctrl.vstar)
    below = ref_eq.xstar - 5.0
    np.testing.assert_array_equal(control_law(bench_ctrl, below),
                                  bench_ctrl.vstar)


def test_law_saturates_exactly(bench_ctrl):
    jam = np.full(8, 170.0)
    np.testing.assert_array_equal(control_law(bench_ctrl, jam), bench_ctrl.b)


def test_law_interpolates_on_the_ramp(bench_ctrl, ref_eq):
    """Ten excess vehicles: load = 0.016 * 10 / 0.5 = 0.32."""
    x = np.array(ref_eq.xstar)
    x[7] += 10.0
    v = control_law(bench_ctrl, x)
    assert v[0] == pytest.approx(25.0 - 24.5 * 0.32)   # 17.16
    assert v[4] == pytest.approx(12.5 - 12.0 * 0.32)   # 8.66
    assert np.all(v[[1, 2, 3, 5, 6, 7]] == 0.0)


def test_law_reads_the_cached_span_bit_for_bit(bench_ctrl):
    """The config caches v* - b once; the law gives the bits of recomputing
    it on every call, and the cache is neither shown nor compared."""
    rng = np.random.default_rng(4)
    X = bench_ctrl.xstar + rng.uniform(-5.0, 3.0, (200, 8)) * (rng.random((200, 8)) < 0.3)
    for x in X:
        excess = np.maximum(x - bench_ctrl.xstar, 0.0)
        load = (bench_ctrl.K @ excess) / bench_ctrl.tau
        ramp = bench_ctrl.vstar - (bench_ctrl.vstar - bench_ctrl.b) * load
        want = np.where(load >= 1.0, bench_ctrl.b, np.where(load <= 0.0, bench_ctrl.vstar, ramp))
        assert np.array_equal(control_law(bench_ctrl, x), want)
    assert np.array_equal(bench_ctrl.span, bench_ctrl.vstar - bench_ctrl.b)
    assert not bench_ctrl.span.flags.writeable
    assert "span" not in repr(bench_ctrl)
    with pytest.raises(TypeError):
        ControllerConfig(bench_ctrl.xstar, bench_ctrl.vstar, bench_ctrl.b, bench_ctrl.K,
                         bench_ctrl.tau, span=bench_ctrl.span)


def test_deficits_do_not_reduce_inflow(bench_ctrl, ref_eq):
    """Only excess above x* loads the law; shortage elsewhere never offsets it."""
    x = np.array(ref_eq.xstar)
    x[7] += 10.0
    x[0] = 0.0
    v_mixed = control_law(bench_ctrl, x)
    x2 = np.array(ref_eq.xstar)
    x2[7] += 10.0
    np.testing.assert_array_equal(v_mixed, control_law(bench_ctrl, x2))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 170), min_size=8, max_size=8))
def test_law_stays_in_its_box(x):
    from netstab import presets
    eq_x = np.array([55.0, 55, 55, 55, 27.5, 27.5, 55, 55])
    cfg = presets.experiment_controller(eq_x)
    v = control_law(cfg, np.array(x))
    assert np.all(v >= cfg.b - 1e-15) and np.all(v <= cfg.vstar + 1e-15)


def test_law_is_monotone_in_each_excess(bench_ctrl, ref_eq):
    x = np.array(ref_eq.xstar) + 2.0
    base = control_law(bench_ctrl, x)
    for i in range(8):
        bumped = np.array(x)
        bumped[i] += 5.0
        v = control_law(bench_ctrl, bumped)
        assert np.all(v <= base + 1e-12)


def test_config_validation(ref_eq):
    xstar = ref_eq.xstar
    vstar = ref_eq.vstar
    good = dict(xstar=xstar, vstar=vstar, b=np.zeros(8),
                K=np.zeros((8, 8)), tau=0.5)
    ControllerConfig(**good)
    with pytest.raises(ValueError, match="tau"):
        ControllerConfig(**{**good, "tau": 1.0})
    with pytest.raises(ValueError, match="floor"):
        ControllerConfig(**{**good, "b": vstar + 1.0})
    with pytest.raises(ValueError, match="nonnegative"):
        ControllerConfig(**{**good, "K": np.full((8, 8), -0.1)})
    with pytest.raises(DimensionError):
        ControllerConfig(**{**good, "K": np.zeros((3, 3))})
    # a NaN or an infinity fails every check and is named by its field
    for name in ("xstar", "vstar", "b", "K"):
        for bad in (np.nan, np.inf):
            arr = np.array(good[name], dtype=float)
            arr.flat[1] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                ControllerConfig(**{**good, name: arr})
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau"):
            ControllerConfig(**{**good, "tau": bad})


def test_uniform_gain_saturates_just_outside_the_box():
    beta = np.array([2.0, 3.0])
    xstar = np.array([1.0, 1.0])
    k = uniform_gain(beta, xstar)
    assert k == pytest.approx(1.0)
    with pytest.raises(ValueError):
        uniform_gain(np.array([1.0, 3.0]), xstar)


def test_synthesized_floor_respects_the_drain_budget(ref_spec, ref_eq, ref_cert):
    cfg = synthesize(ref_spec, ref_eq, ref_cert.r, ref_cert.drain.C, ref_cert.beta)
    r = ref_cert.r
    assert float(r @ cfg.b) <= ref_cert.drain.C * float((r * ref_eq.xstar).min()) * (1 + 1e-12)
    assert np.all(cfg.b >= 0) and np.all(cfg.b <= cfg.vstar)
    assert np.all(cfg.K == cfg.K[0, 0])
    # outside the certified box the law must be pinned at the floor
    x = np.array(ref_eq.xstar)
    x[7] = ref_cert.beta[7] + 1e-4
    np.testing.assert_array_equal(control_law(cfg, x), cfg.b)


def test_controller_round_trip(tmp_path, bench_ctrl):
    path = tmp_path / "controller.json"
    save_controller(bench_ctrl, path)
    again = load_controller(path, 8)
    np.testing.assert_array_equal(again.b, bench_ctrl.b)
    np.testing.assert_array_equal(again.K, bench_ctrl.K)
    assert again.tau == bench_ctrl.tau

    doc = json.loads(path.read_text())
    doc["gain_schedule"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown"):
        load_controller(path, 8)


def test_controller_from_dict_accepts_flat_gain(ref_eq):
    doc = {
        "xstar": list(ref_eq.xstar),
        "vstar": list(ref_eq.vstar),
        "b": [0.0] * 8,
        "K": [0.01] * 64,
        "tau": 0.5,
    }
    cfg = controller_from_dict(doc, 8)
    assert cfg.K.shape == (8, 8)
    doc.pop("tau")
    with pytest.raises(ValueError, match="missing"):
        controller_from_dict(doc, 8)


def _random_controller(kind, n, rng):
    """A uniform gain that saturates just outside a random box, or random
    nonnegative K, around a random x*."""
    xstar = rng.uniform(1.0, 60.0, n)
    vstar = rng.uniform(0.0, 25.0, n)
    vstar[rng.random(n) < 0.3] = 0.0
    b = vstar * rng.uniform(0.0, 1.0, n)
    if kind == "uniform":
        K = np.full((n, n), uniform_gain(xstar + rng.uniform(0.5, 20.0, n), xstar))
    else:
        K = rng.uniform(0.0, 0.05, (n, n)) * (rng.random((n, n)) < 0.5)
    return ControllerConfig(xstar, vstar, b, K, float(rng.uniform(0.05, 0.95)))


def _stack_states(cfg, rng, N):
    """N states: below x*, on the ramp, saturated, at x* exactly, and mixed
    rows whose cells fall in different regimes."""
    n, tau = cfg.n, cfg.tau
    X = np.empty((N, n))
    for k in range(N):
        kind = k % 5
        if kind == 0:
            X[k] = cfg.xstar - rng.uniform(0.0, 1.0, n) * cfg.xstar
        elif kind == 3:
            X[k] = cfg.xstar
        else:
            e = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.6)
            peak = float((cfg.K @ e).max()) / tau
            # the ramp keeps every load below 1; saturation pushes it past
            scale = rng.uniform(0.05, 0.95) if kind == 1 else rng.uniform(1.5, 50.0)
            X[k] = cfg.xstar + (e * scale / peak if peak > 0 else e)
            if kind == 4:
                below = rng.random(n) < 0.4
                X[k, below] = cfg.xstar[below] * rng.uniform(0.0, 1.0, below.sum())
    return X


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["hand-tuned", "synthesized", "uniform", "random"]),
       n=st.sampled_from([1, 8, 64]), N=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_law_on_a_stack_equals_one_call_per_row(bench_ctrl, ref_cert, kind, n, N, seed):
    """A stack of states gets each row's own bits, signed zeros included,
    and the bits of the reference law: the benchmark's hand-tuned and
    synthesized controllers (n = 8), and uniform and random gains at n = 1,
    8 and 64."""
    rng = np.random.default_rng(seed)
    cfg = {"hand-tuned": bench_ctrl, "synthesized": ref_cert.controller}.get(kind) \
        or _random_controller(kind, n, rng)
    n = cfg.n
    X = _stack_states(cfg, rng, N)
    got = control_law(cfg, X)
    want = np.array([control_law(cfg, x) for x in X])
    assert got.shape == (N, n)
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == oracles.control_law_reference(cfg, X).tobytes()


def test_law_on_a_stack_reaches_every_regime(bench_ctrl, ref_cert):
    """The stacked states above meet v* below x*, b when saturated and values
    strictly between on the ramp, for each benchmark controller."""
    rng = np.random.default_rng(2)
    for cfg in (bench_ctrl, ref_cert.controller):
        V = control_law(cfg, _stack_states(cfg, rng, 50))
        metered = cfg.vstar > cfg.b
        assert np.array_equal(V[0::5], np.broadcast_to(cfg.vstar, V[0::5].shape))
        assert np.array_equal(V[3::5], np.broadcast_to(cfg.vstar, V[3::5].shape))
        assert np.array_equal(V[2::5], np.broadcast_to(cfg.b, V[2::5].shape))
        ramp = V[1::5][:, metered]
        assert ((ramp > cfg.b[metered]) & (ramp < cfg.vstar[metered])).any()


def test_law_just_above_the_equilibrium_is_on_the_ramp(bench_ctrl, ref_cert):
    """States a few ulps above x*, whose loads are positive but far below 1:
    every metered cell with a load gets a ramp value below v*, not v*
    itself, with the bits of the reference law, one state at a time and
    stacked.  The random gain has every third row zero, so those cells keep
    v* beside ramp cells in one state; their v* is -0.0 over a floor of
    0.0, where the ramp v* - (v* - b) * 0 would give +0.0."""
    rand = _random_controller("random", 64, np.random.default_rng(8))
    K, vstar, b = np.array(rand.K), np.array(rand.vstar), np.array(rand.b)
    K[::3], vstar[::3], b[::3] = 0.0, -0.0, 0.0
    rand = ControllerConfig(rand.xstar, vstar, b, K, rand.tau)
    for cfg in (bench_ctrl, ref_cert.controller, rand):
        X = cfg.xstar + np.array([1.0, 2.0, 16.0, 1024.0])[:, None] * np.spacing(cfg.xstar)
        V = control_law(cfg, X)
        assert V.tobytes() == oracles.control_law_reference(cfg, X).tobytes()
        assert V.tobytes() == np.array([control_law(cfg, x) for x in X]).tobytes()
        ramp = (cfg.vstar > cfg.b) & ((X - cfg.xstar) @ cfg.K.T > 0.0)
        assert ramp.any() and (V[ramp] < np.broadcast_to(cfg.vstar, V.shape)[ramp]).all()
    assert np.signbit(V[:, ::3]).all()


def test_law_returns_a_fresh_writable_array(bench_ctrl, ref_cert):
    """In every regime, on one state and on stacks (one of rows at or below
    x* only, one of saturated rows): the result is writable and shares
    memory with neither x nor the controller's arrays, so writing into it
    changes no later call."""
    rng = np.random.default_rng(5)
    for cfg in (bench_ctrl, ref_cert.controller):
        X = _stack_states(cfg, rng, 10)
        want = oracles.control_law_reference(cfg, X)
        for x in (*X, X, X[[0, 3, 5, 8]], X[[2, 7]]):
            v = control_law(cfg, x)
            assert v.flags.writeable
            for other in (x, cfg.xstar, cfg.vstar, cfg.b, cfg.span):
                assert not np.shares_memory(v, other)
            v[...] = -1.0
        assert control_law(cfg, X).tobytes() == want.tobytes()
        assert np.array_equal(cfg.span, cfg.vstar - cfg.b)


def test_law_on_a_stack_below_the_equilibrium_gives_vstar_per_row(bench_ctrl, ref_cert):
    """Every row at or below x*, so no load anywhere: each row is v*, as one
    call per row and the reference law give it, for leading axes of any
    shape, the zeros of the hand-tuned v* included."""
    rng = np.random.default_rng(7)
    for cfg in (bench_ctrl, ref_cert.controller, _random_controller("random", 64, rng)):
        X = cfg.xstar * rng.uniform(0.0, 1.0, (3, 7, cfg.n))
        X[0, 0] = cfg.xstar
        V = control_law(cfg, X)
        assert V.shape == X.shape
        assert V.tobytes() == np.array([[control_law(cfg, x) for x in row]
                                        for row in X]).tobytes()
        assert V.tobytes() == oracles.control_law_reference(cfg, X).tobytes()
        assert V.tobytes() == np.broadcast_to(cfg.vstar, X.shape).tobytes()


def test_law_gives_nan_on_a_nan_state(bench_ctrl, ref_cert):
    """A NaN density makes the loads NaN, and the law returns NaN there as
    the reference law does, on one state and in a stack whose other rows
    (saturated ones among them) keep their own bits."""
    rng = np.random.default_rng(6)
    for cfg in (bench_ctrl, ref_cert.controller):
        X = _stack_states(cfg, rng, 10)
        X[[1, 2, 4], rng.integers(0, cfg.n, 3)] = np.nan
        V = control_law(cfg, X)
        assert V.tobytes() == oracles.control_law_reference(cfg, X).tobytes()
        assert np.isnan(V[[1, 2, 4]]).any(axis=1).all() and not np.isnan(V[[0, 3, 7]]).any()
        for x, v in zip(X, V):
            assert control_law(cfg, x).tobytes() == v.tobytes()


def _boundary_cases(rng):
    """(controller, stack) pairs at the edge of the law's first count:
    states whose excess entries are exactly 0.0 or -0.0, NaN rows among
    rows at or below x*, and a nonnegative K with a zero row and a zero
    column, so an excess in that column gives every load zero."""
    cfg = _random_controller("random", 8, rng)
    xstar = np.array(cfg.xstar)
    xstar[[1, 6]] = 0.0
    cfg = ControllerConfig(xstar, cfg.vstar, cfg.b, cfg.K, cfg.tau)
    at = np.tile(cfg.xstar, (6, 1))
    at[1, [1, 6]] = -0.0              # -0.0 - 0.0 is an excess of -0.0
    at[2] = cfg.xstar * rng.uniform(0.0, 1.0, 8)
    at[3, [1, 6]] = -0.0
    at[4, 0] = np.nan                 # the other entries stay at x*
    at[5, 3] = np.nan
    K = rng.uniform(0.01, 0.05, (8, 8))
    K[2], K[:, 5] = 0.0, 0.0
    missed = ControllerConfig(cfg.xstar, cfg.vstar, cfg.b, K, cfg.tau)
    off = np.tile(cfg.xstar, (4, 1))
    off[0, 5] += 3.0                  # excess only where K's column is zero
    off[1, 5] = np.nan
    off[2, [2, 5]] += 1.0             # cell 3's zero row keeps v* beside the ramp
    off[3] = cfg.xstar * 0.5
    return (cfg, at), (missed, off)


def test_law_on_the_boundary_of_its_first_count_matches_the_reference():
    """Excess entries of exactly 0.0 or -0.0 give v* with no product; a NaN
    row still reaches the loads and gives NaN as the reference law does;
    and a nonzero excess that K's rows miss gives zero loads, so v*.  One
    state at a time, as a stack and as stacks of two rows, bit for bit."""
    cases = _boundary_cases(np.random.default_rng(9))
    for cfg, X in cases:
        want = oracles.control_law_reference(cfg, X)
        assert control_law(cfg, X).tobytes() == want.tobytes()
        for k, x in enumerate(X):
            assert control_law(cfg, x).tobytes() == want[k].tobytes()
        for pair in zip(X[:-1], X[1:]):
            assert control_law(cfg, np.array(pair)).tobytes() == \
                oracles.control_law_reference(cfg, np.array(pair)).tobytes()
    (cfg, at), (missed, off) = cases
    assert np.signbit(at[1, [1, 6]]).all() and np.isnan(control_law(cfg, at[4])).any()
    assert control_law(missed, off[0]).tobytes() == missed.vstar.tobytes()
    ramp = control_law(missed, off[2])
    assert ramp[2] == missed.vstar[2] and (ramp < missed.vstar).any()


def test_law_at_or_below_the_equilibrium_forms_no_product(bench_ctrl, ref_cert, monkeypatch):
    """A state or stack with no cell above x*, -0.0 excesses included,
    returns v* without calling `np.matmul`; one cell above x* calls it once."""
    calls = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    rng = np.random.default_rng(10)
    (zeros, at), _ = _boundary_cases(rng)
    for cfg, X in ((bench_ctrl, bench_ctrl.xstar * rng.uniform(0.0, 1.0, (5, 8))),
                   (ref_cert.controller, np.tile(ref_cert.controller.xstar, (3, 1))),
                   (zeros, at[:4])):
        for x in (*X, X, X[None]):
            assert control_law(cfg, x).tobytes() == \
                np.broadcast_to(cfg.vstar, np.shape(x)).tobytes()
        assert not calls
    above = bench_ctrl.xstar.copy()
    above[7] += 1.0
    control_law(bench_ctrl, above)
    assert len(calls) == 1


def test_law_keeps_the_leading_axes_of_a_stack(bench_ctrl):
    rng = np.random.default_rng(3)
    X = bench_ctrl.xstar + rng.uniform(-10.0, 40.0, (2, 3, 8))
    V = control_law(bench_ctrl, X)
    assert V.shape == (2, 3, 8)
    assert V.tobytes() == np.array([[control_law(bench_ctrl, x) for x in row]
                                    for row in X]).tobytes()
    for bad in (np.zeros(7), np.zeros((4, 7)), np.zeros((8, 1)), 55.0):
        with pytest.raises(DimensionError, match=r"^x must have shape \(\.\.\., 8\)$"):
            control_law(bench_ctrl, bad)
