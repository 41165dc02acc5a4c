import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstab.control import (ControllerConfig, control_law,
                             controller_from_dict, load_controller,
                             save_controller, synthesize, uniform_gain)
from netstab.errors import DimensionError


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
    """A stack of states gets each row's own bits, signed zeros included:
    the benchmark's hand-tuned and synthesized controllers (n = 8), and
    uniform and random gains at n = 1, 8 and 64."""
    rng = np.random.default_rng(seed)
    cfg = {"hand-tuned": bench_ctrl, "synthesized": ref_cert.controller}.get(kind) \
        or _random_controller(kind, n, rng)
    n = cfg.n
    X = _stack_states(cfg, rng, N)
    got = control_law(cfg, X)
    want = np.array([control_law(cfg, x) for x in X])
    assert got.shape == (N, n)
    assert got.tobytes() == want.tobytes()


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
