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
    again = load_controller(path)
    np.testing.assert_array_equal(again.b, bench_ctrl.b)
    np.testing.assert_array_equal(again.K, bench_ctrl.K)
    assert again.tau == bench_ctrl.tau

    doc = json.loads(path.read_text())
    doc["gain_schedule"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown"):
        load_controller(path)


def test_controller_from_dict_accepts_flat_gain(ref_eq):
    doc = {
        "xstar": list(ref_eq.xstar),
        "vstar": list(ref_eq.vstar),
        "b": [0.0] * 8,
        "K": [0.01] * 64,
        "tau": 0.5,
    }
    cfg = controller_from_dict(doc)
    assert cfg.K.shape == (8, 8)
    doc.pop("tau")
    with pytest.raises(ValueError, match="missing"):
        controller_from_dict(doc)
