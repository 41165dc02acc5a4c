import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstab import presets
from netstab.errors import DimensionError
from netstab.network import (AcyclicityError, NetworkSpec, find_cycle,
                             load_network, save_network, topological_sort,
                             validate_spec)

import oracles


def test_reference_spec_is_clean(ref_spec):
    assert validate_spec(ref_spec) == []
    assert find_cycle(ref_spec.P) == ()


def test_reference_order_and_ranks(ref_spec):
    order = topological_sort(ref_spec.P)
    assert oracles.is_topological(ref_spec.P, order.order)
    rank = order.rank()
    # mainline is a chain, so ranks must increase along it
    assert list(rank[:4]) == sorted(rank[:4])
    assert rank[4] < rank[5] < rank[6] < rank[7]
    permuted = order.permute(ref_spec.P)
    assert np.all(np.tril(permuted) == 0)


def test_predecessors_sorted_descending(ref_spec):
    assert ref_spec.predecessors[6] == (5, 3)
    assert ref_spec.successors[3] == (6,)
    assert ref_spec.predecessors[0] == ()


def test_spec_owns_order_and_claims(ref_spec):
    """The order is sorted on first use and then kept; the claim table lists
    each junction's claimants in priority order with their turning rates."""
    assert ref_spec.order is ref_spec.order
    assert ref_spec.order == topological_sort(ref_spec.P)
    assert ref_spec.claims == tuple(
        (j, tuple((i, float(ref_spec.P[i, j])) for i in preds))
        for j, preds in enumerate(ref_spec.predecessors) if preds)
    assert (6, ((5, ref_spec.P[5, 6]), (3, ref_spec.P[3, 6]))) in ref_spec.claims


def test_cyclic_spec_constructs_but_has_no_order():
    spec3, _ = presets.three_cell_cycle()
    assert [j for j, _ in spec3.claims] == [0, 1, 2]
    with pytest.raises(AcyclicityError):
        spec3.order


def test_arrays_are_frozen(ref_spec):
    with pytest.raises(ValueError):
        ref_spec.P[0, 1] = 0.5
    with pytest.raises(ValueError):
        ref_spec.a[0] = 1.0


@pytest.mark.parametrize("shape_break", ["a", "P", "Qexit"])
def test_bad_shapes_raise(shape_break, ref_spec):
    kw = dict(n=8, a=ref_spec.a, P=ref_spec.P, Qexit=ref_spec.Qexit,
              mu=ref_spec.mu, vmax=ref_spec.vmax)
    kw[shape_break] = np.zeros(3)
    with pytest.raises(DimensionError):
        NetworkSpec(**kw)


def _mutate(spec, **changes):
    kw = dict(n=spec.n, a=np.array(spec.a), P=np.array(spec.P),
              Qexit=np.array(spec.Qexit), mu=np.array(spec.mu),
              vmax=np.array(spec.vmax))
    kw.update(changes)
    return NetworkSpec(**kw)


def test_validate_flags_each_constraint(ref_spec):
    P = np.array(ref_spec.P)
    P[2, 2] = 0.3          # self-loop
    P[0, 1] = 1.4          # rate out of range, breaks the row sum too
    broken = _mutate(ref_spec, P=P)
    names = {v.constraint for v in validate_spec(broken)}
    assert {"zero_diagonal", "rate_range", "row_sum"} <= names

    mu = np.array(ref_spec.mu)
    mu[5] = 400.0
    assert {"mu_below_capacity"} <= {
        v.constraint for v in validate_spec(_mutate(ref_spec, mu=mu))}

    vmax = np.array(ref_spec.vmax)
    vmax[1] = 0.0
    report = validate_spec(_mutate(ref_spec, vmax=vmax))
    assert any(v.constraint == "vmax_positive" and v.index == 1 for v in report)


def test_cycle_detection_on_cyclic_inputs():
    spec3, _ = presets.three_cell_cycle()
    cyc = find_cycle(spec3.P)
    assert len(cyc) == 3
    with pytest.raises(AcyclicityError) as exc:
        topological_sort(spec3.P)
    witness = exc.value.cycle
    # the witness must be a real closed walk in the routing graph
    for a, b in zip(witness, witness[1:] + witness[:1]):
        assert spec3.P[a, b] > 0

    back = presets.reference_with_backedge()
    cyc = find_cycle(back.P)
    assert cyc
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert back.P[a, b] > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**31 - 1))
def test_random_dags_sort_cleanly(n, seed):
    """Any permuted strictly-upper-triangular routing matrix must sort."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(0, 1, (n, n)) < 0.4, k=1) * rng.uniform(0.1, 1, (n, n))
    perm = rng.permutation(n)
    P = upper[np.ix_(perm, perm)]
    order = topological_sort(P)
    assert oracles.is_topological(P, order.order)
    assert find_cycle(P) == ()


def test_network_round_trip(tmp_path, ref_spec):
    path = tmp_path / "net.json"
    save_network(ref_spec, path)
    loaded = load_network(path)
    assert loaded.n == ref_spec.n
    np.testing.assert_array_equal(loaded.P, ref_spec.P)
    np.testing.assert_array_equal(loaded.mu, ref_spec.mu)


def test_network_load_rejects_bad_documents(tmp_path, ref_spec):
    path = tmp_path / "net.json"
    save_network(ref_spec, path)
    doc = json.loads(path.read_text())
    doc["speed_limit"] = 100
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown field"):
        load_network(path)

    del doc["speed_limit"], doc["mu"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="missing field"):
        load_network(path)

    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="expected a JSON object of fields"):
        load_network(path)
