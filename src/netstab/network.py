"""Static network structure: cells, turning/exit rates, and acyclicity tools.

A network is a directed graph on ``n`` cells (0-based in code, printed 1-based
in messages).  ``P[i, j]`` is the fixed fraction of cell ``i``'s outflow routed
to cell ``j`` and ``Qexit[i]`` the fraction leaving the network at ``i``;
conservation requires each row of ``P`` plus the exit fraction to sum to one.
Entries of ``P`` at or below ``EDGE_TOL`` are treated as absent edges.
"""

from __future__ import annotations

import heapq
import json
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DimensionError

EDGE_TOL = 1e-15
CHECK_TOL = 1e-12
STATE_TOL = 1e-9       # admission tolerance for x against the state box

_NETWORK_FIELDS = ("n", "a", "P", "Qexit", "mu", "vmax")


class AcyclicityError(ValueError):
    """Raised when a routing graph that must be acyclic contains a cycle."""

    def __init__(self, cycle: tuple[int, ...]):
        self.cycle = tuple(int(i) for i in cycle)
        pretty = " -> ".join(str(i + 1) for i in self.cycle + self.cycle[:1])
        super().__init__(f"routing graph contains a cycle (cells {pretty})")


@dataclass(frozen=True)
class Violation:
    """One violated structural constraint, with its location and residual."""

    constraint: str
    index: object  # int cell index, (i, j) edge, or None for global checks
    residual: float
    message: str


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable description of the network's cells and routing.

    Attributes
    ----------
    n : int
        Number of cells.
    a : (n,) array
        Storage capacities in vehicles.
    P : (n, n) array
        Turning rates; ``P[i, j]`` routes that fraction of cell ``i``'s
        outflow into cell ``j``.
    Qexit : (n,) array
        Per-cell exit fractions.
    mu : (n,) array
        Uncongested density thresholds in vehicles.
    vmax : (n,) array
        External-inflow bounds (veh/step) used by the supply-margin audit.
    """

    n: int
    a: np.ndarray
    P: np.ndarray
    Qexit: np.ndarray
    mu: np.ndarray
    vmax: np.ndarray
    # Adjacency caches; predecessors are stored highest-index-first, which is
    # the junction priority order used by the dynamics.  claims holds each
    # junction j, ascending, as (j, ((i, P[i, j]), ...)) in that order.
    predecessors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    claims: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise DimensionError("cell count must be a positive integer")
        object.__setattr__(self, "n", n)
        for name in ("a", "Qexit", "mu", "vmax"):
            arr = _frozen_array(getattr(self, name))
            if arr.shape != (n,):
                raise DimensionError(f"{name} must have shape ({n},), got {arr.shape}")
            object.__setattr__(self, name, arr)
        P = _frozen_array(self.P)
        if P.shape != (n, n):
            raise DimensionError(f"P must have shape ({n}, {n}), got {P.shape}")
        object.__setattr__(self, "P", P)
        preds = [[] for _ in range(n)]
        for i in range(n):
            for j in np.nonzero(P[i] > EDGE_TOL)[0]:
                preds[j].append(i)
        preds = tuple(tuple(reversed(p)) for p in preds)
        object.__setattr__(self, "predecessors", preds)
        object.__setattr__(self, "claims", tuple(
            (j, tuple((i, float(P[i, j])) for i in p)) for j, p in enumerate(preds) if p))

    @cached_property
    def order(self) -> TopologicalOrder:
        """The topological order, sorted on first use; AcyclicityError if cyclic."""
        return topological_sort(self.P)

    @cached_property
    def admission(self) -> tuple[np.ndarray, np.ndarray]:
        """The (lo, hi) bounds that `dynamics.step` admits ``(x, v)`` between
        without a second look, concatenated: x in [0, a] and v in [0, DBL_MAX],
        the float form of v < inf that NaN also fails.  `step` clips a state
        in the STATE_TOL band around [0, a] and refuses the rest."""
        lo = np.zeros(2 * self.n)
        hi = np.concatenate((self.a, np.full(self.n, np.finfo(float).max)))
        return _frozen_array(lo), _frozen_array(hi)

    @cached_property
    def claim_levels(self):
        """The claims grouped by priority level, as (junction cells, levels).

        Level k holds the k-th claimant of every junction that has one, so
        within a level each junction appears once and the levels run in
        priority order.  Each level is (junction positions, senders,
        P[i, j] * a_i, P[i, j], whether a sender repeats); positions index
        the junction cells.
        """
        return group_claims(self.claims, self.a)


def group_claims(claims, a: np.ndarray):
    """Junction claims grouped by priority level, as (junction cells, levels).

    `claims` holds entries of `NetworkSpec.claims`, (j, ((i, P[i, j]), ...)),
    and `a` the storage capacities; see `NetworkSpec.claim_levels`, which
    groups every claim, while `ThrottleBound` also groups the few junctions
    that one cell's change can reach.
    """
    senders, levels = [c for _, c in claims], []
    for k in range(max(map(len, senders), default=0)):
        pos = [c for c, claim in enumerate(senders) if len(claim) > k]
        snd, p = (np.array(col) for col in zip(*(senders[c][k] for c in pos)))
        levels.append((slice(None) if len(pos) == len(senders) else np.array(pos),
                       snd, p * a[snd], p, len(np.unique(snd)) < len(snd)))
    return np.array([j for j, _ in claims], dtype=int), levels


def validate_spec(spec: NetworkSpec) -> list[Violation]:
    """Check every NetworkSpec value constraint; return all violations found.

    An empty report means the network is structurally sound within ``CHECK_TOL``.
    Dimension mismatches never reach this function: they raise
    :class:`DimensionError` at construction.
    """
    out: list[Violation] = []
    n = spec.n
    for i in range(n):
        if spec.P[i, i] > EDGE_TOL:
            out.append(
                Violation(
                    "zero_diagonal", (i, i), float(spec.P[i, i]),
                    f"cell {i + 1}: self-loop turning rate {spec.P[i, i]:.6g} must be 0",
                )
            )
    bad = np.argwhere(~((spec.P >= -CHECK_TOL) & (spec.P <= 1 + CHECK_TOL)))
    for i, j in bad:
        p = float(spec.P[i, j])
        out.append(
            Violation(
                "rate_range", (int(i), int(j)), max(-p, p - 1.0),
                f"turning rate p[{i + 1},{j + 1}] = {p:.6g} outside [0, 1]",
            )
        )
    row = spec.P.sum(axis=1) + spec.Qexit
    for i in np.nonzero(~(np.abs(row - 1.0) <= CHECK_TOL))[0]:
        out.append(
            Violation(
                "row_sum", int(i), float(abs(row[i] - 1.0)),
                f"cell {i + 1}: turning rates plus exit fraction sum to "
                f"{row[i]:.12g}, expected 1",
            )
        )
    for i in np.nonzero(~((spec.Qexit >= -CHECK_TOL) & (spec.Qexit <= 1 + CHECK_TOL)))[0]:
        q = float(spec.Qexit[i])
        out.append(
            Violation(
                "exit_range", int(i), max(-q, q - 1.0),
                f"cell {i + 1}: exit fraction {q:.6g} outside [0, 1]",
            )
        )
    for name, arr in (("a", spec.a), ("mu", spec.mu), ("vmax", spec.vmax)):
        for i in np.nonzero(~(arr > 0))[0]:
            out.append(
                Violation(
                    f"{name}_positive", int(i), float(-arr[i]),
                    f"cell {i + 1}: {name} = {arr[i]:.6g} must be positive",
                )
            )
    for i in np.nonzero(~(spec.mu < spec.a))[0]:
        out.append(
            Violation(
                "mu_below_capacity", int(i), float(spec.mu[i] - spec.a[i]),
                f"cell {i + 1}: threshold mu = {spec.mu[i]:.6g} must lie below "
                f"the capacity a = {spec.a[i]:.6g}",
            )
        )
    return out


def check_spec(spec: NetworkSpec) -> None:
    """ValueError naming the first `validate_spec` violation, in the words
    `netstab` prints, if the network breaks any constraint."""
    violations = validate_spec(spec)
    if violations:
        raise ValueError(f"{violations[0].message} ({violations[0].constraint})")


@dataclass(frozen=True)
class TopologicalOrder:
    """A cell ordering under which the routing matrix is strictly upper triangular."""

    order: tuple[int, ...]  # order[k] = cell placed at position k

    def rank(self) -> np.ndarray:
        """Inverse permutation: rank()[i] is cell i's position in the order."""
        r = np.empty(len(self.order), dtype=int)
        for pos, cell in enumerate(self.order):
            r[cell] = pos
        return r

    def permute(self, M: np.ndarray) -> np.ndarray:
        """Reindex a matrix (or vector) into this ordering."""
        M = np.asarray(M)
        idx = list(self.order)
        if M.ndim == 1:
            return M[idx]
        return M[np.ix_(idx, idx)]


def topological_sort(P: np.ndarray) -> TopologicalOrder:
    """Order the cells so that all routing goes from earlier to later cells.

    Kahn's algorithm with a min-heap, so ties always resolve to the lowest
    cell index and the result is deterministic.  Raises
    :class:`AcyclicityError` carrying a witness cycle if none exists.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n):
        raise DimensionError(f"P must be square, got {P.shape}")
    adj = [np.nonzero(P[i] > EDGE_TOL)[0] for i in range(n)]
    indeg = [0] * n
    for i in range(n):
        for j in adj[i]:
            indeg[j] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in adj[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, int(j))
    if len(order) < n:
        cycle = find_cycle(P)
        if not cycle:  # pragma: no cover - Kahn failure implies a cycle exists
            raise StructureMismatch("ordering failed but no cycle was found")
        raise AcyclicityError(cycle)
    topo = TopologicalOrder(tuple(order))
    Pp = topo.permute(P)
    if np.any(np.tril(Pp) > EDGE_TOL):  # pragma: no cover - Kahn guarantees this
        raise StructureMismatch("ordering is not strictly upper triangular")
    return topo


class StructureMismatch(RuntimeError):
    """Internal invariant of the ordering algorithms failed."""


def find_cycle(P: np.ndarray) -> tuple[int, ...]:
    """Return one directed cycle of the routing graph, or () if acyclic.

    The returned cells (i_1, ..., i_e) satisfy p[i_1,i_2], ..., p[i_e,i_1]
    all above ``EDGE_TOL``, so the product of rates around the cycle is
    nonzero.  Iterative DFS; deterministic (lowest successor first).
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    adj = [list(np.nonzero(P[i] > EDGE_TOL)[0]) for i in range(n)]
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    parent = [-1] * n
    for root in range(n):
        if color[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, ptr = stack[-1]
            if ptr < len(adj[node]):
                stack[-1] = (node, ptr + 1)
                nxt = int(adj[node][ptr])
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, 0))
                elif color[nxt] == 1:
                    cycle = [node]
                    while cycle[-1] != nxt:
                        cycle.append(parent[cycle[-1]])
                    return tuple(reversed(cycle))
            else:
                color[node] = 2
                stack.pop()
    return ()


# Every input file reader checks its fields with `_check_fields` and its values
# with `_checked`, in `_located` blocks that prefix errors with file and cell.

_NUMBER_TYPES = {int, float, np.float64}  # np.float64: lists made from arrays
_INTEGERS = {0: "a non-negative integer", 1: "a positive integer"}


@contextmanager
def _located(where):
    """Prefix `where` to any ValueError raised in the block."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _check_fields(doc, required, allowed, what: str = "field") -> None:
    """ValueError unless `doc` is a JSON object holding every required field
    and no field outside `allowed`."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object of {what}s")
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown {what}(s) {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ValueError(f"missing {what}(s) {sorted(missing)}")


def _checked(value, shape, what: str, least=None):
    """`value`, parsed from JSON, checked to hold finite numbers (not bools) of
    `shape`, where None is any length: a scalar comes back as it is, or as an
    int of at least `least` (0 or 1) when given; a list as a float array.
    Anything else raises a ValueError naming `what` and any 1-based entry."""
    if not shape:  # NaN fails the abs() test
        number = type(value) in _NUMBER_TYPES and abs(value) <= sys.float_info.max
        if number and (least is None or (value == int(value) and value >= least)):
            return value if least is None else int(value)
        raise ValueError(f"{what} must be {_INTEGERS.get(least, 'a finite number')}, "
                         f"got {value!r}")
    arr = np.array(value, dtype=object)
    if arr.ndim != len(shape) or any(k not in (None, s) for k, s in zip(shape, arr.shape)):
        sizes = ("" if k is None else f"{k} " for k in shape)
        raise ValueError(f"{what} must be a list of {'lists of '.join(sizes)}numbers")
    flat, out = arr.ravel(), None
    with suppress(OverflowError):  # an int beyond the float range is named below
        if set(map(type, flat)) <= _NUMBER_TYPES:
            out = flat.astype(float)
    if out is None or not np.isfinite(out).all():  # find the first bad entry
        for k, leaf in enumerate(flat):
            index = ", ".join(str(i + 1) for i in np.unravel_index(k, arr.shape))
            _checked(leaf, (), f"{what} entry {index}")
    return out.reshape(arr.shape)


def load_network(path) -> NetworkSpec:
    """Read a NetworkSpec from a JSON file, every field checked."""
    with open(path, encoding="utf-8") as fh, _located(path):
        doc = json.load(fh)
        _check_fields(doc, set(_NETWORK_FIELDS), set(_NETWORK_FIELDS))
        n = _checked(doc["n"], (), "field 'n'", least=1)
        return NetworkSpec(n, *(_checked(doc[name], (n, n) if name == "P" else (n,),
                                         f"field '{name}'") for name in _NETWORK_FIELDS[1:]))


def save_network(spec: NetworkSpec, path) -> None:
    doc = {
        "n": spec.n,
        "a": spec.a.tolist(),
        "P": spec.P.tolist(),
        "Qexit": spec.Qexit.tolist(),
        "mu": spec.mu.tolist(),
        "vmax": spec.vmax.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
