"""Scrambled Sobol' points, the same bits as scipy.stats.qmc.Sobol draws.

`Sobol(d, seed).random(n)` equals `scipy.stats.qmc.Sobol(d=d, scramble=True,
seed=seed).random(n)` bit for bit, without importing scipy.stats (about 1 s
and 70 MB).  The engine draws aligned power-of-two blocks: n a power of two
that divides the count already drawn, the only draws netstab makes (a whole
cloud at once, or one in equal blocks).  It refuses any other draw.  The
direction numbers are Joe & Kuo's (2008), read from the table installed with
scipy; each dimension's are scrambled by a random lower-triangular matrix
over GF(2) and the points by a random digital shift, both drawn from
`np.random.default_rng(seed)` in scipy's order; point k is the shift XOR the
direction numbers picked by the bits of gray(k) = k ^ (k >> 1).
"""

from __future__ import annotations

import functools
import importlib.util
from pathlib import Path

import numpy as np

BITS = 30  # bits per coordinate, as in scipy: at most 2^30 points
_SCALE = 2.0 ** -BITS
WIDE = 4096  # entries per row of a block's XOR


@functools.cache
def _direction_table() -> tuple[np.ndarray, np.ndarray]:
    """(poly, vinit): each dimension's primitive polynomial and initial
    direction numbers, from the table scipy installs (read once per process;
    finding it imports nothing)."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed: its Sobol' direction numbers are needed")
    path = Path(spec.submodule_search_locations[0], "stats", "_sobol_direction_numbers.npz")
    if not path.is_file():
        raise ImportError(f"Sobol' direction numbers not found: {path}")
    with np.load(path) as table:
        return table["poly"].astype(np.int64), table["vinit"].astype(np.uint32)


def _direction_numbers(d: int) -> np.ndarray:
    """(d, BITS) uint32 direction numbers, column j shifted left by BITS-1-j.

    Bratley & Fox's recurrence, run for all dimensions at once: with p of
    degree m, v[j] = v[j-m] ^ XOR over the taps k < m of v[j-k-1] << (k+1),
    where tap k is bit m-1-k of p.  Dimension 0 (p = 1, m = 0) keeps ones.
    """
    poly, vinit = _direction_table()
    if not 1 <= d <= len(poly):
        raise ValueError(f"Sobol' dimension must be in [1, {len(poly)}], got {d}")
    p = poly[:d, None]
    deg = ((p >> np.arange(1, 32)) > 0).sum(axis=1)[:, None]  # bit length - 1
    top = int(deg.max())
    # v[j] sits in column top + j, after `top` zero columns, so v[j-1-k] for
    # k = top-1, ..., 0 is the slice of columns j to j + top; a term
    # v[j-1-k] << (k+1) is that column times `lift`, the tap v[j-m] times `last`
    k = np.arange(top - 1, -1, -1)
    taps = (k < deg) & ((p >> np.maximum(deg - 1 - k, 0)) & 1 > 0)
    lift = np.where(taps, np.uint32(2) << k.astype(np.uint32), np.uint32(0))
    last = (k == deg - 1).astype(np.uint32)
    v = np.zeros((d, top + BITS), np.uint32)
    v[:, top:top + vinit.shape[1]] = vinit[:d]
    v[0, top:] = 1
    # the recurrence sets v[j] for j >= m, and never in dimension 0
    sets = np.arange(BITS)[:, None] >= np.where(deg[:, 0] > 0, deg[:, 0], BITS)
    for j in range(1, BITS):
        window = v[:, j:j + top]
        new = np.bitwise_xor.reduce(window * lift ^ window * last, axis=1)
        np.copyto(v[:, top + j], new, where=sets[j])
    return v[:, top:] << np.arange(BITS - 1, -1, -1, dtype=np.uint32)


class Sobol:
    """A scrambled Sobol' sequence in [0, 1)^d, drawn in order by `random`."""

    def __init__(self, d: int, seed):
        v = _direction_numbers(d)
        rng = np.random.default_rng(seed)
        weights = np.arange(BITS, dtype=np.uint32)
        down = BITS - 1 - weights  # bit positions, most significant first
        shift = np.bitwise_or.reduce(
            rng.integers(0, 2, (d, BITS), dtype=np.uint32) << weights, axis=1)
        # The scramble maps a value whose bits, most significant first, are
        # y to L y over GF(2), L lower triangular with a unit diagonal: the
        # XOR of the columns of L that y picks, each column read as a value.
        below = np.tril(np.ones((BITS, BITS), np.uint32), -1) << down[:, None]  # row p: 2^(29-p)
        cols = np.bitwise_or.reduce(
            rng.integers(0, 2, (d, BITS, BITS), dtype=np.uint32) * below, axis=1) | (1 << down)
        picks = (v[:, :, None] >> down) & 1  # (dimension, j, bit from the top)
        v = np.bitwise_xor.reduce(picks * cols[:, None, :], axis=2)
        # every value is below 2^30, so int32 holds it and converts to
        # float64 exactly (int32 converts faster than uint32).  The point and
        # the direction numbers are held `reps` times over, so that a block's
        # XOR runs over rows of reps * d entries rather than of d.
        self._reps = 1 << max(0, (WIDE // d).bit_length() - 1)
        # row BITS is zeros: v[BITS], and v[-1], stand for "no direction number"
        v = np.vstack([v.T.astype(np.int32), np.zeros((1, d), np.int32)])
        self._v = np.tile(v, self._reps)  # (BITS + 1, reps * d)
        self._point = np.tile(shift.astype(np.int32), self._reps)  # the next point drawn, unscaled
        self._table = np.zeros((1, d), np.int32)  # row j: XOR of v over the bits of gray(j)
        self.d = d
        self.num_generated = 0

    def random(self, n: int) -> np.ndarray:
        """The next n points, an (n, d) float64 array.

        n must be a power of two and divide the count already drawn: on such
        a block gray(start + j) = gray(start) ^ gray(j), so row j is the
        block's first point XOR table row j.  Any other n raises a ValueError.
        """
        start = self.num_generated
        if n < 1 or n & (n - 1) or start % n:
            raise ValueError(f"Sobol' draws are aligned blocks of a power of two "
                             f"points: cannot draw {n} after {start}")
        if start + n > 2 ** BITS:
            raise ValueError(f"at most 2**{BITS} Sobol' points can be drawn: "
                             f"{start} drawn, {n} more asked")
        table, h = self._table, len(self._table)
        if h < n:  # gray(h + j) = h | gray(h - 1 - j) for j < h, h a power of two
            table = self._table = np.vstack([table, np.empty((n - h, self.d), np.int32)])
            for b in range(h.bit_length() - 1, n.bit_length() - 1):
                h = 1 << b
                np.bitwise_xor(table[h - 1::-1], self._v[b, :self.d], out=table[h:2 * h])
        rows = table[:n].reshape(-1, min(n, self._reps) * self.d)
        out = np.empty(rows.shape)
        np.bitwise_xor(rows, self._point[:rows.shape[1]], out=out, casting="unsafe")
        out *= _SCALE
        # the next point: XOR table row n - 1, which is v[k - 1] for n = 2^k
        # (v[-1], zeros, for n = 1), and v[lowest bit of end] (v[BITS], zeros,
        # at end = 2^30); in place, one row at a time, as a temporary XOR of
        # the two rows costs more than the second pass
        end = self.num_generated = start + n
        self._point ^= self._v[n.bit_length() - 2]
        self._point ^= self._v[(end & -end).bit_length() - 1]
        return out.reshape(n, self.d)
