import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from netstab import sobol
from netstab.sobol import Sobol

CALLS = [1, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**70])
@pytest.mark.parametrize("d", [1, 3, 4, 20, 36, 132, 1028])
def test_draws_equal_scipy_bit_for_bit(d, seed):
    """Every call of a doubling sequence, each block aligned on the count
    drawn before it, returns scipy's points, bit for bit."""
    ours, theirs = Sobol(d, seed), qmc.Sobol(d=d, scramble=True, seed=seed)
    for n in CALLS:
        assert np.array_equal(ours.random(n), theirs.random(n)), n
    assert ours.num_generated == sum(CALLS)


@pytest.mark.parametrize("d, blocks, size", [(20, 128, 1024), (1028, 16, 128), (36, 8, 1024),
                                             (36, 8, 128), (3, 1, 64)])
def test_equal_blocks_equal_one_whole_draw(d, blocks, size):
    """A stream of equal blocks, as the gamma search draws its cloud, equals
    scipy's one draw of the same total, bit for bit."""
    ours = Sobol(d, 5)
    whole = qmc.Sobol(d=d, scramble=True, seed=5).random_base2((blocks * size).bit_length() - 1)
    for b in range(blocks):
        assert np.array_equal(ours.random(size), whole[b * size:(b + 1) * size]), b


@pytest.mark.parametrize("before, n", [(0, 3), (1, 2), (64, 128), (0, 0)],
                         ids=["3 at the start", "2 after 1", "128 after 64", "0"])
def test_an_unaligned_or_non_power_of_two_draw_is_refused(before, n):
    s = Sobol(4, 0)
    if before:
        s.random(before)
    with pytest.raises(ValueError, match=f"cannot draw {n} after {before}"):
        s.random(n)
    assert s.num_generated == before


def test_more_than_2_to_the_30_points_are_refused():
    s = Sobol(3, 0)
    with pytest.raises(ValueError, match="2\\*\\*30"):
        s.random(2**31)
    assert s.num_generated == 0


@pytest.mark.parametrize("d", [0, 21202])
def test_dimension_outside_the_table_is_refused(d):
    with pytest.raises(ValueError, match="dimension"):
        Sobol(d, 0)


def test_missing_direction_numbers_raise_import_error_naming_the_path(monkeypatch, tmp_path):
    fake = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(sobol.importlib.util, "find_spec", lambda name: fake)
    sobol._direction_table.cache_clear()
    try:
        with pytest.raises(ImportError, match="_sobol_direction_numbers.npz") as exc:
            Sobol(3, 0)
        assert str(tmp_path / "stats") in str(exc.value)
    finally:
        sobol._direction_table.cache_clear()


def test_drawing_imports_no_scipy_module():
    """The direction numbers are found and read without importing scipy."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); from netstab.sobol import Sobol; "
             "Sobol(20, 0).random(1024); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
