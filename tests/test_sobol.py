import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from netstab import sobol
from netstab.sobol import Sobol

# scipy warns when a fresh sequence's first draw is not a power of two
pytestmark = pytest.mark.filterwarnings("ignore:The balance properties:UserWarning")

CALLS = [1024, 1024, 64, 1, 3, 7, 2048]


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**70])
@pytest.mark.parametrize("d", [1, 3, 4, 20, 36, 132, 1028])
def test_draws_equal_scipy_bit_for_bit(d, seed):
    """Every call of a sequence that ends aligned, unaligned and aligned
    again returns scipy's points, bit for bit."""
    ours, theirs = Sobol(d, seed), qmc.Sobol(d=d, scramble=True, seed=seed)
    for n in CALLS:
        assert np.array_equal(ours.random(n), theirs.random(n)), n
    assert ours.num_generated == sum(CALLS)


@pytest.mark.parametrize("calls", [[5, 1024], [1, 1, 2, 4, 8], [3, 0, 13, 256]],
                         ids=["1024 after 5", "doubling after 1", "256 after 16"])
def test_power_of_two_draws_after_an_unaligned_start(calls):
    ours, theirs = Sobol(36, 7), qmc.Sobol(d=36, scramble=True, seed=7)
    for n in calls:
        assert np.array_equal(ours.random(n), theirs.random(n)), n


def test_more_than_2_to_the_30_points_are_refused():
    s = Sobol(3, 0)
    with pytest.raises(ValueError, match="2\\*\\*30"):
        s.random(2**30 + 1)
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
