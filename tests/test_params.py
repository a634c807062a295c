from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from fedsim.params import NonFiniteError, ParamVector


def test_own_wraps_without_copy_but_checks_and_freezes():
    fresh = np.array([1.0, 2.0])
    pv = ParamVector._own(fresh)
    assert pv.values is fresh
    assert not fresh.flags.writeable
    with pytest.raises(NonFiniteError):
        ParamVector._own(np.array([1.0, np.inf]))


def test_construction_copies_and_freezes():
    src = np.array([1.0, 2.0, 3.0])
    pv = ParamVector(src)
    src[0] = 99.0
    assert pv.values[0] == 1.0
    with pytest.raises(ValueError):
        pv.values[0] = 5.0  # read-only array
    with pytest.raises(AttributeError):
        pv.values = np.zeros(3)


def test_construction_rejects_non_finite_and_non_flat():
    with pytest.raises(NonFiniteError):
        ParamVector([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        ParamVector([np.inf])
    with pytest.raises(ValueError):
        ParamVector(np.zeros((2, 2)))


def test_zeros():
    pv = ParamVector.zeros(4)
    npt.assert_array_equal(pv.values, np.zeros(4))
    with pytest.raises(ValueError):
        ParamVector.zeros(0)



def test_own_rows_wraps_each_row_once_checked_and_frozen_all_the_way_down():
    fresh = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    rows = ParamVector._own_rows(fresh)
    assert [pv.values.base is fresh for pv in rows] == [True, True]
    assert [pv.values.tolist() for pv in rows] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    assert not fresh.flags.writeable
    for pv in rows:
        with pytest.raises(ValueError):
            pv.values.flags.writeable = True
    with pytest.raises(ValueError):
        fresh[0, 0] = 1.0
    bad = np.array([[1.0, 2.0], [np.nan, 0.0]])
    with pytest.raises(NonFiniteError, match="vector contains NaN or Inf"):
        ParamVector._own_rows(bad)
