from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from fedsim.params import NonFiniteError, ParamVector


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

