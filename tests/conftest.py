import math

import numpy as np
import pytest
import scipy.fft

from kpzlab.grid import GridSpec


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def spec1d():
    return GridSpec(d=1, N=128, L_box=32.0)


@pytest.fixture
def spec2d():
    return GridSpec(d=2, N=64, L_box=32.0)


@pytest.fixture
def fft_counts(monkeypatch):
    """(calls, slices) of scipy.fft.rfftn/irfftn, kpzlab's transform backend, from here on, per name.

    A batched call is one call and one slice per index of its leading
    (non-transformed) axes.  Counts can be zeroed in place.
    """
    calls = {"rfftn": 0, "irfftn": 0}
    slices = dict(calls)
    for name in calls:
        real = getattr(scipy.fft, name)

        def counted(a, *args, _real=real, _name=name, **kw):
            calls[_name] += 1
            slices[_name] += math.prod(np.shape(a)[: np.ndim(a) - len(kw["axes"])])
            return _real(a, *args, **kw)

        monkeypatch.setattr(scipy.fft, name, counted)
    return calls, slices
