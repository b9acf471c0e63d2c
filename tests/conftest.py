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
    """(calls, slices) of kpzlab's transforms from here on, per name ("rfftn", "irfftn").

    Each transform counts once, at the backend call that grid._rfftn/_irfftn
    make: scipy.fft.rfftn/irfftn, and numpy.fft.irfft, the last pass of the
    in-place inverse _irfftn(..., out=), which inverts one field (its complex
    passes, numpy.fft.ifft, are not counted again).  A batched call is one
    call and one slice per index of its leading (non-transformed) axes.
    Counts can be zeroed in place.
    """
    calls = {"rfftn": 0, "irfftn": 0}
    slices = dict(calls)

    def counter(module, attr, name, n_slices):
        real = getattr(module, attr)

        def counted(a, *args, **kw):
            calls[name] += 1
            slices[name] += n_slices(a, kw)
            return real(a, *args, **kw)

        monkeypatch.setattr(module, attr, counted)

    for name in calls:
        counter(scipy.fft, name, name, lambda a, kw: math.prod(np.shape(a)[: np.ndim(a) - len(kw["axes"])]))
    counter(np.fft, "irfft", "irfftn", lambda a, kw: 1)
    return calls, slices
