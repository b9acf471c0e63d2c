import math
import sys

import numpy as np
import pytest

from kpzlab import grid
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

    Each transform counts once, at its entry point grid._rfftn/_irfftn,
    wherever a kpzlab module holds that name; the in-place inverse
    _irfftn(..., out=) counts like the allocating one.  A batched call is one
    call and one slice per index of its leading (non-grid) axes.  Counts can
    be zeroed in place.
    """
    calls = {"rfftn": 0, "irfftn": 0}
    slices = dict(calls)
    modules = [m for name, m in sys.modules.items() if name == "kpzlab" or name.startswith("kpzlab.")]
    for name in calls:
        real = getattr(grid, "_" + name)

        def counted(a, spec, *args, _real=real, _name=name, **kw):
            calls[_name] += 1
            slices[_name] += math.prod(np.shape(a)[: np.ndim(a) - spec.d])
            return _real(a, spec, *args, **kw)

        for module in modules:
            if getattr(module, "_" + name, None) is real:
                monkeypatch.setattr(module, "_" + name, counted)
    return calls, slices
