import math
import tracemalloc

import numpy as np
import pytest

from kpzlab.grid import (
    BadArgumentError,
    DimensionMismatchError,
    Field,
    FieldFormatError,
    GridSpec,
    SpaceTimeField,
    _irfftn,
    _rfftn,
    check_positive,
    covering_steps,
    frame_steps,
    gradient,
    laplacian,
    lp_norm,
    make_bump,
    read_field,
    read_spacetime,
    shift_field,
    write_field,
    write_spacetime,
    zero_field,
)
from kpzlab.heat import random_smooth_field


def test_gridspec_validation():
    GridSpec(d=1, N=64, L_box=32.0)
    with pytest.raises(ValueError):
        GridSpec(d=1, N=48, L_box=32.0)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(d=1, N=2, L_box=32.0)
    with pytest.raises(ValueError):
        GridSpec(d=4, N=64, L_box=32.0)
    with pytest.raises(ValueError):
        GridSpec(d=1, N=64, L_box=0.0)


def test_argument_checks():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(BadArgumentError, match=f"dt must be positive, got {bad}"):
            check_positive("dt", bad)
    # frame_steps: a multiple of dt to 1e-9 max(1, dt), at a finite t >= 0
    assert [frame_steps(t, 0.1) for t in (0.0, 0.3, 0.3 + 1e-10, 1e-10)] == [0, 3, 3, 0]
    for t, message in [(0.35, "time 0.35 is not a multiple of dt = 0.1"), (-0.1, "negative evolution time"),
                       (math.inf, "non-finite evolution time")]:
        with pytest.raises(BadArgumentError, match=message):
            frame_steps(t, 0.1)
    # covering_steps: the fewest steps that reach t, a multiple of dt exactly
    assert [covering_steps(t, 0.1) for t in (0.3, 0.3 + 1e-8, 0.25, 1e-12)] == [3, 4, 3, 0]


def test_field_rejects_nonfinite(spec1d):
    vals = np.zeros(spec1d.shape)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        Field(spec1d, vals)
    # values must have the grid's shape: neither reshaped from the right size nor taken at a wrong size
    spec2d = GridSpec(d=2, N=128, L_box=32.0)
    for shape in [(64, 256), (128 * 128,), (127, 128), (128, 128, 1)]:
        with pytest.raises(DimensionMismatchError, match=r"on a grid of shape \(128, 128\)"):
            Field(spec2d, np.zeros(shape))


def test_field_immutable(spec1d):
    f = zero_field(spec1d)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_bump_zero_amplitude(spec1d):
    b = make_bump(spec1d, 0.0, 1.0)
    assert np.all(b.values == 0)


def test_bump_site_count():
    # dx = 0.5: sites within distance 1 of the center: 2*floor(1/dx)+1 = 5
    spec = GridSpec(d=1, N=64, L_box=32.0)
    b = make_bump(spec, 3.0, 1.0)
    assert int(np.count_nonzero(b.values)) == 2 * int(1.0 / spec.dx) + 1
    assert np.all(b.values[b.values != 0] == 3.0)
    assert lp_norm(b, np.inf) == 3.0


def test_bump_radius_out_of_range(spec1d):
    with pytest.raises(ValueError):
        make_bump(spec1d, 1.0, spec1d.L_box / 2)


def test_lp_norm_examples():
    spec = GridSpec(d=1, N=64, L_box=32.0)
    assert lp_norm(zero_field(spec), 2) == 0.0
    c = Field(spec, np.full(spec.shape, -1.7))
    assert lp_norm(c, np.inf) == 1.7
    b = make_bump(spec, 3.0, 1.0)
    n_sites = int(np.count_nonzero(b.values))
    assert lp_norm(b, 1) == pytest.approx(3.0 * n_sites * spec.dx, rel=1e-14)


def test_lp_norm_homogeneity(rng, spec1d):
    f = random_smooth_field(spec1d, rng)
    for p in (1, 2, 3.5, np.inf):
        a = lp_norm(Field(spec1d, -2.5 * f.values), p)
        assert a == pytest.approx(2.5 * lp_norm(f, p), rel=1e-12)


def test_holder_interpolation(rng, spec1d):
    # discrete L2^2 <= L1 * Linf
    for _ in range(20):
        f = random_smooth_field(spec1d, rng)
        assert lp_norm(f, 2) ** 2 <= lp_norm(f, 1) * lp_norm(f, np.inf) * (1 + 1e-12)


def test_gradient_constant(spec1d):
    g = gradient(Field(spec1d, np.full(spec1d.shape, 4.2)))[0]
    assert np.abs(g.values).max() < 1e-14


def test_gradient_sine():
    spec = GridSpec(d=1, N=64, L_box=32.0)
    x = spec.axis_coords()
    k = 2 * np.pi / spec.L_box
    f = Field(spec, np.sin(k * x))
    g = gradient(f)[0]
    assert np.abs(g.values - k * np.cos(k * x)).max() < 1e-10


def test_gradient_of_gradient_is_laplacian(rng, spec2d):
    f = random_smooth_field(spec2d, rng)
    comps = gradient(f)
    total = sum(gradient(c)[i].values for i, c in enumerate(comps))
    assert np.abs(total - laplacian(f).values).max() < 1e-10


def test_shift_field_periodic(spec1d):
    f = Field(spec1d, np.arange(spec1d.N, dtype=float))
    s = shift_field(f, (1,))
    assert s.values[-1] == f.values[0]


def test_field_io_roundtrip(tmp_path, rng, spec2d):
    f = random_smooth_field(spec2d, rng)
    path = tmp_path / "f.kpzf"
    write_field(f, path)
    g = read_field(path)
    assert g.spec == f.spec
    assert np.array_equal(g.values, f.values)
    # byte-exact on rewrite
    path2 = tmp_path / "g.kpzf"
    write_field(g, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_spacetime_io_roundtrip(tmp_path, rng, spec1d):
    frames = tuple(random_smooth_field(spec1d, rng) for _ in range(4))
    stf = SpaceTimeField(spec=spec1d, dt=0.25, frames=frames, t0=1.5)
    path = tmp_path / "t.kpzt"
    write_spacetime(stf, path)
    back = read_spacetime(path)
    assert back.dt == stf.dt and back.t0 == stf.t0 and back.n_frames == 4
    for a, b in zip(back.frames, stf.frames):
        assert np.array_equal(a.values, b.values)


def test_io_malformed_header(tmp_path):
    path = tmp_path / "bad.kpzf"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FieldFormatError):
        read_field(path)


def test_io_bad_dimension(tmp_path, rng, spec1d):
    f = random_smooth_field(spec1d, rng)
    path = tmp_path / "f.kpzf"
    write_field(f, path)
    raw = bytearray(path.read_bytes())
    raw[8] = 9  # d field in the header
    path.write_bytes(bytes(raw))
    with pytest.raises(DimensionMismatchError):
        read_field(path)


def test_io_truncated(tmp_path, rng, spec1d):
    f = random_smooth_field(spec1d, rng)
    path = tmp_path / "f.kpzf"
    write_field(f, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FieldFormatError):
        read_field(path)


# --- the transform entry point against numpy.fft ----------------------------

# scipy.fft runs the complex passes of a 3-D transform in the opposite order
# to numpy.fft; _rfftn reverses the leading grid axes so the two agree bit for
# bit.  A scipy release that reorders its passes fails here.
FFT_CASES = [
    ((), GridSpec(d=1, N=4096, L_box=1.0)),
    ((7,), GridSpec(d=1, N=4096, L_box=1.0)),
    ((), GridSpec(d=2, N=128, L_box=1.0)),
    ((3,), GridSpec(d=2, N=128, L_box=1.0)),
    ((), GridSpec(d=2, N=512, L_box=1.0)),
    ((), GridSpec(d=3, N=16, L_box=1.0)),
    ((), GridSpec(d=3, N=64, L_box=1.0)),
    ((5,), GridSpec(d=3, N=16, L_box=1.0)),
    ((16,), GridSpec(d=3, N=16, L_box=1.0)),
    ((8,), GridSpec(d=3, N=32, L_box=1.0)),
]


@pytest.mark.parametrize("batch, spec", FFT_CASES, ids=lambda c: "x".join(map(str, c.shape if isinstance(c, GridSpec) else c)) or "single")
def test_transforms_equal_numpy_fft(batch, spec):
    rng = np.random.default_rng(1000 * spec.d + spec.N + len(batch))
    axes = tuple(range(-spec.d, 0))
    x = rng.standard_normal(batch + spec.shape)
    xhat = _rfftn(x, spec)
    assert np.array_equal(xhat, np.fft.rfftn(x, axes=axes))
    # a random spectrum, not only the transform of a real field
    yhat = xhat * (rng.standard_normal(xhat.shape) + 1j * rng.standard_normal(xhat.shape))
    assert np.array_equal(_irfftn(yhat, spec), np.fft.irfftn(yhat, s=spec.shape, axes=axes))


# the in-place inverse against the allocating one, on the single-field cases
@pytest.mark.parametrize("spec", [s for b, s in FFT_CASES if not b], ids=lambda s: "x".join(map(str, s.shape)))
def test_inverse_into_buffers_equals_allocating_inverse(spec):
    rng = np.random.default_rng(2000 * spec.d + spec.N)
    xhat = _rfftn(rng.standard_normal(spec.shape), spec)
    yhat = xhat * (rng.standard_normal(xhat.shape) + 1j * rng.standard_normal(xhat.shape))
    expected = _irfftn(yhat, spec)
    work, out = yhat.copy(), np.empty(spec.shape)
    _irfftn(work, spec, out=out)  # warm-up: the first call may set up plans
    np.copyto(work, yhat)
    tracemalloc.start()
    try:
        result = _irfftn(work, spec, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is out
    assert np.array_equal(out, expected)
    assert peak < out.nbytes // 4  # no array-sized temporary


def test_sup_norm_equals_max_abs(rng):
    for spec in (GridSpec(d=1, N=64, L_box=8.0), GridSpec(d=2, N=32, L_box=8.0), GridSpec(d=3, N=8, L_box=8.0)):
        for scale in (1.0, -1.0):
            f = Field(spec, scale * rng.standard_normal(spec.shape))
            assert lp_norm(f, np.inf) == float(np.max(np.abs(f.values)))
    for zero in (0.0, -0.0):
        sup = lp_norm(Field(spec, np.full(spec.shape, zero)), np.inf)
        assert sup == 0.0 and math.copysign(1.0, sup) == 1.0
