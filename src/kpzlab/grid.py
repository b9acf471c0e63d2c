"""Periodic d-dimensional grids, scalar fields, spectral calculus and binary I/O.

The box [0, L_box)^d is sampled with N points per axis (N a power of two).
All derivatives are spectral: exact for band-limited fields, which keeps
them consistent with the exact heat semigroup used everywhere else.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial

import numpy as np
import scipy.fft


def _AXES(shape):
    """The trailing len(shape) axes: the grid axes of a field or a stack of fields."""
    return tuple(range(-len(shape), 0))


FIELD_MAGIC = b"KPZF"
TRAJ_MAGIC = b"KPZT"
FORMAT_VERSION = 1


# The failure modes of kpzlab, one type each, shared by every module.


class BadArgumentError(ValueError):
    """An argument outside the domain of the routine that received it."""


class InsufficientHistoryError(ValueError):
    """A time history too short, or sampled too coarsely, for the requested time."""


class NumericalRangeError(ValueError):
    """A value float64 cannot represent, a grid too coarse to keep a sign, or a solve that did not converge."""


class FieldFormatError(ValueError):
    """Malformed header or truncated payload in a binary field file."""


class DimensionMismatchError(ValueError):
    """Fields on different grids, or grid metadata in a file that no grid supports."""


def check_scale(M, j):
    """Reject a scale pair outside M > 1, j >= 0, the domain of the cutoff M^-j and of the partition."""
    if not M > 1:
        raise BadArgumentError(f"scale parameter M must exceed 1, got {M}")
    if not j >= 0:
        raise BadArgumentError(f"scale index j must be >= 0, got {j}")


def check_positive(name, value):
    """Reject a coefficient, length or step that is not > 0 (nan included)."""
    if not value > 0:
        raise BadArgumentError(f"{name} must be positive, got {value}")


def check_times(times) -> np.ndarray:
    """times as a float array; each must be finite and >= 0, the times at which the flow is defined."""
    ts = np.asarray(times, dtype=float)
    if not np.isfinite(ts).all():
        raise BadArgumentError(f"non-finite evolution time {ts[~np.isfinite(ts)][0]}")
    if (ts < 0).any():
        raise BadArgumentError(f"negative evolution time {ts[ts < 0][0]}")
    return ts


def frame_steps(t: float, dt: float) -> int:
    """Number of dt steps in the time t; t must be a multiple of dt, to 1e-9 max(1, dt)."""
    check_times([t])
    n = int(round(t / dt))
    if abs(n * dt - t) > 1e-9 * max(1.0, dt):
        raise BadArgumentError(f"time {t} is not a multiple of dt = {dt}")
    return n


def covering_steps(t: float, dt: float) -> int:
    """Fewest dt steps that reach the time t: ceil(t/dt), less 1e-9 so a multiple of dt takes t/dt steps."""
    return int(np.ceil(t / dt - 1e-9))


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a periodic grid: dimension, points per axis, box length."""

    d: int
    N: int
    L_box: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise BadArgumentError(f"spatial dimension must be 1, 2 or 3, got {self.d}")
        if self.N < 4 or (self.N & (self.N - 1)) != 0:
            raise BadArgumentError(f"N must be a power of two >= 4, got {self.N}")
        check_positive("L_box", self.L_box)
        if self.N ** self.d > 2**31:
            raise BadArgumentError("total site count exceeds addressable size")

    @property
    def dx(self) -> float:
        return self.L_box / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def n_sites(self) -> int:
        return self.N**self.d

    def axis_coords(self) -> np.ndarray:
        """Coordinates of the sites along one axis, in [0, L_box)."""
        return np.arange(self.N) * self.dx


@dataclass(frozen=True)
class Field:
    """Immutable real scalar field sampled on a periodic grid (row-major)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.spec.shape:
            raise DimensionMismatchError(f"values of shape {v.shape} on a grid of shape {self.spec.shape}")
        if not np.isfinite(v).all():
            raise NumericalRangeError("field contains non-finite values")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __add__(self, other):
        if isinstance(other, Field):
            _check_same_spec(self, other)
            return Field(self.spec, self.values + other.values)
        return Field(self.spec, self.values + other)

    def __sub__(self, other):
        if isinstance(other, Field):
            _check_same_spec(self, other)
            return Field(self.spec, self.values - other.values)
        return Field(self.spec, self.values - other)

    def __mul__(self, c):
        return Field(self.spec, self.values * c)

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.spec, -self.values)

    def abs(self) -> "Field":
        return Field(self.spec, np.abs(self.values))


@dataclass(frozen=True)
class SpaceTimeField:
    """Uniformly time-sampled sequence of fields on a shared grid."""

    spec: GridSpec
    dt: float
    frames: tuple
    t0: float = 0.0

    def __post_init__(self):
        check_positive("dt", self.dt)
        frames = tuple(self.frames)
        if not frames:
            raise BadArgumentError("frames must be nonempty")
        for f in frames:
            if f.spec != self.spec:
                raise DimensionMismatchError("all frames must share the grid spec")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_frames)

    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n_frames - 1)

    def frame_index(self, t: float) -> int:
        """Index of the frame at time t; t must sit on the frame grid."""
        k = frame_steps(t - self.t0, self.dt)
        if k >= self.n_frames:
            raise BadArgumentError(f"time {t} is past the last frame, at {self.t_end()}")
        return k

    def values_array(self) -> np.ndarray:
        """Stacked (n_frames, N, ..., N) array view of the frames."""
        return np.stack([f.values for f in self.frames])


def _check_same_spec(a: Field, b: Field):
    if a.spec != b.spec:
        raise DimensionMismatchError("fields live on different grids")


def zero_field(spec: GridSpec) -> Field:
    return Field(spec, np.zeros(spec.shape))


def constant_field(spec: GridSpec, c: float) -> Field:
    return Field(spec, np.full(spec.shape, float(c)))


@lru_cache(maxsize=64)
def periodic_distance_sq(spec: GridSpec, center_index: tuple = None) -> np.ndarray:
    """Squared periodic distance from each site to a center site.

    Default center is the box center (index N//2 on each axis, an exact
    grid point).
    """
    if center_index is None:
        center_index = (spec.N // 2,) * spec.d
    x = spec.axis_coords()
    total = np.zeros(spec.shape)
    for ax, ci in enumerate(center_index):
        dist = np.abs(x - x[ci])
        dist = np.minimum(dist, spec.L_box - dist)
        shape = [1] * spec.d
        shape[ax] = spec.N
        total = total + (dist.reshape(shape)) ** 2
    total.setflags(write=False)
    return total


def make_bump(spec: GridSpec, A: float, L: float) -> Field:
    """Height-A indicator of the periodic ball of radius L at the box center."""
    if not (0 < L < spec.L_box / 2):
        raise BadArgumentError(f"bump radius out of range: need 0 < L < L_box/2, got L={L}")
    rsq = periodic_distance_sq(spec)
    return Field(spec, np.where(rsq <= L * L + 1e-12 * L * L, float(A), 0.0))


def lp_norm(f: Field, p) -> float:
    """Discrete L^p norm with cell measure dx^d; p = inf gives the sup norm."""
    if p == np.inf or p == "inf":
        # max |v| without an |v| temporary; abs() turns a -0.0 result into +0.0
        return abs(float(max(-np.min(f.values), np.max(f.values))))
    p = float(p)
    if p < 1:
        raise BadArgumentError("p must be >= 1")
    meas = f.spec.dx**f.spec.d
    return float((np.sum(np.abs(f.values) ** p) * meas) ** (1.0 / p))


# --- spectral calculus ------------------------------------------------------


@lru_cache(maxsize=64)
def _rfft_wavenumbers(spec: GridSpec):
    """Per-axis angular wavenumbers on the rfftn layout, broadcast-ready.

    Returns (k_list, ksq, kderiv_list): ksq keeps the Nyquist mode (true
    spectral Laplacian); kderiv zeroes it so odd-order derivatives of real
    fields stay real.
    """
    N, d, L = spec.N, spec.d, spec.L_box
    ks = []
    kds = []
    for ax in range(d):
        if ax == d - 1:
            k = 2 * np.pi * np.fft.rfftfreq(N, d=spec.dx)
            nyq = len(k) - 1
        else:
            k = 2 * np.pi * np.fft.fftfreq(N, d=spec.dx)
            nyq = N // 2
        kd = k.copy()
        kd[nyq] = 0.0
        shape = [1] * d
        shape[ax] = len(k)
        ks.append(k.reshape(shape))
        kds.append(kd.reshape(shape))
    ksq = sum(k**2 for k in ks)
    ksq.setflags(write=False)
    return tuple(ks), ksq, tuple(kds)


def ksq_array(spec: GridSpec) -> np.ndarray:
    return _rfft_wavenumbers(spec)[1]


def _rfftn(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Forward real transform over the trailing spec.d axes; leading axes batch.

    Every transform in kpzlab goes through this pair.  It runs on scipy.fft
    with its default single worker: forward transforms of a 16 x 16^3 batch
    or a 512^2 grid take about half the time of numpy.fft's, inverses 70-85%.
    scipy.fft is looked up on each call, so a wrapper installed on it later
    sees every transform; a batched call is one call.
    scipy runs the complex passes of a 3-D transform in the opposite order
    to numpy, so the leading grid axes are passed reversed: every output then
    equals numpy.fft's bit for bit (tests/test_grid.py checks this).
    """
    axes = _AXES(spec.shape)
    return scipy.fft.rfftn(values, axes=axes[-2::-1] + axes[-1:])


def _irfftn(fhat: np.ndarray, spec: GridSpec, out: np.ndarray = None) -> np.ndarray:
    """Inverse of _rfftn back onto the grid of spec (leading axes batch).

    With out (real, fhat's leading axes followed by spec.shape) the inverse
    allocates nothing: the complex passes over the leading grid axes run in
    place on fhat, which is overwritten, and the half-spectrum pass along the
    last axis writes into out.  This is numpy.fft's out= (numpy >= 2.0);
    passing the axes in this order keeps every output equal to the allocating
    inverse bit for bit (each pass scales by 1/N, a power of two, where scipy
    scales once).
    """
    if out is None:
        return scipy.fft.irfftn(fhat, s=spec.shape, axes=_AXES(spec.shape))
    for ax in range(-spec.d, -1):
        np.fft.ifft(fhat, axis=ax, out=fhat)
    return np.fft.irfft(fhat, n=spec.N, axis=-1, out=out)


def _derivative_terms(spec: GridSpec, order: int) -> list:
    """(multiplicity, spectral multiplier) of each distinct partial derivative of the given order.

    The multiplicity is the multinomial count of the multi-index; summed with
    it, the squared components give the squared Frobenius norm of the
    derivative tensor (the squared gradient magnitude at order 1).
    """
    _, _, kds = _rfft_wavenumbers(spec)
    terms = []
    for idx in combinations_with_replacement(range(spec.d), order):
        mult = factorial(order)
        for ax in range(spec.d):
            mult //= factorial(idx.count(ax))
        m = np.ones((), dtype=complex)
        for ax in idx:
            m = m * (1j * kds[ax])
        terms.append((mult, m))
    return terms


class _SquaredDerivatives:
    """Pointwise squared Frobenius norm of order-k derivatives, through one set of work arrays.

    One complex spectrum, one real component and one accumulator serve every
    derivative component of every field passed in (they are made again only
    when the grid changes), so a sequence of frames allocates nothing per
    component: each multiplier product goes into the spectrum, which _irfftn
    inverts in place into the component, and the weighted squares add up in
    the accumulator.  A call returns the accumulator, which the next call
    overwrites.
    """

    def __init__(self, orders):
        self.orders = tuple(orders)
        self.spec = None

    def __call__(self, fhat: np.ndarray, spec: GridSpec, order: int) -> np.ndarray:
        if spec != self.spec:
            self.spec = spec
            self.terms = {k: _derivative_terms(spec, k) for k in self.orders}
            self.spectrum = np.empty(ksq_array(spec).shape, dtype=complex)
            self.component = np.empty(spec.shape)
            self.total = np.empty(spec.shape)
        for i, (mult, m) in enumerate(self.terms[order]):
            part = self.component if i else self.total
            _irfftn(np.multiply(m, fhat, out=self.spectrum), spec, out=part)
            np.square(part, out=part)
            if mult != 1:
                part *= mult
            if i:
                self.total += part
        return self.total


def gradient(f: Field) -> tuple:
    """Spectral gradient; returns one Field per axis."""
    fhat = _rfftn(f.values, f.spec)
    return tuple(Field(f.spec, _irfftn(1j * kd * fhat, f.spec)) for kd in _rfft_wavenumbers(f.spec)[2])


def laplacian(f: Field) -> Field:
    """Spectral Laplacian (full multiplier -|k|^2, Nyquist included)."""
    ksq = ksq_array(f.spec)
    return Field(f.spec, _irfftn(-ksq * _rfftn(f.values, f.spec), f.spec))


def gradient_magnitude(f: Field) -> Field:
    squares = _SquaredDerivatives((1,))(_rfftn(f.values, f.spec), f.spec, 1)
    return Field(f.spec, np.sqrt(squares, out=squares))


def derivative_sup(f: Field, order: int) -> float:
    """Sup over sites of the pointwise Frobenius norm of the order-k derivative tensor."""
    if order == 0:
        return lp_norm(f, np.inf)
    return float(np.sqrt(np.max(_SquaredDerivatives((order,))(_rfftn(f.values, f.spec), f.spec, order))))


@lru_cache(maxsize=64)
def _dealias_mask(spec: GridSpec) -> np.ndarray:
    """Zeros on the top third of the spectrum (pseudo-spectral 2/3 rule)."""
    N, d = spec.N, spec.d
    cut = N // 3
    mask = np.ones((), dtype=float)
    for ax in range(d):
        if ax == d - 1:
            m = np.arange(N // 2 + 1)
        else:
            m = np.abs(np.fft.fftfreq(N) * N)
        keep = (m <= cut).astype(float)
        shape = [1] * d
        shape[ax] = len(keep)
        mask = mask * keep.reshape(shape)
    mask.setflags(write=False)
    return mask


def shift_field(f: Field, cells: tuple) -> Field:
    """f(. + eps) for a lattice shift eps = cells * dx (periodic roll)."""
    return Field(f.spec, np.roll(f.values, shift=[-c for c in cells], axis=range(f.spec.d)))


# --- binary I/O -------------------------------------------------------------

_FIELD_HEADER = struct.Struct("<4sIIQd")
_TRAJ_EXTRA = struct.Struct("<Qdd")


def write_field(f: Field, path) -> None:
    """Row-major little-endian float64 field file (bit-exact round trip)."""
    with open(path, "wb") as fh:
        fh.write(_FIELD_HEADER.pack(FIELD_MAGIC, FORMAT_VERSION, f.spec.d, f.spec.N, f.spec.L_box))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def _read_header(fh, magic):
    raw = fh.read(_FIELD_HEADER.size)
    if len(raw) != _FIELD_HEADER.size:
        raise FieldFormatError("truncated header")
    mg, ver, d, N, L_box = _FIELD_HEADER.unpack(raw)
    if mg != magic:
        raise FieldFormatError(f"bad magic {mg!r}, expected {magic!r}")
    if ver != FORMAT_VERSION:
        raise FieldFormatError(f"unsupported version {ver}")
    try:
        spec = GridSpec(d=d, N=N, L_box=L_box)
    except BadArgumentError as e:
        raise DimensionMismatchError(str(e)) from e
    return spec


def _read_values(fh, spec):
    n = spec.n_sites
    raw = fh.read(8 * n)
    if len(raw) != 8 * n:
        raise FieldFormatError("truncated payload")
    return np.frombuffer(raw, dtype="<f8").reshape(spec.shape)


def read_field(path) -> Field:
    with open(path, "rb") as fh:
        spec = _read_header(fh, FIELD_MAGIC)
        values = _read_values(fh, spec)
        if fh.read(1):
            raise FieldFormatError("trailing bytes after payload")
    return Field(spec, values)


def write_spacetime(stf: SpaceTimeField, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_FIELD_HEADER.pack(TRAJ_MAGIC, FORMAT_VERSION, stf.spec.d, stf.spec.N, stf.spec.L_box))
        fh.write(_TRAJ_EXTRA.pack(stf.n_frames, stf.dt, stf.t0))
        for f in stf.frames:
            fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_spacetime(path) -> SpaceTimeField:
    with open(path, "rb") as fh:
        spec = _read_header(fh, TRAJ_MAGIC)
        raw = fh.read(_TRAJ_EXTRA.size)
        if len(raw) != _TRAJ_EXTRA.size:
            raise FieldFormatError("truncated trajectory header")
        n_frames, dt, t0 = _TRAJ_EXTRA.unpack(raw)
        frames = [Field(spec, _read_values(fh, spec)) for _ in range(n_frames)]
        if fh.read(1):
            raise FieldFormatError("trailing bytes after payload")
    return SpaceTimeField(spec=spec, dt=dt, frames=tuple(frames), t0=t0)
