"""Output fingerprints and their comparison with recorded references.

A fingerprint reduces a field to a few numbers, each 1-Lipschitz in the sup
norm of the field (RMS, max |x|, mean, a signed +-1 weighted mean, two site
values).  Two fields within delta of each other in the sup norm therefore
have every fingerprint entry within delta, which lets one tolerance serve the
field and its fingerprint.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

SPECTRAL_RTOL = 1e-12


@lru_cache(maxsize=8)
def _signs(n):
    signs = np.random.default_rng(20130708).choice([-1.0, 1.0], size=n)
    signs.setflags(write=False)
    return signs


def fingerprint(values, full=True):
    x = np.asarray(values, dtype=float).ravel()
    fp = {
        "rms": math.sqrt(float(np.dot(x, x)) / x.size),
        "wmean": float(np.dot(_signs(x.size), x)) / x.size,
        "x0": float(x[0]),
    }
    if full:
        fp["max_abs"] = float(np.max(np.abs(x)))
        fp["mean"] = float(np.mean(x))
        fp["x_third"] = float(x[x.size // 3])
    return fp


def compare(observed, reference, rtol=SPECTRAL_RTOL, atol=None, path="", scale=None):
    """Mismatch messages between an observed and a recorded output tree.

    Numbers match within rtol relative to max(|reference|, scale), where a
    fingerprint's scale is its RMS, or within atol when given.  Strings and
    booleans must be equal.  A non-finite observed number never matches.
    """
    if isinstance(reference, dict):
        if not isinstance(observed, dict):
            return [f"{path}: expected a mapping, got {observed!r}"]
        sub_scale = reference.get("rms", scale)
        out = []
        for key, ref in reference.items():
            if key not in observed:
                out.append(f"{path}/{key}: missing")
            else:
                out += compare(observed[key], ref, rtol, atol, f"{path}/{key}", sub_scale)
        return out
    if isinstance(reference, list):
        if not isinstance(observed, list) or len(observed) != len(reference):
            return [f"{path}: expected {len(reference)} entries"]
        out = []
        for i, (o, r) in enumerate(zip(observed, reference)):
            out += compare(o, r, rtol, atol, f"{path}[{i}]", scale)
        return out
    if isinstance(reference, (bool, str)) or reference is None:
        return [] if observed == reference else [f"{path}: {observed!r} != {reference!r}"]
    if not isinstance(observed, (int, float)) or not math.isfinite(observed):
        return [f"{path}: non-finite or non-numeric {observed!r}"]
    allowed = atol if atol is not None else rtol * max(abs(reference), abs(scale or 0.0))
    if abs(observed - reference) > allowed:
        return [f"{path}: {observed!r} vs reference {reference!r} (allowed {allowed:.3g})"]
    return []
