"""Seed-reproducible random measurement matrices.

Four families:

* ``gaussian``    - i.i.d. N(0, 1/m) entries (m = row count).
* ``sparse_sign`` - i.i.d. entries from {+1, 0, -1} with probabilities
                    {1/6, 2/3, 1/6}, scaled by sqrt(3/m); per-entry second
                    moment 1/m, same as gaussian.
* ``srtt``        - subsampled randomized trigonometric transform:
                    sqrt(n/m) * P * T * D with D a diagonal of random signs,
                    T the orthonormal type-II cosine transform, and P a
                    uniform row subsample without replacement (needs m <= n).
* ``identity``    - I_n (square only).

Every draw comes from a counter-based generator keyed by SHA-256 over
(seed, family, rows, cols), so materialization is a pure function of the spec:
the same spec gives the same matrix bit for bit no matter when, where, or in
what order matrices are built.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "FAMILIES",
    "EnsembleSpec",
    "derive_seed",
    "keyed_generator",
    "materialize",
]

# Stable ids, also used by the binary bundle format.
FAMILIES = {"identity": 0, "gaussian": 1, "sparse_sign": 2, "srtt": 3}
FAMILY_NAMES = {v: k for k, v in FAMILIES.items()}

_U64 = 0xFFFFFFFFFFFFFFFF


def _hash_bytes(*parts):
    """SHA-256 over a canonical little-endian encoding of ints and string tags."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, str):
            raw = p.encode("utf-8")
            h.update(struct.pack("<I", len(raw)))
            h.update(raw)
        else:
            h.update(struct.pack("<Q", int(p) & _U64))
    return h.digest()


def derive_seed(master, tag, *indices):
    """Derive a child seed from a master seed, a purpose tag, and integer indices.

    Used for the per-pair leave-one-out maps, the core maps, noise draws, and
    per-trial experiment seeds, so that each consumer's randomness is
    independent of every other's and of evaluation order.
    """
    return int.from_bytes(_hash_bytes(master, tag, *indices)[:8], "little")


@dataclass(frozen=True)
class EnsembleSpec:
    """Complete recipe for one measurement matrix."""

    family: str
    rows: int
    cols: int
    seed: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown ensemble family {self.family!r}")
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"matrix dimensions must be >= 1, got {self.rows}x{self.cols}")
        if self.family == "identity" and self.rows != self.cols:
            raise ConfigError("identity ensemble must be square")
        if self.family == "srtt" and self.rows > self.cols:
            raise ConfigError(
                f"srtt needs rows <= cols (subsample of an orthogonal transform), "
                f"got {self.rows}x{self.cols}"
            )


def keyed_generator(*parts):
    """Counter-based generator keyed by ints and string tags; order-independent by construction."""
    key = np.frombuffer(_hash_bytes(*parts)[:16], dtype="<u8")
    return np.random.Generator(np.random.Philox(key=key))


def _generator(spec):
    return keyed_generator(spec.seed, spec.family, spec.rows, spec.cols)


def _dct_rows(sel, n):
    # Selected rows of the n x n orthonormal type-II cosine transform,
    # built directly so we never form the full transform for large n.
    p = sel.astype(np.float64)[:, None]
    k = np.arange(n, dtype=np.float64)[None, :]
    t = np.cos(np.pi * (2.0 * k + 1.0) * p / (2.0 * n))
    t *= np.sqrt(2.0 / n)
    t[sel == 0, :] *= np.sqrt(0.5)
    return t


def materialize(spec):
    """Build the matrix an ``EnsembleSpec`` describes. Pure: equal specs give bitwise-equal results."""
    m, n = spec.rows, spec.cols
    if spec.family == "identity":
        return np.eye(n)
    rng = _generator(spec)
    if spec.family == "gaussian":
        return rng.standard_normal((m, n)) / np.sqrt(m)
    if spec.family == "sparse_sign":
        u = rng.random((m, n))
        signs = np.where(u < 1.0 / 6.0, 1.0, 0.0) - np.where(u >= 5.0 / 6.0, 1.0, 0.0)
        return signs * np.sqrt(3.0 / m)
    # srtt: fixed draw order (signs, then row subsample) for reproducibility
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    sel = rng.choice(n, size=m, replace=False)
    return np.sqrt(n / m) * (_dct_rows(sel, n) * signs[None, :])
