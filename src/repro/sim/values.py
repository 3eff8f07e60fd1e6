"""Register values in the warp-vectorized simulator.

A :class:`Val` is one *virtual register* as seen across every launched
thread: lane axis 0 has one entry per thread (or per warp, for warp-wide
tensor-core tiles), optional trailing axes hold tile data (MMA fragments).

Vals are mutable on purpose: the register-file fault hooks flip bits in a
Val's backing array *in place*, so any later use of that register observes
the corruption — exactly the semantics of a particle strike on an RF cell.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.arch.dtypes import DType


class Val:
    """A typed register value across all lanes.

    ``dtype is None`` marks a predicate register (boolean lanes).
    """

    __slots__ = ("data", "dtype", "vreg")

    def __init__(self, data: np.ndarray, dtype: Optional[DType], vreg: int) -> None:
        self.data = data
        self.dtype = dtype
        self.vreg = vreg

    @property
    def lanes(self) -> int:
        return self.data.shape[0]

    @property
    def tile_shape(self) -> Tuple[int, ...]:
        return self.data.shape[1:]

    @property
    def is_predicate(self) -> bool:
        return self.dtype is None

    def _ensure_writable(self) -> None:
        """Copy-on-write: registers restored from a replay tape share the
        tape's frozen arrays; the first mutation rebinds this Val (and only
        this Val) to a private writable copy, leaving the tape intact."""
        if not self.data.flags.writeable:
            self.data = self.data.copy()

    def flip_bit(self, lane: int, bit: int, element: int = 0) -> None:
        """Flip one bit of one lane's value (element indexes into the tile
        for warp-wide values; 0 for ordinary scalars)."""
        self._ensure_writable()
        if self.is_predicate:
            flat = self.data.reshape(self.lanes, -1)
            flat[lane, element] = ~flat[lane, element]
            return
        bits_dtype = self.dtype.np_bits_dtype
        if bit < 0 or bit >= self.dtype.bits:
            raise ValueError(f"bit {bit} out of range for {self.dtype}")
        flat = self.data.reshape(self.lanes, -1)
        view = flat.view(bits_dtype)
        view[lane, element] ^= bits_dtype.type(1) << bits_dtype.type(bit)

    def set_value(self, lane: int, value, element: int = 0) -> None:
        """Overwrite one lane's element (random-value / zero fault models)."""
        self._ensure_writable()
        flat = self.data.reshape(self.lanes, -1)
        flat[lane, element] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "pred" if self.is_predicate else self.dtype.label
        return f"Val(vreg={self.vreg}, {kind}, shape={self.data.shape})"


def bitcast_random_value(dtype: DType, rng: np.random.Generator):
    """A uniformly random bit pattern reinterpreted in ``dtype`` — SASSIFI's
    'random value' fault model."""
    bits = rng.integers(0, 2 ** min(dtype.bits, 63), dtype=np.int64)
    raw = np.array([bits], dtype=np.uint64).astype(dtype.np_bits_dtype)
    return raw.view(dtype.np_dtype)[0]
