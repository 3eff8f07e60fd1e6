"""Device memory model: global allocations, per-block shared memory.

Buffers carry their ECC policy; the beam engine strikes them through
:meth:`MemoryPool.strike`, which consults the SECDED model to decide whether
the flip is delivered (ECC off), corrected, or escalates to a simulated
driver-level :class:`EccDoubleBitError` (DUE).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.dtypes import DType
from repro.arch.ecc import EccOutcome, SecdedModel
from repro.common.errors import ConfigurationError
from repro.sim.exceptions import EccDoubleBitError


class DeviceBuffer:
    """A global-memory allocation visible to every thread."""

    space = "global"

    def __init__(self, name: str, data: np.ndarray, dtype: DType) -> None:
        if data.dtype != dtype.np_dtype:
            raise ConfigurationError(
                f"buffer {name!r}: array dtype {data.dtype} != declared {dtype.label}"
            )
        self.name = name
        self.data = data
        self.dtype = dtype
        # ``data`` is never rebound (strikes and host uploads mutate it in
        # place), so the flattened view and element count can be built once
        # and reused by the load/store hot path
        self._flat = data.reshape(-1)
        self.elements = int(data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def flat(self) -> np.ndarray:
        return self._flat

    def flip_bit(self, element: int, bit: int) -> None:
        """Flip one bit of one element in place."""
        if not 0 <= element < self.elements:
            raise ConfigurationError(f"element {element} outside buffer {self.name!r}")
        if not 0 <= bit < self.dtype.bits:
            raise ConfigurationError(f"bit {bit} out of range for {self.dtype}")
        view = self.flat().view(self.dtype.np_bits_dtype)
        view[element] ^= self.dtype.np_bits_dtype.type(1) << self.dtype.np_bits_dtype.type(bit)


class SharedBuffer(DeviceBuffer):
    """Per-block shared memory: axis 0 is the block index.

    ``data`` has shape (blocks, *per_block_shape); a thread addresses only
    its own block's slice, which the context enforces at load/store time.
    """

    space = "shared"

    def __init__(self, name: str, data: np.ndarray, dtype: DType) -> None:
        if data.ndim < 2:
            raise ConfigurationError("shared buffers need a leading block axis")
        super().__init__(name, data, dtype)

    @property
    def blocks(self) -> int:
        return int(self.data.shape[0])

    @property
    def elements_per_block(self) -> int:
        return int(np.prod(self.data.shape[1:]))

    @property
    def bytes_per_block(self) -> int:
        return self.elements_per_block * self.dtype.bytes


class MemoryPool:
    """All live allocations of one kernel run, with their ECC policy.

    Provides the beam engine a uniform way to (a) weight strike targets by
    footprint and (b) apply a strike with the correct ECC semantics.
    """

    def __init__(self, ecc: SecdedModel) -> None:
        self.ecc = ecc
        self._buffers: List[DeviceBuffer] = []

    def register(self, buffer: DeviceBuffer) -> DeviceBuffer:
        if any(b.name == buffer.name for b in self._buffers):
            raise ConfigurationError(f"duplicate buffer name {buffer.name!r}")
        self._buffers.append(buffer)
        return buffer

    @property
    def buffers(self) -> Sequence[DeviceBuffer]:
        return tuple(self._buffers)

    def get(self, name: str) -> DeviceBuffer:
        for buffer in self._buffers:
            if buffer.name == name:
                return buffer
        raise ConfigurationError(f"no buffer named {name!r}")

    #: page granularity for the mapped-span model (CUDA allocations are
    #: padded to large pages; accesses inside the padding do not fault)
    PAGE_BYTES = 64 * 1024

    @property
    def mapped_span_bytes(self) -> int:
        """Total mapped byte span of the global address space.

        A corrupted address landing inside this span hits *some* mapped
        page — another allocation or padding — and silently reads garbage
        or corrupts a victim word, as on real hardware; only addresses
        beyond it raise ``IllegalAddressError``.
        """
        pages = sum(
            (b.nbytes + self.PAGE_BYTES - 1) // self.PAGE_BYTES
            for b in self._buffers
            if b.space == "global"
        )
        return max(1, pages) * self.PAGE_BYTES

    def wild_read_bits(self, byte_addr: np.ndarray) -> np.ndarray:
        """Deterministic garbage for reads of mapped-but-foreign addresses."""
        mixed = (byte_addr.astype(np.int64) * 2654435761) & 0x7FFFFFFF
        return mixed

    def wild_store(self, byte_addr: int, rng_like: int) -> Optional[DeviceBuffer]:
        """A store to a mapped-but-foreign address corrupts a victim word of
        some allocation (silent data corruption of neighbor data).  Returns
        the victim buffer, which may be any global plane (None when there
        is none)."""
        victims = [b for b in self._buffers if b.space == "global"]
        if not victims:
            return None
        buffer = victims[byte_addr % len(victims)]
        element = (byte_addr // buffer.dtype.bytes) % buffer.elements
        bit = (byte_addr ^ rng_like) % buffer.dtype.bits
        buffer.flip_bit(int(element), int(bit))
        return buffer

    def footprint_bits(self, space: Optional[str] = None) -> int:
        return sum(b.nbytes * 8 for b in self._buffers if space is None or b.space == space)

    def choose_target(self, rng: np.random.Generator, space: Optional[str] = None) -> Tuple[DeviceBuffer, int]:
        """Pick a (buffer, element) uniformly over bits of the footprint."""
        candidates = [b for b in self._buffers if space is None or b.space == space]
        if not candidates:
            raise ConfigurationError(f"no buffers in space {space!r} to strike")
        weights = np.array([b.nbytes for b in candidates], dtype=np.float64)
        buffer = candidates[rng.choice(len(candidates), p=weights / weights.sum())]
        element = int(rng.integers(0, buffer.elements))
        return buffer, element

    def strike(self, rng: np.random.Generator, space: Optional[str] = None) -> EccOutcome:
        """Apply one particle strike to a random allocated word.

        Returns the ECC outcome.  Raises :class:`EccDoubleBitError` when the
        SECDED logic detects an uncorrectable upset (the caller records a
        DUE).  When the flip is delivered (ECC off) the buffer content is
        mutated in place and the kernel, if (re)run against this pool,
        consumes the corrupted data.
        """
        buffer, element = self.choose_target(rng, space)
        outcome = self.ecc.strike(rng)
        if outcome is EccOutcome.DETECTED_DUE:
            raise EccDoubleBitError(f"{buffer.space}:{buffer.name}")
        if outcome is EccOutcome.DELIVERED:
            bit = int(rng.integers(0, buffer.dtype.bits))
            buffer.flip_bit(element, bit)
        return outcome
