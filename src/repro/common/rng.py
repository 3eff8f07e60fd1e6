"""Deterministic, named random-number streams.

Every stochastic subsystem (beam fault arrivals, injection-site sampling,
workload input generation) draws from its own named substream of a single
root seed, so (a) experiments are exactly reproducible, and (b) changing the
number of draws in one subsystem does not perturb another — a standard
parallel-RNG discipline (cf. the HPC guides' emphasis on reproducible
vectorized pipelines).
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np


#: memoized initial PCG64 states: (root_seed, name path) -> state dict.
#: Deriving a substream costs ~20us (SHA-256 + SeedSequence + PCG64 seeding);
#: reconstructing a fresh Generator from a cached initial state costs ~9us.
#: Campaigns derive one substream per injection and warm reruns / bench
#: repeats re-derive the exact same paths, so the cache roughly halves the
#: per-injection RNG overhead on every run after the first.
_STATE_CACHE: "dict[tuple[int, str], dict]" = {}
_STATE_CACHE_MAX = 8192

#: fixed entropy for the throwaway seeding that PCG64() needs before its
#: state is overwritten — building PCG64 from a prebuilt SeedSequence is
#: ~40% cheaper than letting it construct one
_DUMMY_SEED_SEQUENCE = np.random.SeedSequence(0)


def substream(root_seed: int, *names: object) -> np.random.Generator:
    """Return an independent Generator keyed by ``root_seed`` and a name path.

    The name path is hashed (SHA-256) into the SeedSequence entropy so that
    ``substream(s, "beam", "FADD")`` and ``substream(s, "beam", "FMUL")`` are
    statistically independent, and stable across processes and Python
    versions (unlike ``hash()``).

    Every call returns a FRESH generator positioned at the stream's start —
    cached and uncached calls are indistinguishable.
    """
    path = "/".join(str(n) for n in names)
    key = (root_seed, path)
    state = _STATE_CACHE.get(key)
    if state is None:
        digest = hashlib.sha256(path.encode("utf-8")).digest()
        keys = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        seq = np.random.SeedSequence([root_seed & 0xFFFFFFFF, *keys])
        gen = np.random.Generator(np.random.PCG64(seq))
        if len(_STATE_CACHE) >= _STATE_CACHE_MAX:
            _STATE_CACHE.clear()
        _STATE_CACHE[key] = gen.bit_generator.state
        return gen
    bit_generator = np.random.PCG64(_DUMMY_SEED_SEQUENCE)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


class RngFactory:
    """Factory bound to one root seed; hands out named substreams.

    >>> rngs = RngFactory(1234)
    >>> beam = rngs.stream("beam", "kepler")
    >>> fi = rngs.stream("faultsim", "nvbitfi", "mxm")
    """

    def __init__(self, root_seed: int = 0) -> None:
        if not isinstance(root_seed, int):
            raise TypeError("root_seed must be an int")
        self.root_seed = root_seed

    def stream(self, *names: object) -> np.random.Generator:
        return substream(self.root_seed, *names)

    def spawn(self, *names: object) -> "RngFactory":
        """Derive a child factory (e.g. one per experiment repetition)."""
        digest = hashlib.sha256(
            ("spawn/" + "/".join(str(n) for n in names)).encode("utf-8")
        ).digest()
        child = (self.root_seed ^ int.from_bytes(digest[:8], "little")) & 0x7FFFFFFFFFFFFFFF
        return RngFactory(child)

    def integer_seeds(self, count: int, *names: object) -> Iterator[int]:
        """Yield ``count`` independent integer seeds under a name path."""
        gen = self.stream("integer_seeds", *names)
        for value in gen.integers(0, 2**63 - 1, size=count, dtype=np.int64):
            yield int(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngFactory(root_seed={self.root_seed})"

