"""Interpreter: execute an assembled :class:`Program` on a KernelContext.

:class:`SassKernel` runs the program as lowered by :mod:`repro.sass.compiler`,
which maps every SASS instruction onto the corresponding context primitive,
so assembled kernels get the full treatment automatically:
instruction-accurate traces (profiling), injectable destinations (fault
simulation), and exposure accounting (beam experiments).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.arch.dtypes import DType
from repro.common.errors import ConfigurationError
from repro.sass.compiler import CompiledState, compiled_for
from repro.sass.program import Program
from repro.telemetry import get_telemetry


class SassKernel:
    """Binds a program to host inputs; usable wherever a kernel function is.

    ``inputs`` supplies the initial contents of (some) declared buffers;
    undeclared-in-inputs buffers are zero-initialized with ``shapes[name]``.
    ``outputs`` names the buffers returned from the run.

    Each run executes the program as lowered once by the closure compiler
    in :mod:`repro.sass.compiler` (cached on the program).
    """

    def __init__(
        self,
        program: Program,
        inputs: Mapping[str, np.ndarray],
        outputs: Sequence[str],
        shapes: Optional[Mapping[str, Tuple[int, ...]]] = None,
        dtypes: Optional[Mapping[str, DType]] = None,
    ) -> None:
        program.validate()
        self.program = program
        self.inputs = dict(inputs)
        self.outputs = tuple(outputs)
        self.shapes = dict(shapes or {})
        self.dtypes = dict(dtypes or {})
        for name in self.inputs:
            if name not in program.buffers:
                raise ConfigurationError(f"input {name!r} is not a declared buffer")
        for name in self.outputs:
            if name not in program.buffers:
                raise ConfigurationError(f"output {name!r} is not a declared buffer")
        for name in program.buffers:
            if name not in self.inputs and name not in self.shapes:
                raise ConfigurationError(
                    f"buffer {name!r} needs either input data or a declared shape"
                )
        # Intern inputs once: contiguous, final dtype.  ctx.alloc then only
        # pays one copy per run instead of convert+copy, and the canonical
        # array is shared (read-only by convention) across all runs.
        self._buffer_dtypes = {
            name: _buffer_dtype(self, name) for name in program.buffers
        }
        self._canonical = {
            name: np.ascontiguousarray(
                np.asarray(array), dtype=self._buffer_dtypes[name].np_dtype
            )
            for name, array in self.inputs.items()
        }

    def buffer_dtype(self, name: str) -> DType:
        return self._buffer_dtypes[name]

    def canonical_input(self, name: str) -> Optional[np.ndarray]:
        """The interned initial contents for ``name`` (None if zero-init)."""
        return self._canonical.get(name)

    # -- kernel protocol -----------------------------------------------------------
    def __call__(self, ctx) -> Dict[str, np.ndarray]:
        compiled = compiled_for(self.program)
        state = CompiledState(ctx, compiled, self)
        try:
            compiled.run(state)
        finally:
            # flush retired-instruction telemetry in one registry pass per
            # run (kept even when a simulated fault aborts the kernel)
            telemetry = get_telemetry()
            counts = state.counts
            keys = compiled.slot_keys
            for index, n in enumerate(counts):
                if n:
                    telemetry.count(keys[index], n)
        slots = compiled.buffer_slots
        return {
            name: ctx.read_buffer(state.bufs[slots[name]]) for name in self.outputs
        }

    #: run_kernel expects a ``kernel(ctx)`` callable; expose ourselves as one
    @property
    def kernel(self):
        return self


def _buffer_dtype(kernel: SassKernel, name: str) -> DType:
    if name in kernel.dtypes:
        return kernel.dtypes[name]
    if name in kernel.inputs:
        from repro.arch.dtypes import dtype_of_array

        return dtype_of_array(np.asarray(kernel.inputs[name]))
    return DType.FP32
