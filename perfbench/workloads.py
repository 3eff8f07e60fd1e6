"""The benchmark's workloads: call lists against the public facade.

A workload is an ordered list of :class:`Call` s.  One repeat issues them
as a closed loop with a single client: each ``repro.api.run_campaign`` /
``repro.api.run_beam`` call starts after the previous one returned, on
the serial executor, with ``policy=ExecutionPolicy(store=...)`` as the
only run option.  The seed builds the workload inputs (``get_workload``)
and is the root seed of every call, so the program only ever receives
generated inputs.

Every call's result folds into a SHA-256 digest: campaigns hash their
codec-encoded records, beams their FIT estimates, DUE breakdown and
per-resource tallies.  A repeat's digest is the hash of its call digests
in order, so ``warm`` (the cold call lists again, served from a populated
store) must reproduce the concatenated call digests of ``tape``,
``replay`` and ``beam``.

Sizes are chosen so one fresh-process repeat takes a few seconds on a
2-core host; see ``README.md`` for what each workload stresses.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: the checkout's source tree: the benchmark measures this copy of repro
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def use_source_tree() -> bool:
    """Put the checkout's ``src`` first on the import path; False when the
    checkout has no repro package to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


@dataclass(frozen=True)
class Call:
    """One public facade call: a campaign (``framework`` set) or a beam."""

    arch: str
    code: str
    framework: Optional[str] = None
    injections: int = 0
    ecc: str = "on"
    max_fault_evals: int = 0

    @property
    def kind(self) -> str:
        return "campaign" if self.framework is not None else "beam"

    def label(self) -> str:
        if self.kind == "campaign":
            return f"campaign:{self.arch}:{self.code}:{self.framework}:{self.injections}"
        return f"beam:{self.arch}:{self.code}:ecc-{self.ecc}:{self.max_fault_evals}"


#: the paper's Figure 5 exposures, minus QUICKSORT (see ``REPLAY``)
FIG5_EXPOSURES: Dict[Tuple[str, str], Sequence[str]] = {
    ("kepler", "off"): (
        "FHOTSPOT", "FLAVA", "FMXM", "NW", "MERGESORT", "FGEMM", "FYOLOV2", "FYOLOV3",
    ),
    ("kepler", "on"): (
        "FHOTSPOT", "FLAVA", "FMXM", "FLUD", "FGAUSSIAN", "CCL", "BFS", "NW",
        "MERGESORT", "FGEMM", "FYOLOV2", "FYOLOV3",
    ),
    ("volta", "off"): (
        "HMXM", "FMXM", "DMXM", "HLAVA", "FLAVA", "DLAVA", "HHOTSPOT", "FHOTSPOT",
        "DHOTSPOT",
    ),
    ("volta", "on"): (
        "HHOTSPOT", "FHOTSPOT", "DHOTSPOT", "HLAVA", "FLAVA", "DLAVA", "HMXM", "FMXM",
        "DMXM", "HGEMM", "FGEMM", "DGEMM", "HGEMM-MMA", "FGEMM-MMA", "HYOLOV3", "FYOLOV3",
    ),
}

#: the golden tape classifies ~99% of these injections, so batch and exec
#: carry the cost and replay is almost idle
TAPE: List[Call] = [
    Call(arch, code, framework, injections=2500)
    for arch, code, framework in (
        ("kepler", "FMXM", "sassifi"),
        ("kepler", "FLAVA", "sassifi"),
        ("kepler", "FMXM", "nvbitfi"),
        ("kepler", "FLAVA", "nvbitfi"),
        ("volta", "FMXM", "nvbitfi"),
        ("volta", "DMXM", "nvbitfi"),
        ("volta", "FLAVA", "nvbitfi"),
        ("volta", "DLAVA", "nvbitfi"),
    )
]

#: the tape classifies none of these (YOLO's custom compare skips batch
#: entirely), so forked replay runs and snapshot re-capture carry the cost.
#: QUICKSORT is left out: its replay cost follows its input permutation,
#: about 2x apart between seeds, and would drown the rest
REPLAY: List[Call] = [
    Call(arch, code, "nvbitfi", injections=200)
    for arch, code in (
        ("kepler", "NW"),
        ("kepler", "BFS"),
        ("kepler", "CCL"),
        ("kepler", "FGAUSSIAN"),
        ("kepler", "FLUD"),
        ("volta", "FYOLOV3"),
    )
]

#: per-strike replay with no batching, many contexts with little work each
BEAM: List[Call] = [
    Call(arch, code, ecc=ecc, max_fault_evals=30)
    for (arch, ecc), codes in FIG5_EXPOSURES.items()
    for code in codes
]

WORKLOADS: Dict[str, List[Call]] = {
    "tape": TAPE,
    "replay": REPLAY,
    "beam": BEAM,
    # the read path: every result is served from a store populated by the
    # cold call lists, so no fault is evaluated
    "warm": TAPE + REPLAY + BEAM,
}

#: the cold workloads whose call lists ``warm`` replays, in order
WARM_SOURCES = ("tape", "replay", "beam")

BEAM_HOURS = 72.0


def build_inputs(calls: Sequence[Call], seed: int) -> Dict[Tuple[str, str], object]:
    """One generated workload per (arch, code) named by the call list."""
    from repro.api import get_workload

    inputs: Dict[Tuple[str, str], object] = {}
    for call in calls:
        key = (call.arch, call.code)
        if key not in inputs:
            inputs[key] = get_workload(call.arch, call.code, seed=seed)
    return inputs


def run_calls(calls: Sequence[Call], inputs: Dict[Tuple[str, str], object], seed: int,
              policy, on_result: Callable, around: Optional[Callable] = None) -> List[object]:
    """Issue ``calls`` in order, each after the previous one returned.

    A call that raises is reported and leaves ``None`` in its result slot;
    the loop goes on.  ``around(fn, call=label)`` wraps each call (the
    tracer's root span)."""
    import repro.api as api

    results: List[object] = []
    for call in calls:

        def one(call=call):
            workload = inputs[call.arch, call.code]
            if call.kind == "campaign":
                return api.run_campaign(
                    workload, device=call.arch, framework=call.framework,
                    injections=call.injections, seed=seed, policy=policy,
                    on_result=on_result,
                )
            return api.run_beam(
                workload, device=call.arch, ecc=call.ecc, beam_hours=BEAM_HOURS,
                mode="expected", max_fault_evals=call.max_fault_evals, seed=seed,
                policy=policy, on_result=on_result,
            )

        try:
            results.append(one() if around is None else around(one, call=call.label()))
        except Exception:  # counted as a failed operation by the caller
            traceback.print_exc()
            results.append(None)
    return results


def result_digest(call: Call, result) -> str:
    """SHA-256 of everything the call's result reports."""
    if call.kind == "campaign":
        from repro.store.codec import encode_results

        document: object = encode_results(result.records)
    else:
        document = {
            "fit_sdc": _estimate(result.fit_sdc),
            "fit_due": _estimate(result.fit_due),
            "due_breakdown": result.due_breakdown(),
            "tallies": {
                name: [t.faults, t.sdc, t.due, t.due_causes]
                for name, t in result.tallies.items()
            },
            "single_fault_regime": result.single_fault_regime,
        }
    # floats serialise with every digit; sort_keys makes dict order irrelevant
    encoded = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _estimate(estimate) -> List[str]:
    return [repr(estimate.value), repr(estimate.lower), repr(estimate.upper)]


def fold(call_digests: Sequence[str]) -> str:
    """A workload's digest: the hash of its call digests, in call order."""
    return hashlib.sha256("\n".join(call_digests).encode("ascii")).hexdigest()
