"""Golden-digest corpus: one SHA-256 per Figure 4/5 cell.

The paper's Figures 4 and 5 rest on injection campaigns and beam runs
whose answers must not depend on how the simulator computes them.  Every
cell of both figures is run here at a small size — seed 0, 8 injections
per campaign, 6 mechanistic fault evaluations per beam exposure — plus
the FMXM memory-AVF sweep on both compiler backends, and hashed.  The two
injectors Figure 4 does not use are pinned the same way on K40c: CAROL-FI
on every Figure 4 Kepler code, and the uncore injector on every such code
with ECC on and off.
Figure 4's injectors corrupt instruction outputs, which ECC does not
protect, so a campaign's ECC ON and OFF cells share a digest; both are
kept so that ECC leaking into injector campaigns shows up here.

A cell's digest covers two documents:

* its result: a campaign's records as the store encodes them
  (:func:`repro.store.codec.encode_results`); a beam run's FIT estimates,
  DUE breakdown, per-resource tallies and single-fault-regime flag (the
  fields ``perfbench``'s ``result_digest`` hashes); a memory-AVF sweep's
  SDC and DUE rates;
* the counters and non-``span.*`` histograms of a
  :func:`~repro.telemetry.capture` around the call (``span.*`` histograms
  record wall-clock seconds).

The Figure 4/5 and memory-AVF literals were produced identically by both
simulator engines — the per-emit reference path with tree-walk SASS
dispatch, and the batched fast path with compiled dispatch; the CAROL-FI
and uncore literals by each injector's own injected-run code, before the
engines shared one.  They are the oracle any rewrite of the simulator's
hot paths or of the injected-run path is held to.  A pin may move only with an
intended change of behaviour; re-derive it by printing
``cell_digest(cell)`` and say in the change why it moved.  The uncore pins
moved once, when the injector began dispatching through :mod:`repro.exec`:
its records hash as before, and its counters gain the executor's
``exec.tasks`` (8 per cell).
"""

import hashlib
import json

import pytest

from repro.api import get_workload, run_beam, run_campaign
from repro.arch.devices import KEPLER_K40C
from repro.arch.ecc import EccMode
from repro.experiments.fig4 import FIG4_KEPLER, FIG4_VOLTA
from repro.experiments.fig5 import FIG5_CODES
from repro.faultsim.carolfi import CarolFi
from repro.faultsim.uncore import UncoreInjector
from repro.predict.model import measure_memory_avf
from repro.store.codec import encode_results
from repro.telemetry import capture

SEED = 0
INJECTIONS = 8
MAX_FAULT_EVALS = 6
BEAM_HOURS = 72.0
MEMORY_AVF_STRIKES = 8

_ECC = {"on": EccMode.ON, "off": EccMode.OFF}


def _cells():
    cells = {}
    for code in FIG4_KEPLER:
        for framework in ("sassifi", "nvbitfi"):
            for ecc in ("on", "off"):
                cells[f"fig4-kepler-{code}-{framework}-ecc-{ecc}"] = (
                    "campaign", "kepler", code, framework, ecc,
                )
    for code in FIG4_VOLTA:
        for ecc in ("on", "off"):
            cells[f"fig4-volta-{code}-nvbitfi-ecc-{ecc}"] = (
                "campaign", "volta", code, "nvbitfi", ecc,
            )
    for (arch, ecc), codes in FIG5_CODES.items():
        for code in codes:
            cells[f"fig5-{arch}-{code}-ecc-{ecc}"] = ("beam", arch, code, None, ecc)
    for code in FIG4_KEPLER:
        cells[f"carolfi-kepler-{code}"] = ("carolfi", "kepler", code, None, None)
        for ecc in ("on", "off"):
            cells[f"uncore-kepler-{code}-ecc-{ecc}"] = ("uncore", "kepler", code, None, ecc)
    for backend in ("cuda7", "cuda10"):
        cells[f"memavf-kepler-FMXM-{backend}"] = ("memavf", "kepler", "FMXM", backend, "off")
    return cells


CELLS = _cells()


def _estimate(estimate):
    return [repr(estimate.value), repr(estimate.lower), repr(estimate.upper)]


def _run(cell):
    kind, arch, code, variant, ecc = cell
    workload = get_workload(arch, code, seed=SEED)
    if kind == "campaign":
        result = run_campaign(
            workload, device=arch, framework=variant, injections=INJECTIONS,
            seed=SEED, ecc=_ECC[ecc],
        )
        return encode_results(result.records)
    if kind == "carolfi":
        result = CarolFi(KEPLER_K40C, seed=SEED).run(workload, INJECTIONS)
        return encode_results(result.records)
    if kind == "uncore":
        injector = UncoreInjector(KEPLER_K40C, seed=SEED, ecc=_ECC[ecc])
        return encode_results(injector.run(workload, INJECTIONS).records)
    if kind == "beam":
        result = run_beam(
            workload, device=arch, ecc=_ECC[ecc], beam_hours=BEAM_HOURS,
            mode="expected", max_fault_evals=MAX_FAULT_EVALS, seed=SEED,
        )
        return {
            "fit_sdc": _estimate(result.fit_sdc),
            "fit_due": _estimate(result.fit_due),
            "due_breakdown": result.due_breakdown(),
            "tallies": {
                name: [t.faults, t.sdc, t.due, t.due_causes]
                for name, t in result.tallies.items()
            },
            "single_fault_regime": result.single_fault_regime,
        }
    rates = measure_memory_avf(
        KEPLER_K40C, workload, backend=variant, strikes=MEMORY_AVF_STRIKES, seed=SEED
    )
    return [repr(rate) for rate in rates]


def cell_digest(cell) -> str:
    """SHA-256 of one cell's result and its captured telemetry."""
    with capture() as registry:
        result = _run(cell)
    snapshot = registry.snapshot()
    document = {
        "result": result,
        "counters": snapshot["counters"],
        "histograms": {
            name: data
            for name, data in snapshot["histograms"].items()
            if not name.startswith("span.")
        },
    }
    # floats serialise with every digit; sort_keys makes dict order irrelevant
    encoded = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


PINS = {
    "carolfi-kepler-BFS":
        "404727f37ba0e73640e482a500cc8e89db53c04c9b7c553483e178472e049cda",
    "carolfi-kepler-CCL":
        "5f25190be6c6656580a38629653454077b21924818df99fa018597806650b68d",
    "carolfi-kepler-FGAUSSIAN":
        "98dbbf730e805bf7ec7560c6deb41ae550ca738e9233ac921b0632b35a690480",
    "carolfi-kepler-FHOTSPOT":
        "66fff79e152209e185c543ddbfd1e3b704e16523ad8ff41ba88116393c159303",
    "carolfi-kepler-FLAVA":
        "52fdea9051c4d8b8487cc052afdad2f00c496db6268a8629fe9d614f01f715e3",
    "carolfi-kepler-FLUD":
        "54f00441317c1a469c42daa0984e5130f29a0f017e63a62cf0fce7d5841664f6",
    "carolfi-kepler-FMXM":
        "716814b60a337b4c7d44577b661282b87eff8dde2bca5996f3449c59ec18d16a",
    "carolfi-kepler-MERGESORT":
        "b02f4b0848cda4fed3bd7251701cc8d44b80bb031a7e7246ee63a81c0367a575",
    "carolfi-kepler-NW":
        "46661f44e2dd2991f69321aa806100b3f63de07c8540de5729ca953a0e32bb3c",
    "carolfi-kepler-QUICKSORT":
        "1ed1eefad976d549e4340395f85bee71231799775e2e794cfe81897690c11dbc",
    "fig4-kepler-BFS-nvbitfi-ecc-off":
        "94007e8040b37045dd0abdea705a1779f4846febf4bab7714698590c7b1c420f",
    "fig4-kepler-BFS-nvbitfi-ecc-on":
        "94007e8040b37045dd0abdea705a1779f4846febf4bab7714698590c7b1c420f",
    "fig4-kepler-BFS-sassifi-ecc-off":
        "0a3e4e5a5d7db20fb1857ea5e12dcf32b22a1b73b6b9de7536730bf96fa4a82e",
    "fig4-kepler-BFS-sassifi-ecc-on":
        "0a3e4e5a5d7db20fb1857ea5e12dcf32b22a1b73b6b9de7536730bf96fa4a82e",
    "fig4-kepler-CCL-nvbitfi-ecc-off":
        "e47c14c1ee08dce9341bbb798cf1a55b16b9ba7b8b142c2ec9e962bc274bfdeb",
    "fig4-kepler-CCL-nvbitfi-ecc-on":
        "e47c14c1ee08dce9341bbb798cf1a55b16b9ba7b8b142c2ec9e962bc274bfdeb",
    "fig4-kepler-CCL-sassifi-ecc-off":
        "c11f44b09eb984cdb79f5ee3aff72ff738d6caa250b67b998ed3903dc87c343b",
    "fig4-kepler-CCL-sassifi-ecc-on":
        "c11f44b09eb984cdb79f5ee3aff72ff738d6caa250b67b998ed3903dc87c343b",
    "fig4-kepler-FGAUSSIAN-nvbitfi-ecc-off":
        "93e11c66caac031137ceb2fbb10c0ec087edea316a6dd4d2df3bad4a2d502d0f",
    "fig4-kepler-FGAUSSIAN-nvbitfi-ecc-on":
        "93e11c66caac031137ceb2fbb10c0ec087edea316a6dd4d2df3bad4a2d502d0f",
    "fig4-kepler-FGAUSSIAN-sassifi-ecc-off":
        "79f7f616fbece5bcffe687dfcffa1e020c4dc3909219e4d1b6ed021c95f7f917",
    "fig4-kepler-FGAUSSIAN-sassifi-ecc-on":
        "79f7f616fbece5bcffe687dfcffa1e020c4dc3909219e4d1b6ed021c95f7f917",
    "fig4-kepler-FHOTSPOT-nvbitfi-ecc-off":
        "2c7581437fec072e004891c102390e719fb3c3af7f6e8c5575b4dbedcd2152fe",
    "fig4-kepler-FHOTSPOT-nvbitfi-ecc-on":
        "2c7581437fec072e004891c102390e719fb3c3af7f6e8c5575b4dbedcd2152fe",
    "fig4-kepler-FHOTSPOT-sassifi-ecc-off":
        "a1c492c344f4cacae90e90eb560b91496aa27af3a960a0f43b5d44e64eafb9fc",
    "fig4-kepler-FHOTSPOT-sassifi-ecc-on":
        "a1c492c344f4cacae90e90eb560b91496aa27af3a960a0f43b5d44e64eafb9fc",
    "fig4-kepler-FLAVA-nvbitfi-ecc-off":
        "04915965fa7a60b0520547f9dc2154c4de66ea93c9eff1771f27d6474e17c1ac",
    "fig4-kepler-FLAVA-nvbitfi-ecc-on":
        "04915965fa7a60b0520547f9dc2154c4de66ea93c9eff1771f27d6474e17c1ac",
    "fig4-kepler-FLAVA-sassifi-ecc-off":
        "05534da1bd40f23163d8aadaecb81b82284cda0bb26817a8b3d1653ee4ff8442",
    "fig4-kepler-FLAVA-sassifi-ecc-on":
        "05534da1bd40f23163d8aadaecb81b82284cda0bb26817a8b3d1653ee4ff8442",
    "fig4-kepler-FLUD-nvbitfi-ecc-off":
        "67f2dc004b1908ff4cedc0551564a7f9ef79d9f370a3088c88e8ef3bf4e14966",
    "fig4-kepler-FLUD-nvbitfi-ecc-on":
        "67f2dc004b1908ff4cedc0551564a7f9ef79d9f370a3088c88e8ef3bf4e14966",
    "fig4-kepler-FLUD-sassifi-ecc-off":
        "e63d15cdfe28770784ebd15cfe36e5d02bc6a03ab177d8b99b6cd4a24f5aec25",
    "fig4-kepler-FLUD-sassifi-ecc-on":
        "e63d15cdfe28770784ebd15cfe36e5d02bc6a03ab177d8b99b6cd4a24f5aec25",
    "fig4-kepler-FMXM-nvbitfi-ecc-off":
        "6f34cf18945b3bb74ae4484ce1eecaa0a0a50720c48c24cd5db3e18dd4183ef8",
    "fig4-kepler-FMXM-nvbitfi-ecc-on":
        "6f34cf18945b3bb74ae4484ce1eecaa0a0a50720c48c24cd5db3e18dd4183ef8",
    "fig4-kepler-FMXM-sassifi-ecc-off":
        "81bbd3cb338cf9c19d63d4070507652f745f4627222b2c72e99d2f244b83e674",
    "fig4-kepler-FMXM-sassifi-ecc-on":
        "81bbd3cb338cf9c19d63d4070507652f745f4627222b2c72e99d2f244b83e674",
    "fig4-kepler-MERGESORT-nvbitfi-ecc-off":
        "9bf184250d928a4de54d694966eb561c0ef85d6fd29c184e50aa0c0b61efdd85",
    "fig4-kepler-MERGESORT-nvbitfi-ecc-on":
        "9bf184250d928a4de54d694966eb561c0ef85d6fd29c184e50aa0c0b61efdd85",
    "fig4-kepler-MERGESORT-sassifi-ecc-off":
        "da4079b0a247d20cb34d3ad302bf0708bb57da46cf31fd68d93d250092d92a5d",
    "fig4-kepler-MERGESORT-sassifi-ecc-on":
        "da4079b0a247d20cb34d3ad302bf0708bb57da46cf31fd68d93d250092d92a5d",
    "fig4-kepler-NW-nvbitfi-ecc-off":
        "83d5b500805c25cc31f8e4dda0673a947f06fbc571f5894eabe12e4fb51f1780",
    "fig4-kepler-NW-nvbitfi-ecc-on":
        "83d5b500805c25cc31f8e4dda0673a947f06fbc571f5894eabe12e4fb51f1780",
    "fig4-kepler-NW-sassifi-ecc-off":
        "b7b987b64176d8b7d051c3b5fbcb3833cc137a081efc27ba598960fcb8feed16",
    "fig4-kepler-NW-sassifi-ecc-on":
        "b7b987b64176d8b7d051c3b5fbcb3833cc137a081efc27ba598960fcb8feed16",
    "fig4-kepler-QUICKSORT-nvbitfi-ecc-off":
        "49b4a26006d4e8dafb1bc6e610ae5a8bbbe3537fe4ec01ff3ef877eff1033368",
    "fig4-kepler-QUICKSORT-nvbitfi-ecc-on":
        "49b4a26006d4e8dafb1bc6e610ae5a8bbbe3537fe4ec01ff3ef877eff1033368",
    "fig4-kepler-QUICKSORT-sassifi-ecc-off":
        "dc13a2503b8b8b5366d37799c5ced582e7d3a23ce9e8ed8013968fc251618911",
    "fig4-kepler-QUICKSORT-sassifi-ecc-on":
        "dc13a2503b8b8b5366d37799c5ced582e7d3a23ce9e8ed8013968fc251618911",
    "fig4-volta-DGEMM-nvbitfi-ecc-off":
        "0e0b75c9472364d344a5b9b5ececf63e610dbbc3ff7928fb03d2bf372b1959ca",
    "fig4-volta-DGEMM-nvbitfi-ecc-on":
        "0e0b75c9472364d344a5b9b5ececf63e610dbbc3ff7928fb03d2bf372b1959ca",
    "fig4-volta-DHOTSPOT-nvbitfi-ecc-off":
        "8198554b56d5674e472002e0fdab3377a3d6a9ea9cdb88951966bc5c36b4870d",
    "fig4-volta-DHOTSPOT-nvbitfi-ecc-on":
        "8198554b56d5674e472002e0fdab3377a3d6a9ea9cdb88951966bc5c36b4870d",
    "fig4-volta-DLAVA-nvbitfi-ecc-off":
        "a0e052bbd3b973cc075132be3861adac15f8457894fb3fe53a9f44c7f0cd29e6",
    "fig4-volta-DLAVA-nvbitfi-ecc-on":
        "a0e052bbd3b973cc075132be3861adac15f8457894fb3fe53a9f44c7f0cd29e6",
    "fig4-volta-DMXM-nvbitfi-ecc-off":
        "1b0845b52d767fa1a877c334a88810a6c2c3f8e3ba90fa4e553a5ccd38b7c17d",
    "fig4-volta-DMXM-nvbitfi-ecc-on":
        "1b0845b52d767fa1a877c334a88810a6c2c3f8e3ba90fa4e553a5ccd38b7c17d",
    "fig4-volta-FGEMM-nvbitfi-ecc-off":
        "d65a649a5ffaa9d26565939a628ca441678bd48afa255e13d758fda064107c2e",
    "fig4-volta-FGEMM-nvbitfi-ecc-on":
        "d65a649a5ffaa9d26565939a628ca441678bd48afa255e13d758fda064107c2e",
    "fig4-volta-FHOTSPOT-nvbitfi-ecc-off":
        "33b29ad95f736cd6f89941a9954f98365b993ae18f15f47413848806c90a87d4",
    "fig4-volta-FHOTSPOT-nvbitfi-ecc-on":
        "33b29ad95f736cd6f89941a9954f98365b993ae18f15f47413848806c90a87d4",
    "fig4-volta-FLAVA-nvbitfi-ecc-off":
        "43d94e953d764809a6b853905a2c5e81f1bb3cb196b490198498d66c9653a175",
    "fig4-volta-FLAVA-nvbitfi-ecc-on":
        "43d94e953d764809a6b853905a2c5e81f1bb3cb196b490198498d66c9653a175",
    "fig4-volta-FMXM-nvbitfi-ecc-off":
        "103f2ce0f099c4b3bda7e6f1f2e9a6c2c4de6ae97c2d8ecd2371491fd5ce6756",
    "fig4-volta-FMXM-nvbitfi-ecc-on":
        "103f2ce0f099c4b3bda7e6f1f2e9a6c2c4de6ae97c2d8ecd2371491fd5ce6756",
    "fig4-volta-FYOLOV2-nvbitfi-ecc-off":
        "d2dd8c39634b418bbfd2c033db8d348c4876ddc6f4c922cfeccd81b9a6545c1c",
    "fig4-volta-FYOLOV2-nvbitfi-ecc-on":
        "d2dd8c39634b418bbfd2c033db8d348c4876ddc6f4c922cfeccd81b9a6545c1c",
    "fig4-volta-FYOLOV3-nvbitfi-ecc-off":
        "03807194046c41bdf0ea2ee2c7d8f43b1f8fbb03cedfc1c3899e0bec61b10893",
    "fig4-volta-FYOLOV3-nvbitfi-ecc-on":
        "03807194046c41bdf0ea2ee2c7d8f43b1f8fbb03cedfc1c3899e0bec61b10893",
    "fig5-kepler-BFS-ecc-on":
        "fff5a8fe44acd625194382cb5f23abe3d176d6cf8eee5f901bb43e578977fccc",
    "fig5-kepler-CCL-ecc-on":
        "b6412b8aebc28e3210d42a1e01af8687c208285510ea6efaa0dab74674e147f0",
    "fig5-kepler-FGAUSSIAN-ecc-on":
        "0d914e4bf251c6f745bcadcf3509051bf5f874aac3d86f5d8edb4bd409eb56f0",
    "fig5-kepler-FGEMM-ecc-off":
        "6825643eae51ef0517cc55cab2ea4e28168778dbf6c51d4d9d3f86bb30a0676c",
    "fig5-kepler-FGEMM-ecc-on":
        "ae89ae94a22b2001fccaf83eab506410f602dbe87dc9f8599df8c4a0bde1cbb5",
    "fig5-kepler-FHOTSPOT-ecc-off":
        "c41b61eca21345f6441a317e5a9c2464101a2b7d242fe526be1af53c23721709",
    "fig5-kepler-FHOTSPOT-ecc-on":
        "fc53faf88be219dcbb48cdf2a3e669ce714ec113a6a90a19ccd97749f44617ed",
    "fig5-kepler-FLAVA-ecc-off":
        "ed0ef105f328995029cd1707bf9fc08e5edef045a531a76ff35477a5d5aea919",
    "fig5-kepler-FLAVA-ecc-on":
        "c5115061ca627cce1b85d2ee0a7bbad1ecf188deaae24a5d1274ceaa0eb1207f",
    "fig5-kepler-FLUD-ecc-on":
        "2f5bf9fc2e226ccfca377edb045fa89cb76ab81c13914aa8bac2bedd3b70254a",
    "fig5-kepler-FMXM-ecc-off":
        "b834441f70228b1bab9633dd336bbb93d5fcbf07ab7e7ef5bdc13032a8468982",
    "fig5-kepler-FMXM-ecc-on":
        "c07fb0b291037e837d699e33dc96f71956efcef11994820f6daef68bd7507006",
    "fig5-kepler-FYOLOV2-ecc-off":
        "aed1a19929377fd4c89e40aa59b05960c06fd8f3e53f1105c2e23fd33143d05d",
    "fig5-kepler-FYOLOV2-ecc-on":
        "12c324670664aa441dfa26239ff56ee142f01d05e8cb50eba64ab67d01a1320b",
    "fig5-kepler-FYOLOV3-ecc-off":
        "464d3d6c5bc692cb8eb13168d330206c3d26d59b293c18d4d84d26de45080b12",
    "fig5-kepler-FYOLOV3-ecc-on":
        "26b5f6bdb948094d2b63eec57a2ebb23e8045fc724442c3b98a28faf03ef6003",
    "fig5-kepler-MERGESORT-ecc-off":
        "c9519256747f2d64bb2f4ecc88e231de09a2d25b3e61bbb6d85548fbd407f2aa",
    "fig5-kepler-MERGESORT-ecc-on":
        "91e7c5ec2444a15e6866ffbeacd263df7cc7737a7dbe154da16023a37e632fb0",
    "fig5-kepler-NW-ecc-off":
        "8ee78265675e43eba9f927162480779202afee6b4e9a6a9a34b1fd031dd0ce04",
    "fig5-kepler-NW-ecc-on":
        "eae1b8b034b1a69b8bc44e98fe9f964f8232e08463320c9357c3a12275af19c5",
    "fig5-kepler-QUICKSORT-ecc-off":
        "9c310fdca8f7c2dfcf7c2fd1548a3fc5f91db58c72015d82b8dc1a223f348152",
    "fig5-kepler-QUICKSORT-ecc-on":
        "3251b97b7fa4c7674eeff61d1648bd19e2775e8292033cbdfb8873227ad24444",
    "fig5-volta-DGEMM-ecc-on":
        "ee9d2d8404ee6c77f5b97e270d052be8810338e69871cab5c0047cebb6406307",
    "fig5-volta-DHOTSPOT-ecc-off":
        "2e66b8c251ce27f6d8f440093f00b39fb5f491b41c37cf8012ca294e4dee3298",
    "fig5-volta-DHOTSPOT-ecc-on":
        "46f02fdc7ccb6f7f64003deb6e006a73e7dc1f7a292dce9d4d9df55a215ebcbf",
    "fig5-volta-DLAVA-ecc-off":
        "196c69fe4457df98522946241dc62610af3ad4b666b5977ff7c6c05a3078e8e7",
    "fig5-volta-DLAVA-ecc-on":
        "d1e3c991656769578b2563eb0771b48a8a5f16c1b071be5e7fb59dc6ea979b2b",
    "fig5-volta-DMXM-ecc-off":
        "ea548ae497b23696c3cfabf9696fd521352906d3a341eb8514bf5e79007db1c9",
    "fig5-volta-DMXM-ecc-on":
        "c2de14efd1766949cbf8f2606278132476c9ce79cb16c6e8911f9d99c46ffab8",
    "fig5-volta-FGEMM-MMA-ecc-on":
        "526d1cc99285ef1127b80d2cdc7344f71e73daef9c89c4a57e7f83d84215d472",
    "fig5-volta-FGEMM-ecc-on":
        "3e97d5cb42910c1c5aac3dcceb83ce593e3c340f995aea671208faeea7fb9ac0",
    "fig5-volta-FHOTSPOT-ecc-off":
        "4a4caeef99c6a1bc6de2b92e90bb67f5e4771fe4baf63dcfe88d54f8d01e735a",
    "fig5-volta-FHOTSPOT-ecc-on":
        "ee8aa6d33b1af14c0b7bd38298c1a5baa5f8874acc9de846cd11a971cc951c35",
    "fig5-volta-FLAVA-ecc-off":
        "767c0f13f09043102e2b10e5821f63fac37405e4d46248b2a43ace80743f458e",
    "fig5-volta-FLAVA-ecc-on":
        "5ad2a91d0faee1421a9ba4b62c1ddfc81eeeb9b12a1f403d4d0603087f84728b",
    "fig5-volta-FMXM-ecc-off":
        "48fb4b758bc4835bfef2ab56cec86e766839c4ff39db177c64f5e59c2c5c6446",
    "fig5-volta-FMXM-ecc-on":
        "a545a728c4811385a3fb4ac77ea185fd132786fd554f3cba999534006ebb0066",
    "fig5-volta-FYOLOV3-ecc-on":
        "e4dcd4d5f9296fb699c0fbb97c191cb27d1d96ee2265d27b7830e0e48c304146",
    "fig5-volta-HGEMM-MMA-ecc-on":
        "956cbb7a400455c62e671d83f9b6a801ac8010c1977bb78359eacb4f43bd6c57",
    "fig5-volta-HGEMM-ecc-on":
        "9a87c79e121b3a90c4732d8741a24e299c3692ebb6b6597acde46445bf06d910",
    "fig5-volta-HHOTSPOT-ecc-off":
        "f5d3278687f3aca7c423e690e8fd6e19be7be74f780c9f0cb3f3bf9bf3a007af",
    "fig5-volta-HHOTSPOT-ecc-on":
        "6a6e98d8aabaf1412adf649b9252edcd2017a9bac38242966722ea0824abbb56",
    "fig5-volta-HLAVA-ecc-off":
        "c83e1950680c09f32989a2a0ff6c2d4a3a10868564bb13b06142cdeb320b5464",
    "fig5-volta-HLAVA-ecc-on":
        "6456a8c4adda1cc9f1fe001f125d6bd5b2cf0c820669653874812f8becd3d29e",
    "fig5-volta-HMXM-ecc-off":
        "bfe378286e662f7f99b43d4abbcf48e7fd77d1cb2a808ee3023d071f509364bc",
    "fig5-volta-HMXM-ecc-on":
        "f903bd50ea363d550009ac58e1dede26e8c186140e5bcf918e9016d004eb5efb",
    "fig5-volta-HYOLOV3-ecc-on":
        "40e61fca04c0999129072c87c539abc802fedea931b88f587a2fdbc6afade1af",
    "memavf-kepler-FMXM-cuda10":
        "ef7edc16e91a15d2269b8ef5a5a364ca10194c293a718d09a68ab4ae0c479599",
    "memavf-kepler-FMXM-cuda7":
        "a7dad550bcdc93f57e92824b28d2607860d54895dd23f3f53887575b86bc0eac",
    "uncore-kepler-BFS-ecc-off":
        "915b6331b1bd9dbd03cda0e44e29807fff9948a194efb059ec4af42f45180712",
    "uncore-kepler-BFS-ecc-on":
        "915b6331b1bd9dbd03cda0e44e29807fff9948a194efb059ec4af42f45180712",
    "uncore-kepler-CCL-ecc-off":
        "c683eb35973466b744595bad617eded67bb6a5575a78cf6ed345a381839c38af",
    "uncore-kepler-CCL-ecc-on":
        "c683eb35973466b744595bad617eded67bb6a5575a78cf6ed345a381839c38af",
    "uncore-kepler-FGAUSSIAN-ecc-off":
        "44816eb507e236029b6302c3152fff2253ffcaf12122855c9e275b3e046c939e",
    "uncore-kepler-FGAUSSIAN-ecc-on":
        "44816eb507e236029b6302c3152fff2253ffcaf12122855c9e275b3e046c939e",
    "uncore-kepler-FHOTSPOT-ecc-off":
        "475d3437647ae5481825148b611727c840df96ed2eeea826e993c100a8d94873",
    "uncore-kepler-FHOTSPOT-ecc-on":
        "475d3437647ae5481825148b611727c840df96ed2eeea826e993c100a8d94873",
    "uncore-kepler-FLAVA-ecc-off":
        "2eac43f6d6e552a139f0873976749eef52bb32ef4b1cb7a855318d1c58b773f4",
    "uncore-kepler-FLAVA-ecc-on":
        "2eac43f6d6e552a139f0873976749eef52bb32ef4b1cb7a855318d1c58b773f4",
    "uncore-kepler-FLUD-ecc-off":
        "2141f273bbe7ffbae993a5d6a51cf78a5d059f8d692c04c632a9a63cb7468851",
    "uncore-kepler-FLUD-ecc-on":
        "2141f273bbe7ffbae993a5d6a51cf78a5d059f8d692c04c632a9a63cb7468851",
    "uncore-kepler-FMXM-ecc-off":
        "c492f60df272b33fc45944dc1fb2b3f1417c0a6453d406e1aaca1bfaa2ece99a",
    "uncore-kepler-FMXM-ecc-on":
        "c492f60df272b33fc45944dc1fb2b3f1417c0a6453d406e1aaca1bfaa2ece99a",
    "uncore-kepler-MERGESORT-ecc-off":
        "2471ef9d44dac26ecd8083f537514668b04826cbf5464dd286c7f972e54102f0",
    "uncore-kepler-MERGESORT-ecc-on":
        "2471ef9d44dac26ecd8083f537514668b04826cbf5464dd286c7f972e54102f0",
    "uncore-kepler-NW-ecc-off":
        "b27e4645a5a040ed70d542ff728ce9ca7cd3991702eb7633949cea01d20d3178",
    "uncore-kepler-NW-ecc-on":
        "b27e4645a5a040ed70d542ff728ce9ca7cd3991702eb7633949cea01d20d3178",
    "uncore-kepler-QUICKSORT-ecc-off":
        "36e919f9b121380352b60f86b2cc35409736846d2fdc9d548fa6939cbee8b75b",
    "uncore-kepler-QUICKSORT-ecc-on":
        "36e919f9b121380352b60f86b2cc35409736846d2fdc9d548fa6939cbee8b75b",
}


def test_every_cell_is_pinned():
    assert sorted(PINS) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_pin(name):
    assert cell_digest(CELLS[name]) == PINS[name]
