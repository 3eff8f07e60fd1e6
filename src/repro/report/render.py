"""Static HTML dashboard renderer for campaign-store extractions.

One self-contained page: inline CSS, inline SVG, zero JavaScript and zero
external fetches, so the artifact renders identically in a browser, a CI
artifact viewer, or ``file://`` on an air-gapped box.  Byte-determinism is
a contract, not an accident: the renderer is a pure function of the
extraction models (plus optional bench inputs) — no clocks, paths,
hostnames or backend names enter the output, which is what lets the
golden-snapshot suite assert byte equality across SQLite/JSONL backends
and any ``workers=`` the producing run used.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.report.extract import RunSlice, StoreExtract
from repro.report.paper import PAPER_DUE, PAPER_FIG6_AVERAGES
from repro.report.svg import (
    bar_chart,
    grouped_bar_chart,
    sparkline,
    stacked_outcome_chart,
)

_CSS = """
body { font-family: Inter, system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; padding: 0 1rem; color: #222; background: #fff; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #4878a8; padding-bottom: .4rem; }
h2 { font-size: 1.15rem; margin-top: 2.2rem; color: #2d4a66; }
h3 { font-size: .95rem; margin-bottom: .4rem; }
table { border-collapse: collapse; margin: .6rem 0 1rem; font-size: .85rem; }
th, td { border: 1px solid #d8dee4; padding: .3rem .6rem; text-align: right; }
th { background: #eef2f6; }
td:first-child, th:first-child { text-align: left; }
.cards { display: flex; flex-wrap: wrap; gap: .8rem; margin: 1rem 0; }
.card { border: 1px solid #d8dee4; border-radius: 6px; padding: .6rem 1rem;
        min-width: 7rem; background: #f8fafb; }
.card .v { font-size: 1.3rem; font-weight: 600; color: #2d4a66; }
.card .k { font-size: .75rem; color: #667; text-transform: uppercase; }
.note { color: #667; font-size: .8rem; }
.warn { color: #a33; font-weight: 600; }
figure { margin: .8rem 0; }
figcaption { font-size: .8rem; color: #556; margin-top: .2rem; }
code { background: #f0f3f6; padding: .1rem .3rem; border-radius: 3px; }
"""


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    if not rows:
        return "<p class='note'>no rows</p>"
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(_fmt(cell))}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _cards(items: Sequence[Tuple[str, Any]]) -> str:
    return "<div class='cards'>" + "".join(
        f"<div class='card'><div class='v'>{_esc(_fmt(v))}</div>"
        f"<div class='k'>{_esc(k)}</div></div>"
        for k, v in items
    ) + "</div>"


def _figure(svg: str, caption: str) -> str:
    if not svg:
        return ""
    return f"<figure>{svg}<figcaption>{_esc(caption)}</figcaption></figure>"


def _slice_anchor(index: int) -> str:
    return f"run-{index}"


# ---------------------------------------------------------------- sections
def _overview_section(extracts: Sequence[StoreExtract]) -> str:
    # chunk counts are partition artifacts (the same logical run chunks
    # differently under different worker counts), so the page only shows
    # task- and run-level numbers — that keeps the bytes worker-invariant
    tasks = sum(e.tasks for e in extracts)
    quarantined = sum(e.quarantined for e in extracts)
    runs = sum(len(e.slices) for e in extracts)
    cards = [
        ("stores", len(extracts)),
        ("runs", runs),
        ("tasks", tasks),
        ("quarantined chunks", quarantined),
    ]
    out = ["<h2>Overview</h2>", _cards(cards)]
    if quarantined:
        out.append(
            f"<p class='warn'>{quarantined} chunk(s) quarantined — their tasks "
            "are missing from every table below.</p>"
        )
    rows = [
        (item.label(), item.kind, item.evaluations(), item.quarantined)
        for extract in extracts
        for item in extract.slices
    ]
    out.append(_table(("run", "kind", "evaluations", "quarantined chunks"), rows))
    return "".join(out)


def _avf_section(slices: Sequence[RunSlice]) -> str:
    rows = []
    chart_rows = []
    for item in slices:
        counts = item.outcome_counts()
        avf = item.avf()
        rows.append(
            (
                item.label(),
                item.evaluations(),
                counts.get("masked", 0),
                counts.get("sdc", 0),
                counts.get("due", 0),
                round(avf.get("sdc", 0.0), 4),
                round(avf.get("due", 0.0), 4),
                item.contained_count(),
            )
        )
        chart_rows.append((item.label(), counts))
    out = [
        "<h2>AVF / outcome rates</h2>",
        "<p class='note'>Per-run outcome counts and program vulnerability "
        "factors (SDC / DUE fractions, paper §III-D). Beam runs show outcome "
        "rates per fault evaluation; absolute FITs additionally need the "
        "exposure's fluence, which lives in the run summary, not the store.</p>",
        _table(
            ("run", "evals", "masked", "sdc", "due", "AVF SDC", "AVF DUE", "contained"),
            rows,
        ),
        _figure(
            stacked_outcome_chart(chart_rows, "Outcome composition per run"),
            "Outcome composition per run (Figure 4 analogue). Right margin: "
            "SDC% / DUE%.",
        ),
    ]
    return "".join(out)


def _due_section(slices: Sequence[RunSlice]) -> str:
    rows = []
    causes: Dict[str, float] = {}
    for item in slices:
        domains = item.due_domains()
        breakdown = item.due_breakdown()
        for cause, count in breakdown.items():
            causes[cause] = causes.get(cause, 0) + count
        rows.append(
            (
                item.label(),
                sum(breakdown.values()),
                domains["core"],
                domains["uncore"],
                item.contained_count(),
                ", ".join(f"{c}={n}" for c, n in breakdown.items()) or "—",
            )
        )
    out = [
        "<h2>DUE provenance</h2>",
        "<p class='note'>Detected-unrecoverable events by cause and fault "
        "domain. Uncore causes (scheduler, interconnect, host interface) are "
        "the events architecture-level injectors cannot reach — the origin "
        "of the paper's §VII-B underestimation factors. "
        "<code>contained</code> counts sandbox-contained crashes classified "
        "as DUE rather than propagated.</p>",
        _table(("run", "DUE", "core", "uncore", "contained", "by cause"), rows),
        _figure(
            bar_chart(sorted(causes.items()), "DUE events by cause", color="#c44e52"),
            "Aggregate DUE events by cause across all runs.",
        ),
    ]
    return "".join(out)


def _sites_section(slices: Sequence[RunSlice]) -> str:
    out: List[str] = []
    for i, item in enumerate(slices):
        groups = item.by_group()
        ops = item.by_op()
        resources = item.by_resource()
        if not groups and not ops and not resources:
            continue
        if not out:
            out.append("<h2>Fault-site breakdowns</h2>")
        out.append(f"<h3 id='{_slice_anchor(i)}'>{_esc(item.label())}</h3>")
        if groups:
            out.append(_table(
                ("site group", "masked", "sdc", "due"),
                [(g, c["masked"], c["sdc"], c["due"]) for g, c in groups.items()],
            ))
        if ops:
            out.append(_figure(
                grouped_bar_chart(
                    [(op, (c["sdc"], c["due"])) for op, c in ops.items()],
                    ("SDC", "DUE"),
                    f"Outcomes by instruction class: {item.label()}",
                ),
                "Outcomes by struck instruction class (Figure 3 analogue).",
            ))
        if resources:
            out.append(_table(
                ("resource", "masked", "sdc", "due"),
                [(r, c["masked"], c["sdc"], c["due"]) for r, c in resources.items()],
            ))
            out.append(_figure(
                grouped_bar_chart(
                    [(r, (c["sdc"], c["due"])) for r, c in resources.items()],
                    ("SDC", "DUE"),
                    f"Outcomes by beam resource: {item.label()}",
                ),
                "Outcomes by struck resource (Figure 5 analogue: per-resource "
                "SDC/DUE mix under exposure).",
            ))
    return "".join(out)


def _telemetry_section(slices: Sequence[RunSlice]) -> str:
    out: List[str] = []
    for item in slices:
        mix = item.instruction_mix()
        if not mix:
            continue
        if not out:
            out.append("<h2>Instruction mix</h2>")
            out.append(
                "<p class='note'>Dynamic instruction-class mix from the "
                "per-chunk telemetry counters (Figure 1 analogue) — the "
                "φ-weights of the FIT prediction.</p>"
            )
        total = sum(mix.values()) or 1.0
        out.append(_figure(
            bar_chart(
                [(name, round(100.0 * v / total, 2)) for name, v in mix.items()],
                f"Instruction mix: {item.label()}",
                color="#3fa07a",
            ),
            f"{item.label()} — share of dynamic instructions (%).",
        ))
    counter_rows = []
    for item in slices:
        sandbox = item.sandbox_counters()
        if sandbox:
            for name, value in sandbox.items():
                counter_rows.append((item.label(), name, int(value)))
    if counter_rows:
        out.append("<h2>Sandbox activity</h2>")
        out.append(
            "<p class='note'>Injection-sandbox counters merged across the "
            "run's chunks: crashes observed, contained, and escalated "
            "(docs/ROBUSTNESS.md).</p>"
        )
        out.append(_table(("run", "counter", "value"), counter_rows))
    return "".join(out)


def _paper_section() -> str:
    due_rows = [
        (device, ecc, f"{factor:,.0f}×")
        for (device, ecc), factor in sorted(PAPER_DUE.items())
    ]
    fig6_rows = [
        (arch, ecc, framework, f"{factor:+.1f}×")
        for (arch, ecc, framework), factor in sorted(PAPER_FIG6_AVERAGES.items())
    ]
    return "".join([
        "<h2>Paper reference values</h2>",
        "<p class='note'>Published factors to read the measured tables "
        "against (transcribed from the paper; see EXPERIMENTS.md for the "
        "full paper-vs-measured comparison).</p>",
        "<h3>§VII-B DUE underestimation factors</h3>",
        _table(("device", "ECC", "beam/prediction DUE factor"), due_rows),
        "<h3>Figure 6 average |beam/prediction| SDC factors</h3>",
        _table(("arch", "ECC", "framework", "average factor"), fig6_rows),
    ])


def _bench_section(
    bench: Optional[Dict[str, Any]], history: Optional[List[Dict[str, Any]]]
) -> str:
    out: List[str] = []
    if bench:
        out.append("<h2>Bench baseline</h2>")
        rows = []
        for layer, metrics in bench.get("layers", {}).items():
            if not isinstance(metrics, dict):
                continue
            for metric, values in metrics.items():
                if isinstance(values, dict) and "fast" in values:
                    rows.append(
                        (
                            layer,
                            metric,
                            values.get("fast", "—"),
                            values.get("reference", "—"),
                            metrics.get("speedup", "—"),
                        )
                    )
        out.append(_table(("layer", "metric", "fast", "reference", "speedup"), rows))
    if history:
        values = [
            float(entry["layers"]["campaign"]["injections_per_sec"]["fast"])
            for entry in history
            if isinstance(entry.get("layers", {}).get("campaign", {})
                          .get("injections_per_sec", {}).get("fast"), (int, float))
        ]
        if values:
            if not bench:
                out.append("<h2>Bench trajectory</h2>")
            out.append(_figure(
                sparkline(values, "Campaign throughput trajectory"),
                f"Campaign throughput across {len(values)} recorded "
                f"bench runs: {_fmt(values[0])} → {_fmt(values[-1])} inj/s "
                "(BENCH_history.jsonl).",
            ))
    return "".join(out)


# ---------------------------------------------------------------- entry point
def render_report(
    extracts: Sequence[StoreExtract],
    bench: Optional[Dict[str, Any]] = None,
    history: Optional[List[Dict[str, Any]]] = None,
    title: str = "Campaign store report",
) -> str:
    """Render one deterministic dashboard from store extractions.

    ``bench`` is a parsed ``BENCH_*.json`` baseline; ``history`` a list of
    parsed ``BENCH_history.jsonl`` entries (oldest first).  Both optional.
    """
    slices = [item for extract in extracts for item in extract.slices]
    body = [
        f"<h1>{_esc(title)}</h1>",
        "<p class='note'>Rendered from the durable campaign store alone — "
        "no re-execution. Deterministic: identical store content renders "
        "byte-identical HTML regardless of backend or worker count.</p>",
        _overview_section(extracts),
        _avf_section(slices) if slices else "",
        _due_section(slices) if slices else "",
        _sites_section(slices),
        _telemetry_section(slices),
        _bench_section(bench, history),
        _paper_section(),
    ]
    return (
        "<!DOCTYPE html>\n<html lang='en'><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>"
        + "".join(body)
        + "</body></html>\n"
    )
