#!/usr/bin/env python3
"""Trace-driven figures: turn the simulator's trace surfaces into SVG.

Stdlib-only (json + struct + string formatting — no matplotlib), so it
runs in the offline container. Five inputs, four figures (emit any
subset):

  --store store.scts         columnar SCTS store (fig4/fig5/sweep/fleet
                             binaries, `--store <path>`; see
                             docs/TRACESTORE.md): same session figure as
                             --trace, decoded from the compact binary
                             export instead of JSONL.
  --trace trace.jsonl        per-event session stream (fig4/fig5/sweep
                             binaries, `--trace <path>`): queue depth over
                             time (step line) + cumulative VM hires per
                             tier on a second panel, sharing the time axis.
  --cell-trace cells.jsonl   per-cell sweep summaries (`sweep --cell-trace
                             <path>`): the scaling-decision mix of every
                             grid cell as a normalised stacked bar.
  --metrics out.jsonl        metrics-registry dump (binaries' `--metrics
                             <path>`): the windowed time series — fleet
                             utilisation, per-tier spend rate, mean queue
                             depth — as three panels over sim time.
  --spans spans.json.txt     critical-path report (binaries' `--spans
                             <path>` writes it at `<path>.txt`; see
                             docs/SPANS.md): the slowest jobs' latency
                             decomposition as stacked segment bars.

  python3 scripts/plot_traces.py --store /tmp/fig4.scts \
      --cell-trace /tmp/cells.jsonl --metrics /tmp/out.jsonl --out-dir plots/

writes plots/session.svg, plots/decisions.svg, plots/metrics.svg and
plots/spans.svg. Field
meanings are documented in docs/TRACE_SCHEMA.md, docs/TRACESTORE.md,
docs/METRICS.md and docs/SPANS.md; regenerate the inputs with

  cargo run --release -p scan-bench --bin sweep -- \
      --trace /tmp/trace.jsonl --cell-trace /tmp/cells.jsonl
  cargo run --release -p scan-bench --bin fig4 -- --quick \
      --store /tmp/fig4.scts --metrics /tmp/out.jsonl --spans /tmp/spans.json
"""

import argparse
import json
import os
import struct
import sys

# ----------------------------------------------------------------------
# Tiny SVG canvas
# ----------------------------------------------------------------------

FONT = "font-family='Helvetica,Arial,sans-serif'"


class Svg:
    def __init__(self, width, height):
        self.w, self.h = width, height
        self.parts = [
            f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
            f"height='{height}' viewBox='0 0 {width} {height}'>",
            f"<rect width='{width}' height='{height}' fill='white'/>",
        ]

    def line(self, x1, y1, x2, y2, color="#888", width=1, dash=None):
        d = f" stroke-dasharray='{dash}'" if dash else ""
        self.parts.append(
            f"<line x1='{x1:.1f}' y1='{y1:.1f}' x2='{x2:.1f}' y2='{y2:.1f}' "
            f"stroke='{color}' stroke-width='{width}'{d}/>"
        )

    def polyline(self, pts, color, width=1.2):
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        self.parts.append(
            f"<polyline points='{path}' fill='none' stroke='{color}' "
            f"stroke-width='{width}'/>"
        )

    def rect(self, x, y, w, h, color, title=None):
        t = f"<title>{title}</title>" if title else ""
        self.parts.append(
            f"<rect x='{x:.1f}' y='{y:.1f}' width='{w:.2f}' height='{h:.1f}' "
            f"fill='{color}'>{t}</rect>"
        )

    def text(self, x, y, s, size=11, color="#222", anchor="start", rotate=None):
        r = f" transform='rotate({rotate} {x:.1f} {y:.1f})'" if rotate else ""
        self.parts.append(
            f"<text x='{x:.1f}' y='{y:.1f}' {FONT} font-size='{size}' "
            f"fill='{color}' text-anchor='{anchor}'{r}>{s}</text>"
        )

    def write(self, path):
        self.parts.append("</svg>")
        with open(path, "w") as f:
            f.write("\n".join(self.parts) + "\n")


def ticks(lo, hi, n=5):
    """~n round tick positions covering [lo, hi]."""
    span = max(hi - lo, 1e-9)
    raw = span / n
    mag = 10 ** int(f"{raw:e}".split("e")[1])
    step = next(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    t, out = (int(lo / step)) * step, []
    while t <= hi + 1e-9:
        if t >= lo - 1e-9:
            out.append(t)
        t += step
    return out


def fmt(v):
    return f"{v:g}" if abs(v) < 1e5 else f"{v:.0e}"


# ----------------------------------------------------------------------
# SCTS store reader (docs/TRACESTORE.md "Export format (SCTS v3)")
# ----------------------------------------------------------------------

SCTS_MAGIC = b"SCTS"
SCTS_VERSION = 3
# Declared columns per table, in table order. Mirrors
# scan_tracestore::schema::columns(kind) for every kind of ALL_KINDS;
# tests/doc_contracts.rs (plot_traces_scts_schema_matches_the_store_layout)
# checks every table, name and type against it, and scripts/ci.sh also
# decodes a real fig4 export with read_scts.
# u = varint int, f = raw f64 LE, d = dictionary-encoded label.
SCTS_SCHEMA = [
    ("job_arrived", [("job", "u"), ("size_units", "f"), ("submitted_tu", "f")]),
    ("job_stage_advanced",
     [("job", "u"), ("stage", "u"), ("shards", "u"), ("cores", "u")]),
    ("job_completed",
     [("job", "u"), ("latency_tu", "f"), ("reward", "f"), ("core_stages", "f")]),
    ("slo_violation", [("job", "u"), ("latency_tu", "f"), ("target_tu", "f")]),
    ("subtask_dispatched",
     [("job", "u"), ("stage", "u"), ("vm", "u"), ("cores", "u"),
      ("waited_tu", "f"), ("busy_tu", "f"), ("tier", "d")]),
    ("subtask_done", [("job", "u"), ("stage", "u"), ("vm", "u")]),
    ("vm_hired", [("vm", "u"), ("tier", "d"), ("cores", "u")]),
    ("vm_booted", [("vm", "u"), ("cores", "u")]),
    ("vm_reshaped",
     [("vm", "u"), ("tier", "d"), ("cores_from", "u"), ("cores_to", "u")]),
    ("vm_released", [("vm", "u"), ("tier", "d"), ("cores", "u")]),
    ("scaling_decision",
     [("stage", "u"), ("cores", "u"), ("queued_jobs", "u"),
      ("delay_cost", "f"), ("hire_cost", "f"), ("choice", "d")]),
    ("queue_depth", [("depth", "u")]),
    ("admission_deferred", [("jobs", "u"), ("backlog", "u")]),
    ("admission_resumed", [("jobs", "u"), ("backlog", "u")]),
    ("tier_settled", [("tier", "d"), ("cost", "f"), ("core_tu", "f")]),
    ("run_ended", [("events_dispatched", "u")]),
]


def _fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def read_scts(path):
    """Decode an SCTS v3 store into {tag: {column: list}}, with the
    implicit `t` (f64 TU) and `tenant` columns materialised and dict
    columns decoded straight to their labels. Verifies the digest and
    that the trailing order stream (one table index per event) names
    each table exactly as often as it has rows."""
    data = open(path, "rb").read()
    if len(data) < 16 or data[:4] != SCTS_MAGIC:
        raise ValueError(f"{path}: not an SCTS export")
    payload, trailer = data[:-8], data[-8:]
    if _fnv1a64(payload) != struct.unpack("<Q", trailer)[0]:
        raise ValueError(f"{path}: SCTS digest mismatch")
    version = struct.unpack("<I", payload[4:8])[0]
    if version != SCTS_VERSION:
        raise ValueError(f"{path}: unsupported SCTS version {version}")

    pos = 8

    def varint():
        nonlocal pos
        v = shift = 0
        while True:
            b = payload[pos]
            pos += 1
            v |= (b & 0x7F) << shift
            if not b & 0x80:
                return v
            shift += 7

    tables = {}
    for tag, spec in SCTS_SCHEMA:
        rows = varint()
        table = {name: [] for name in ["t", "tenant"] + [n for n, _ in spec]}
        tables[tag] = table
        if rows == 0:
            continue
        bits = 0
        for _ in range(rows):
            bits = (bits + varint()) & 0xFFFFFFFFFFFFFFFF
            table["t"].append(struct.unpack("<d", struct.pack("<Q", bits))[0])
        table["tenant"] = [varint() for _ in range(rows)]
        for name, ty in spec:
            if ty == "u":
                table[name] = [varint() for _ in range(rows)]
            elif ty == "f":
                table[name] = list(struct.unpack(f"<{rows}d", payload[pos:pos + 8 * rows]))
                pos += 8 * rows
            else:  # dict: label table, then one code per row
                labels = []
                for _ in range(varint()):
                    n = varint()
                    labels.append(payload[pos:pos + n].decode("utf-8"))
                    pos += n
                table[name] = [labels[varint()] for _ in range(rows)]
    counts = [len(tables[tag]["t"]) for tag, _ in SCTS_SCHEMA]
    order = payload[pos:pos + sum(counts)]
    pos += sum(counts)
    seen = [0] * len(SCTS_SCHEMA)
    for kind in order:
        if kind >= len(SCTS_SCHEMA):
            raise ValueError(f"{path}: SCTS order stream names table {kind}")
        seen[kind] += 1
    if seen != counts:
        raise ValueError(f"{path}: SCTS order stream disagrees with the tables")
    if pos != len(payload):
        raise ValueError(f"{path}: trailing bytes in SCTS payload")
    return tables


# ----------------------------------------------------------------------
# Figure 1: session timeline (queue depth + cumulative hires per tier)
# ----------------------------------------------------------------------

TIER_NAMES = {0: "private", 1: "public"}
TIER_COLORS = {"private": "#1f77b4", "public": "#d62728"}


def session_series_from_jsonl(path):
    """depth [(t, depth)] and label-keyed cumulative hires from JSONL."""
    depth, hires = [], {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            e = json.loads(line)
            kind = e.get("kind")
            if kind == "queue_depth":
                depth.append((e["t"], e["depth"]))
            elif kind == "vm_hired":
                label = TIER_NAMES.get(e["tier"], f"tier {e['tier']}")
                series = hires.setdefault(label, [])
                series.append((e["t"], (series[-1][1] if series else 0) + 1))
    return depth, hires


def session_series_from_store(path):
    """Same series as `session_series_from_jsonl`, from an SCTS store
    (the store's `vm_hired.tier` column already carries labels)."""
    tables = read_scts(path)
    qd = tables["queue_depth"]
    depth = list(zip(qd["t"], qd["depth"]))
    hires = {}
    for t, label in zip(tables["vm_hired"]["t"], tables["vm_hired"]["tier"]):
        series = hires.setdefault(label, [])
        series.append((t, (series[-1][1] if series else 0) + 1))
    return depth, hires


def plot_session(depth, hires, source, out_path):
    if not depth and not hires:
        print(f"no queue_depth/vm_hired events in {source}", file=sys.stderr)
        return False

    W, H, ML, MR, MT, GAP = 860, 460, 62, 18, 30, 46
    panel_h = (H - MT - GAP - 40) / 2
    t_max = max(
        [t for t, _ in depth] + [t for s in hires.values() for t, _ in s]
    )
    t_max = t_max or 1.0
    sx = lambda t: ML + (W - ML - MR) * t / t_max

    svg = Svg(W, H)
    svg.text(ML, 18, f"Session timeline — {os.path.basename(source)}", size=13)

    # Panel 1: queue depth (step line over event-driven samples).
    top1 = MT + 8
    d_max = max((d for _, d in depth), default=1) or 1
    sy1 = lambda d: top1 + panel_h * (1 - d / d_max)
    for tv in ticks(0, d_max):
        svg.line(ML, sy1(tv), W - MR, sy1(tv), "#eee")
        svg.text(ML - 6, sy1(tv) + 4, fmt(tv), size=10, anchor="end")
    # Event-driven samples can number in the hundreds of thousands; collapse
    # them to a per-pixel-column min/max envelope so the SVG stays small and
    # nothing a 1-px stroke could show is lost.
    cols = {}
    for t, d in depth:
        px = round(sx(t))
        lo, hi = cols.get(px, (d, d))
        cols[px] = (min(lo, d), max(hi, d))
    pts = []
    for px in sorted(cols):
        lo, hi = cols[px]
        pts.append((px, sy1(lo)))
        if hi != lo:
            pts.append((px, sy1(hi)))
    if pts:
        svg.polyline(pts, "#2ca02c")
    svg.text(ML, top1 - 4, "queued subtasks (all classes)", size=11, color="#2ca02c")

    # Panel 2: cumulative hires per tier.
    top2 = top1 + panel_h + GAP
    h_max = max((s[-1][1] for s in hires.values()), default=1) or 1
    sy2 = lambda n: top2 + panel_h * (1 - n / h_max)
    for tv in ticks(0, h_max):
        svg.line(ML, sy2(tv), W - MR, sy2(tv), "#eee")
        svg.text(ML - 6, sy2(tv) + 4, fmt(tv), size=10, anchor="end")
    for i, label in enumerate(sorted(hires)):
        series = hires[label]
        cols = {}  # cumulative count is monotone: last value per pixel wins
        for t, n in series:
            cols[round(sx(t))] = n
        pts, last = [(sx(0), sy2(0))], 0
        for px in sorted(cols):
            pts.append((px, sy2(last)))
            pts.append((px, sy2(cols[px])))
            last = cols[px]
        pts.append((sx(t_max), sy2(series[-1][1])))
        color = TIER_COLORS.get(label, "#555")
        svg.polyline(pts, color)
        svg.text(
            ML + 150 * i, top2 - 4,
            f"{label}: {series[-1][1]} hires", size=11, color=color,
        )
    if not hires:
        svg.text(ML, top2 - 4, "no vm_hired events", size=11, color="#999")

    # Shared time axis.
    axis_y = top2 + panel_h
    svg.line(ML, axis_y, W - MR, axis_y, "#444")
    for tv in ticks(0, t_max, 8):
        svg.line(sx(tv), axis_y, sx(tv), axis_y + 4, "#444")
        svg.text(sx(tv), axis_y + 16, fmt(tv), size=10, anchor="middle")
    svg.text((ML + W - MR) / 2, axis_y + 32, "simulation time (TU)", anchor="middle")

    svg.write(out_path)
    print(f"wrote {out_path} ({len(depth)} depth samples, "
          f"{sum(s[-1][1] for s in hires.values())} hires)")
    return True


# ----------------------------------------------------------------------
# Figure 2: decision mix across the sweep grid (stacked bars)
# ----------------------------------------------------------------------

CHOICES = ["hire_private", "hire_public", "reshape", "wait"]
CHOICE_COLORS = {
    "hire_private": "#1f77b4",
    "hire_public": "#d62728",
    "reshape": "#9467bd",
    "wait": "#bbbbbb",
}


def plot_decisions(cells_path, out_path):
    cells = []
    with open(cells_path) as f:
        for line in f:
            line = line.strip()
            if line:
                cells.append(json.loads(line))
    if not cells:
        print(f"no cell lines in {cells_path}", file=sys.stderr)
        return False

    ROW, ML, MR, MT, MB = 16, 320, 90, 56, 24
    W = 900
    H = MT + ROW * len(cells) + MB
    bar_w = W - ML - MR
    svg = Svg(W, H)
    svg.text(ML, 18, f"Scaling-decision mix per grid cell — "
             f"{os.path.basename(cells_path)}", size=13)
    for i, c in enumerate(CHOICES):  # legend
        x = ML + i * 150
        svg.rect(x, 26, 10, 10, CHOICE_COLORS[c])
        svg.text(x + 14, 35, c, size=10)

    for i, cell in enumerate(cells):
        y = MT + i * ROW
        counts = cell.get("stats", {}).get("decisions", {})
        total = sum(counts.get(c, 0) for c in CHOICES)
        label = (f'{cell.get("allocation", "?")} / {cell.get("scaling", "?")} '
                 f'/ int {cell.get("interval", "?")} / {cell.get("reward", "?")} '
                 f'/ p{cell.get("public_cost", "?")}')
        svg.text(ML - 6, y + ROW - 5, label, size=9, anchor="end")
        if total == 0:
            svg.text(ML + 4, y + ROW - 5, "no decisions", size=9, color="#999")
            continue
        x = ML
        for c in CHOICES:
            n = counts.get(c, 0)
            if n == 0:
                continue
            w = bar_w * n / total
            svg.rect(x, y + 2, w, ROW - 4, CHOICE_COLORS[c],
                     title=f"{label}: {c} = {n} ({100 * n / total:.1f}%)")
            x += w
        svg.text(W - MR + 6, y + ROW - 5, f"{total}", size=9, color="#555")

    svg.text(W - MR + 6, MT - 6, "total", size=9, color="#555")
    svg.write(out_path)
    print(f"wrote {out_path} ({len(cells)} cells)")
    return True


# ----------------------------------------------------------------------
# Figure 3: windowed metric series (utilisation, spend rate, queue depth)
# ----------------------------------------------------------------------

SPEND_COLORS = {"private": "#1f77b4", "public": "#d62728"}


def plot_metrics(metrics_path, out_path):
    """Render the registry dump's windowed series: one value per fixed
    sim-time window, x placed at the window's end."""
    series = {}  # metric name -> [(label, window_tu, points)]
    with open(metrics_path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            e = json.loads(line)
            if e.get("type") != "series":
                continue
            label = next(iter(e.get("labels", {}).values()), "")
            series.setdefault(e["metric"], []).append(
                (label, e["window_tu"], e["points"])
            )
    panels = [
        ("vm_utilisation", "fleet utilisation (busy/hired cores)", "#2ca02c"),
        ("tier_spend_rate", "spend rate (CU/TU)", None),
        ("queue_depth", "mean queued subtasks", "#9467bd"),
    ]
    present = [p for p in panels if p[0] in series]
    if not present:
        print(f"no series lines in {metrics_path}", file=sys.stderr)
        return False

    W, ML, MR, MT, GAP, PANEL = 860, 62, 18, 30, 40, 118
    H = MT + len(present) * (PANEL + GAP) + 30
    t_max = max(
        w * len(pts)
        for entries in series.values()
        for _, w, pts in entries
        if pts
    )
    t_max = t_max or 1.0
    sx = lambda t: ML + (W - ML - MR) * t / t_max

    svg = Svg(W, H)
    svg.text(ML, 18, f"Windowed metrics — {os.path.basename(metrics_path)}", size=13)

    for i, (name, title, color) in enumerate(present):
        top = MT + 12 + i * (PANEL + GAP)
        entries = series[name]
        v_max = max((v for _, _, pts in entries for v in pts), default=1) or 1
        sy = lambda v: top + PANEL * (1 - v / v_max)
        for tv in ticks(0, v_max, 4):
            svg.line(ML, sy(tv), W - MR, sy(tv), "#eee")
            svg.text(ML - 6, sy(tv) + 4, fmt(tv), size=10, anchor="end")
        for j, (label, w, pts) in enumerate(sorted(entries)):
            c = color or SPEND_COLORS.get(label, "#555")
            svg.polyline([(sx((k + 1) * w), sy(v)) for k, v in enumerate(pts)], c)
            tag = f"{title} [{label}]" if label else title
            svg.text(ML + 220 * j, top - 4, tag, size=11, color=c)
        axis_y = top + PANEL
        svg.line(ML, axis_y, W - MR, axis_y, "#444")
        for tv in ticks(0, t_max, 8):
            svg.line(sx(tv), axis_y, sx(tv), axis_y + 3, "#444")
            if i == len(present) - 1:
                svg.text(sx(tv), axis_y + 14, fmt(tv), size=10, anchor="middle")
    svg.text((ML + W - MR) / 2, H - 6, "simulation time (TU)", anchor="middle")

    svg.write(out_path)
    n_pts = sum(len(pts) for e in series.values() for _, _, pts in e)
    print(f"wrote {out_path} ({len(present)} panels, {n_pts} window points)")
    return True



# ----------------------------------------------------------------------
# Figure 4: critical-path spans (slowest jobs' stacked segment bars)
# ----------------------------------------------------------------------

SEGMENT_COLORS = {
    "admission_deferred": "#9467bd",
    "queue_wait": "#ff7f0e",
    "boot_wait": "#d62728",
    "reshape_penalty": "#8c564b",
    "service": "#1f77b4",
    "fan_in": "#2ca02c",
}


def read_spans_report(path):
    """Parses the `spans: slowest jobs` table of a `--spans <path>.txt`
    report (docs/SPANS.md): segment names come from the header row, so
    the figure tracks the taxonomy without a schema copy here."""
    jobs, segments = [], None
    with open(path) as f:
        lines = [l.rstrip("\n") for l in f if l.startswith("spans: ")]
    for i, line in enumerate(lines):
        cols = line[len("spans: "):].split()
        if cols[:4] == ["tenant", "job", "latency_tu", "stages"]:
            segments = cols[4:]
            for row in lines[i + 1:]:
                vals = row[len("spans: "):].split()
                if len(vals) != 4 + len(segments) or not vals[0].isdigit():
                    break
                jobs.append({
                    "tenant": int(vals[0]),
                    "job": int(vals[1]),
                    "latency_tu": float(vals[2]),
                    "stages": int(vals[3]),
                    "segments": [float(v) for v in vals[4:]],
                })
            break
    return segments, jobs


def plot_spans(report_path, out_path):
    segments, jobs = read_spans_report(report_path)
    if not jobs:
        print(f"no `spans: slowest jobs` table in {report_path}", file=sys.stderr)
        return False

    W, ML, MR, MT, ROW, GAP = 860, 150, 18, 56, 26, 8
    H = MT + len(jobs) * (ROW + GAP) + 58
    t_max = max(j["latency_tu"] for j in jobs) or 1.0
    sx = lambda v: (W - ML - MR) * v / t_max

    svg = Svg(W, H)
    svg.text(ML, 18, f"Critical paths — slowest {len(jobs)} jobs "
             f"({os.path.basename(report_path)})", size=13)
    # Legend: one swatch per segment kind that actually occurs.
    lx = ML
    occurring = [(k, i) for i, k in enumerate(segments)
                 if any(j["segments"][i] > 0 for j in jobs)]
    for name, _ in occurring:
        svg.rect(lx, 28, 10, 10, SEGMENT_COLORS.get(name, "#999"))
        svg.text(lx + 14, 37, name, size=10)
        lx += 14 + 7 * len(name) + 16

    for r, job in enumerate(jobs):
        y = MT + r * (ROW + GAP)
        svg.text(ML - 8, y + ROW - 8,
                 f"t{job['tenant']} job {job['job']}", size=11, anchor="end")
        x = ML
        for name, i in occurring:
            w = sx(job["segments"][i])
            if w <= 0:
                continue
            svg.rect(x, y, w, ROW, SEGMENT_COLORS.get(name, "#999"),
                     title=f"{name}: {job['segments'][i]:.3f} TU")
            x += w
        svg.text(x + 5, y + ROW - 8, f"{job['latency_tu']:.2f} TU", size=10,
                 color="#555")

    ax_y = MT + len(jobs) * (ROW + GAP) + 6
    svg.line(ML, ax_y, W - MR, ax_y, "#444")
    for t in ticks(0, t_max):
        svg.line(ML + sx(t), ax_y, ML + sx(t), ax_y + 4, "#444")
        svg.text(ML + sx(t), ax_y + 16, fmt(t), size=10, anchor="middle")
    svg.text((ML + W - MR) / 2, ax_y + 34, "latency decomposition (TU)",
             size=11, anchor="middle")
    svg.write(out_path)
    print(f"wrote {out_path} ({len(jobs)} jobs, {len(occurring)} segment kinds)")
    return True


# ----------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--store", help="columnar SCTS store (binaries' --store)")
    ap.add_argument("--trace", help="per-event session JSONL (binaries' --trace)")
    ap.add_argument("--cell-trace", help="per-cell sweep JSONL (sweep --cell-trace)")
    ap.add_argument("--metrics", help="metrics-registry JSONL (binaries' --metrics)")
    ap.add_argument("--spans", help="critical-path report (binaries' --spans writes <path>.txt)")
    ap.add_argument("--out-dir", default=".", help="directory for the SVGs")
    args = ap.parse_args()
    if not any((args.store, args.trace, args.cell_trace, args.metrics, args.spans)):
        ap.error("give --store, --trace, --cell-trace, --metrics and/or --spans")
    if args.store and args.trace:
        ap.error("--store and --trace both feed the session figure; give one")
    os.makedirs(args.out_dir, exist_ok=True)
    ok = True
    if args.store or args.trace:
        if args.store:
            depth, hires = session_series_from_store(args.store)
        else:
            depth, hires = session_series_from_jsonl(args.trace)
        ok &= plot_session(depth, hires, args.store or args.trace,
                           os.path.join(args.out_dir, "session.svg"))
    if args.cell_trace:
        ok &= plot_decisions(
            args.cell_trace, os.path.join(args.out_dir, "decisions.svg")
        )
    if args.metrics:
        ok &= plot_metrics(args.metrics, os.path.join(args.out_dir, "metrics.svg"))
    if args.spans:
        ok &= plot_spans(args.spans, os.path.join(args.out_dir, "spans.svg"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
