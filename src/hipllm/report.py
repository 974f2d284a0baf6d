"""CSV, JSON, and SVG emission for inference reports.

CSV files carry the envelope and reliability tables with a header comment
referencing the master seed; JSON mirrors the full report together with the
resolved configuration; SVG is a minimal static rendering of each envelope
as a shaded band (no scripts, suitable for quick inspection only).
`write_csv` and `write_json` write every CSV and JSON file of the CLI.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, Optional

from .inference import InferenceReport

__all__ = ["emit_csv", "emit_json", "emit_svg", "report_to_dict", "write_csv", "write_json"]


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _write(path: str | Path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def write_csv(path: str | Path, header, rows, comment: Optional[str] = None) -> Path:
    """An optional `# comment` line, the header, then the rows: fields quoted
    where needed, every line ending in `\\n`.  Creates the directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_json(path: str | Path, doc) -> Path:
    """`doc` as indented JSON with a final newline.  Creates the directory."""
    return _write(path, json.dumps(doc, indent=2) + "\n")


def emit_csv(report: InferenceReport, out_dir: str | Path) -> Dict[str, Path]:
    """Write envelopes.csv and reliability.csv; returns the file paths."""
    out_dir = Path(out_dir)
    seed = f"master_seed={report.master_seed}"
    env_rows = (
        (level, entity, *map(_fmt, row))
        for (level, entity), band in report.bands.items()
        for row in zip(report.t, band.lower, band.upper)
    )
    rel_rows = (
        (level, entity, n_f, _fmt(lo), _fmt(hi))
        for (level, entity), band in report.bands.items()
        for n_f, lo, hi in zip(report.horizons, band.expected_lower, band.expected_upper)
    )
    env_header = ("level", "entity", "t", "lower", "upper")
    rel_header = ("level", "entity", "n_F", "expected_lower", "expected_upper")
    return {
        "envelopes": write_csv(out_dir / "envelopes.csv", env_header, env_rows, seed),
        "reliability": write_csv(out_dir / "reliability.csv", rel_header, rel_rows, seed),
    }


def report_to_dict(
    report: InferenceReport, config_echo: Dict[str, Any]
) -> Dict[str, Any]:
    """JSON-serializable mirror of the full report and its resolved config."""
    return {
        "master_seed": report.master_seed,
        "config": config_echo,
        "t": [float(v) for v in report.t],
        "envelopes": [
            {
                "level": level,
                "entity": entity,
                "lower": [float(v) for v in band.lower],
                "upper": [float(v) for v in band.upper],
            }
            for (level, entity), band in report.bands.items()
        ],
        "reliability": [
            {
                "level": level,
                "entity": entity,
                "horizons": list(report.horizons),
                "expected_lower": [float(v) for v in band.expected_lower],
                "expected_upper": [float(v) for v in band.expected_upper],
            }
            for (level, entity), band in report.bands.items()
        ],
    }


def emit_json(
    report: InferenceReport,
    out_dir: str | Path,
    config_echo: Dict[str, Any],
) -> Path:
    return write_json(Path(out_dir) / "report.json", report_to_dict(report, config_echo))


_SVG_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2"]

_W, _H = 760, 480
_ML, _MR, _MT, _MB = 60, 20, 20, 50  # margins


def _x(t: float) -> float:
    return _ML + t * (_W - _ML - _MR)


def _y(f: float) -> float:
    return _H - _MB - f * (_H - _MT - _MB)


def emit_svg(report: InferenceReport, out_dir: str | Path) -> Path:
    """One shaded band per reported entity, with axes and a legend."""
    import html  # here, not at the top: it adds about 0.5 MB to runs without SVG

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_y(0)}" x2="{_W - _MR}" y2="{_y(0)}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_y(0)}" x2="{_ML}" y2="{_y(1)}" stroke="black"/>',
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="14">non-failure probability t</text>',
        f'<text x="16" y="{(_y(0) + _y(1)) / 2}" font-size="14" '
        f'transform="rotate(-90 16 {(_y(0) + _y(1)) / 2})" text-anchor="middle">CDF</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{_x(tick)}" y="{_y(0) + 18}" text-anchor="middle" '
            f'font-size="11">{tick:g}</text>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{_y(tick) + 4}" text-anchor="end" '
            f'font-size="11">{tick:g}</text>'
        )

    legend_y = _MT + 6
    for idx, ((level, entity), band) in enumerate(report.bands.items()):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        fwd = [f"{_x(t):.2f},{_y(u):.2f}" for t, u in zip(report.t, band.upper)]
        back = [f"{_x(t):.2f},{_y(l):.2f}" for t, l in zip(report.t[::-1], band.lower[::-1])]
        parts.append(
            f'<polygon points="{" ".join(fwd + back)}" fill="{color}" '
            f'fill-opacity="0.25" stroke="{color}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{legend_y}" text-anchor="end" '
            f'font-size="11" fill="{color}">{html.escape(f"{level}:{entity}", quote=False)}</text>'
        )
        legend_y += 14
    parts.append("</svg>")
    return _write(Path(out_dir) / "envelopes.svg", "\n".join(parts) + "\n")
