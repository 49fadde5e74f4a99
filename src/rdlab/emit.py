"""Reproducible CSV/JSON/SVG emission and output manifests.

Every writer produces byte-identical output for identical inputs: floats
are formatted at 15 significant digits, JSON keys are sorted, SVG text is
fully determined by the data.  A 2-D float ndarray table is formatted
by one ``%`` of a ``"%.15g"`` template per block of rows, as SVG points are
by one ``%`` per polyline; a table with str, int or bool cells is formatted
cell by cell.  No artifact may hold a NaN or an Infinity: each writer
raises NumericalFailure, naming the file, instead of writing one.
A JSON payload may hold the library's result dataclasses as they are: each
instance is written as an object of its fields, so an artifact's keys are
the field names of the class it carries.  The manifest records a sha256
checksum per emitted file so a rerun can be diffed at a glance.
"""

import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalFailure

_SVG_COLORS = ("#1b6ca8", "#c23b22", "#3e8e41", "#8e5ba6", "#b8860b", "#555555")
_NON_FINITE_CELLS = {"nan", "inf", "-inf"}  # how ".15g" writes a non-finite float
# cells formatted per "%" of a float table: the text of a large table never
# sits in memory whole, so writing it raises the process's peak memory by
# well under a megabyte
_CSV_BLOCK_CELLS = 8192


def _fmt(value) -> str:
    if isinstance(value, float):  # np.float64 too
        return format(value, ".15g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".15g")


def write_csv(path, header, rows) -> Path:
    """Comma-separated table with a header row; floats keep 15 significant digits.

    ``rows`` is a 2-D ndarray or a sequence of rows.  A 2-D float ndarray
    (float32 too) is formatted a block of rows at a time, each block
    converted once with ``tolist`` and formatted by one ``%`` of a
    ``"%.15g"`` template; ``"%.15g" % x`` equals ``format(x, ".15g")`` for
    every float, so it gets the bytes of the cell-by-cell path that every
    other table takes.  A non-finite value (a cell that would read nan, inf
    or -inf) raises NumericalFailure naming the file and the row, and
    nothing is written.
    """
    path = Path(path)
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise NumericalFailure(f"{path}: row {int(finite.argmin()) + 1} holds a non-finite value")
        line = ",".join(["%.15g"] * rows.shape[1]) + "\n"
        step = max(1, _CSV_BLOCK_CELLS // max(1, rows.shape[1]))
        blocks = (rows[i:i + step] for i in range(0, rows.shape[0], step))
        chunks = ((line * len(block)) % tuple(block.ravel().tolist()) for block in blocks)
    else:
        lines = [",".join(map(_fmt, row.tolist() if isinstance(row, np.ndarray) else row))
                 for row in rows]
        for number, line in enumerate(lines, 1):
            if _NON_FINITE_CELLS.intersection(line.split(",")):
                raise NumericalFailure(f"{path}: row {number} holds a non-finite value")
        chunks = [line + "\n" for line in lines]
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(chunks)
    return path


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, payload) -> Path:
    """Sorted-key JSON; a NaN or an Infinity raises NumericalFailure naming the file.

    A dataclass instance in ``payload`` becomes the object of its fields.
    """
    path = Path(path)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=_json_default)
    except ValueError as exc:  # the only ValueError json raises on acyclic data
        raise NumericalFailure(f"{path}: {exc}") from None
    path.write_text(text + "\n")
    return path


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def svg_line_chart(path, series, *, title="", x_label="", y_label="") -> Path:
    """Minimal static line chart: axes, ticks, and one polyline per series.

    ``series`` is a sequence of (label, x, y) with 1-D arrays.  The chart
    exists for eyeballing only; the CSVs carry the data.  Non-finite data
    (or a range that overflows) raises NumericalFailure naming the file.
    """
    series = [(str(label), np.asarray(x, dtype=float), np.asarray(y, dtype=float))
              for label, x, y in series]
    if not series or any(x.size < 2 or x.size != y.size for _, x, y in series):
        raise ValueError("each series needs matching x/y arrays with at least 2 points")
    width, height = 640, 400
    ml, mr, mt, mb = 62, 16, 34, 46
    x_lo = min(float(x.min()) for _, x, _ in series)
    x_hi = max(float(x.max()) for _, x, _ in series)
    y_lo = min(float(y.min()) for _, _, y in series)
    y_hi = max(float(y.max()) for _, _, y in series)
    if x_hi - x_lo <= 0.0:
        x_hi = x_lo + 1.0
    if y_hi - y_lo <= 0.0:
        pad = max(1e-12, abs(y_lo)) * 0.5 + 0.5
    else:
        pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    # finite data in finite ranges keep every coordinate and tick finite
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)
            and all(np.isfinite(x).all() and np.isfinite(y).all() for _, x, y in series)):
        raise NumericalFailure(f"{path}: non-finite chart data")
    pw, ph = width - ml - mr, height - mt - mb

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return mt + (y_hi - v) / (y_hi - y_lo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
           f'font-family="monospace" font-size="11">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
                   f'font-size="13">{title}</text>')
    out.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>')
    out.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>')
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        out.append(f'<line x1="{sx(fx):.1f}" y1="{mt + ph}" x2="{sx(fx):.1f}" '
                   f'y2="{mt + ph + 4}" stroke="black"/>')
        out.append(f'<text x="{sx(fx):.1f}" y="{mt + ph + 16}" '
                   f'text-anchor="middle">{fx:.4g}</text>')
        out.append(f'<line x1="{ml - 4}" y1="{sy(fy):.1f}" x2="{ml}" '
                   f'y2="{sy(fy):.1f}" stroke="black"/>')
        out.append(f'<text x="{ml - 7}" y="{sy(fy) + 3.5:.1f}" '
                   f'text-anchor="end">{fy:.4g}</text>')
    if x_label:
        out.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" '
                   f'text-anchor="middle">{x_label}</text>')
    if y_label:
        out.append(f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                   f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{y_label}</text>')
    for j, (label, x, y) in enumerate(series):
        color = _SVG_COLORS[j % len(_SVG_COLORS)]
        coords = np.empty(2 * x.size)
        coords[0::2] = sx(x)
        coords[1::2] = sy(y)
        pts = " ".join(["%.2f,%.2f"] * x.size) % tuple(coords.tolist())
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.3"/>')
        if label:
            yl = mt + 14 + 14 * j
            out.append(f'<line x1="{ml + pw - 88}" y1="{yl - 4}" x2="{ml + pw - 70}" '
                       f'y2="{yl - 4}" stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{ml + pw - 64}" y="{yl}">{label}</text>')
    out.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(out) + "\n")
    return path


def write_manifest(out_dir, command, config_echo, files, extra=None) -> Path:
    """List every emitted file with its sha256; never includes itself."""
    out_dir = Path(out_dir)
    entries = []
    for f in sorted(Path(f) for f in files):
        entries.append({"name": f.name, "sha256": sha256_file(f),
                        "bytes": f.stat().st_size})
    payload = {"command": command, "config": config_echo, "files": entries}
    if extra:
        payload.update(extra)
    return write_json(out_dir / "manifest.json", payload)
