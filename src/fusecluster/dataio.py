"""CSV reading/writing for datasets and experiment tables.

Dataset format: one point per row with P comma-separated feature fields.
Missing entries are an empty field or the literal ``NaN`` on input and are
written back as empty fields.  An optional final integer ``label`` column
carries ground truth; its distinct values are renumbered 0..K-1 in sorted
order, so 1..K (as in UCI tables) or gapped labels such as {0, 5} are fine.
Blank lines and lines whose first field starts with ``#`` are skipped.  The
Wine table (``datagen.load_wine_csv``) goes through the same reader,
unlabeled: its class label is the first of 14 fields, and every entry must
be present.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .model import ObservedDataset, Partition


def read_points_csv(path, labeled: bool = False):
    """Read a dataset; returns (ObservedDataset, Partition or None)."""
    rows, labels = [], []
    with open(path, newline="") as fh:
        for line in csv.reader(fh):
            if not line or line[0].lstrip().startswith("#"):
                continue
            if labeled:
                labels.append(parse_label(line.pop().strip()))
            rows.append([float(g) if (g := f.strip()) else math.nan for f in line])
    if not rows:
        raise ValueError(f"no data rows in {path}")
    if len({len(r) for r in rows}) > 1:
        raise ValueError("rows have inconsistent field counts")
    values = np.array(rows, dtype=float).T
    mask = ~np.isnan(values)
    data = ObservedDataset(np.where(mask, values, 0.0), mask)
    truth = Partition(np.unique(labels, return_inverse=True)[1]) if labeled else None
    return data, truth


def parse_label(field: str) -> int:
    """A class label: ``2`` and ``2.0`` read as 2; ``1.7`` raises ValueError."""
    value = float(field)
    if not value.is_integer():
        raise ValueError(f"label {field!r} is not an integer")
    return int(value)


def write_points_csv(path, data: ObservedDataset, header_lines=()):
    """Write a dataset (points as rows, missing entries as empty fields).

    The bytes are those of ``csv.writer``: a float's ``repr`` needs no
    quoting, rows end in ``\\r\\n``, and a one-field row whose entry is
    missing is written ``""`` so that it is not a blank line."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for values, mask in zip(data.values.T, data.mask.T):
            fields = zip(values.tolist(), mask.tolist())
            row = ",".join([repr(v) if m else "" for v, m in fields])
            fh.write((row or '""') + "\r\n")


def write_table_csv(path, column_names, rows, header_lines=()):
    """Write a generic results table with deterministic float rendering."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(column_names)
        for row in rows:
            writer.writerow([_render(v) for v in row])


def _render(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)
