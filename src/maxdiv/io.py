"""Parsing the text formats the CLI reads.

Matrices and metrics are headerless CSV of floats; graphs are an ``n``
header line followed by one edge per line (1-based vertex numbers);
abundances are a single CSV row or one value per line.
"""

from __future__ import annotations

import numpy as np

from .diversity import Distribution
from .errors import ParseError
from .linalg import SimilarityMatrix

# Ingested abundances below this are rounded to exact zero so that support
# bookkeeping stays discrete.
ABUNDANCE_FLOOR = 1e-15


def _data_lines(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            out.append((lineno, raw))
    return out


def _parse_row(lineno, raw):
    fields = raw.split(",")
    row = []
    for col, field in enumerate(fields, start=1):
        s = field.strip()
        try:
            row.append(float(s))
        except ValueError:
            raise ParseError(f"not a number: {s!r}", line=lineno, column=col) from None
    return row


def _parse_square(text, what):
    lines = _data_lines(text)
    if not lines:
        raise ParseError(f"empty {what}")
    rows = []
    width = None
    for lineno, raw in lines:
        row = _parse_row(lineno, raw)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(
                f"row has {len(row)} entries but the first row has {width}", line=lineno
            )
        rows.append((lineno, row))
    if len(rows) != width:
        raise ParseError(
            f"{what} must be square: {len(rows)} rows of {width} entries",
            line=rows[-1][0],
        )
    return rows


def parse_matrix(text: str) -> SimilarityMatrix:
    """Similarity matrix from headerless CSV; asymmetry is recorded on the
    returned matrix, not refused."""
    rows = _parse_square(text, "matrix")
    try:
        return SimilarityMatrix(np.array([r for _, r in rows]))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_distances(text: str) -> np.ndarray:
    """Square array of floats from headerless CSV, not yet validated as a
    metric: its size is known before ``graphs.FiniteMetric``'s O(n³)
    triangle check runs."""
    return np.array([r for _, r in _parse_square(text, "distance matrix")])


def parse_graph(text: str):
    """Graph document: ``n`` header line, then one ``i j`` edge per line
    (1-based).  Returns ``(n, edges)`` with 0-based edges."""
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty graph document")
    lineno, raw = lines[0]
    try:
        n = int(raw.strip())
    except ValueError:
        raise ParseError(f"expected a vertex count, got {raw.strip()!r}", line=lineno) from None
    if n < 1:
        raise ParseError("vertex count must be positive", line=lineno)
    edges = []
    for lineno, raw in lines[1:]:
        parts = raw.replace(",", " ").split()
        if len(parts) != 2:
            raise ParseError(f"expected an edge 'i j', got {raw.strip()!r}", line=lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"vertex numbers must be integers: {raw.strip()!r}", line=lineno) from None
        for col, v in ((1, i), (2, j)):
            if not 1 <= v <= n:
                raise ParseError(f"vertex {v} out of range 1..{n}", line=lineno, column=col)
        if i == j:
            raise ParseError(f"loop edge ({i},{j}) not allowed; loops are implicit", line=lineno)
        edges.append((i - 1, j - 1))
    return n, edges


def parse_abundances(text: str, normalize: bool = False) -> Distribution:
    """Distribution from a CSV row or column.  Values below 1e-15 are
    rounded to exact zero; ``normalize`` rescales to unit sum first."""
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty abundance document")
    if len(lines) == 1:
        values = _parse_row(*lines[0])
    else:
        values = []
        for lineno, raw in lines:
            row = _parse_row(lineno, raw)
            if len(row) != 1:
                raise ParseError(
                    "abundances must be one CSV row or one value per line", line=lineno
                )
            values.append(row[0])
    arr = np.array(values)
    if normalize:
        total = arr.sum()
        if total <= 0:
            raise ParseError("cannot normalize: abundances sum to zero or less")
        arr = arr / total
    arr[np.abs(arr) < ABUNDANCE_FLOOR] = 0.0
    try:
        return Distribution(arr)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_community(matrix_text: str, abundance_text: str, normalize: bool = False):
    """Community = similarity matrix plus matching abundance vector."""
    z = parse_matrix(matrix_text)
    p = parse_abundances(abundance_text, normalize=normalize)
    if z.n != p.n:
        raise ParseError(f"matrix is {z.n}x{z.n} but there are {p.n} abundances")
    return z, p
