"""Matrix document parsing and serialization.

The canonical wire format is JSON: {"n": N, "data": [[[re, im], ...]]},
complex entries as [re, im] pairs, row-major.  A CSV of reals (imaginary
parts zero) is also accepted on input.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DimensionMismatch, ParseError
from .matrix import finite_matrix


def parse_matrix(document) -> np.ndarray:
    """Parse a JSON MatrixDocument or a real CSV into a complex matrix; a
    leading UTF-8 byte-order mark is dropped."""
    if isinstance(document, bytes):
        try:
            text = document.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not UTF-8: {exc}") from exc
    else:
        text = str(document).removeprefix("\ufeff")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(stripped)
    return _parse_csv(text)


def _parse_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # too many digits or levels
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        n = doc["n"]
        data = doc["data"]
    except KeyError as exc:
        raise ParseError(f"missing required field {exc.args[0]!r}") from exc
    # type(), not isinstance(): JSON's true and false are not numbers
    if type(n) is not int or n < 1:
        raise ParseError(f"field 'n' must be a positive integer, got {n!r}")
    if not isinstance(data, list) or len(data) != n:
        raise DimensionMismatch(
            f"'data' must have {n} rows, got {len(data) if isinstance(data, list) else type(data).__name__}")
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise DimensionMismatch(f"row {i} must have {n} entries")
        for j, pair in enumerate(row):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(type(c) in (int, float) for c in pair)):
                raise ParseError(f"entry [{i}][{j}] must be an [re, im] pair")
            try:
                re, im = float(pair[0]), float(pair[1])
            except OverflowError:  # an integer too large for a float
                re = im = math.inf
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ParseError(f"entry [{i}][{j}] is not finite")
            out[i, j] = complex(re, im)
    return out


def _parse_csv(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for field_idx, cell in enumerate(line.split(",")):
            try:
                v = float(cell.strip())
            except ValueError:
                raise ParseError(
                    f"line {lineno}, field {field_idx + 1}: "
                    f"{cell.strip()!r} is not a number") from None
            if not math.isfinite(v):
                raise ParseError(f"line {lineno}, field {field_idx + 1}: "
                                 "value is not finite")
            row.append(v)
        rows.append((lineno, row))
    if not rows:
        raise ParseError("empty document")
    n = len(rows)
    for lineno, row in rows:
        if len(row) != n:
            raise DimensionMismatch(
                f"line {lineno}: expected {n} fields, got {len(row)}")
    return np.array([row for _, row in rows], dtype=np.complex128)


def serialize_matrix(m) -> bytes:
    """Serialize to the canonical JSON document (bit-exact round-trip).

    m must be a nonempty, square, finite matrix (matrix.finite_matrix),
    which parse_matrix reads back; anything else is a DomainError."""
    m = finite_matrix(m)
    n = m.shape[0]
    doc = {"n": n,
           "data": [[[m[i, j].real, m[i, j].imag] for j in range(n)]
                    for i in range(n)]}
    return json.dumps(doc).encode("utf-8")
