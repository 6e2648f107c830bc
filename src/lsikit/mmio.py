"""Matrix Market exchange format: coordinate files for sparse matrices,
array files for dense ones.

Values are written with ``repr`` (shortest round-trip form), so a matrix
written and re-read comes back bitwise identical.  The banner line is
kept canonical; readers accept any `%%MatrixMarket matrix` banner with a
real/integer field and general symmetry.
"""

from __future__ import annotations

import warnings

import numpy as np

from .matrix import SparseMatrix

SPARSE_BANNER = "%%MatrixMarket matrix coordinate real general"
DENSE_BANNER = "%%MatrixMarket matrix array real general"


def _parse_banner(line: str):
    parts = line.strip().split()
    if len(parts) < 5 or parts[0] != "%%MatrixMarket" or parts[1].lower() != "matrix":
        raise ValueError(f"not a Matrix Market banner: {line.strip()!r}")
    layout, field, symmetry = parts[2].lower(), parts[3].lower(), parts[4].lower()
    if layout not in ("coordinate", "array"):
        raise ValueError(f"unsupported layout {layout!r}")
    if field not in ("real", "integer"):
        raise ValueError(f"unsupported field {field!r} (only real/integer)")
    if symmetry != "general":
        raise ValueError(f"unsupported symmetry {symmetry!r} (only general)")
    return layout


# Entries per write of a dense array body.
_WRITE_CHUNK = 1 << 16


def write_matrix(path, m, comment: str = "") -> None:
    """Write a sparse matrix as coordinate MM or a dense array as array MM."""
    if isinstance(m, SparseMatrix):
        banner, size = SPARSE_BANNER, f"{m.rows} {m.cols} {m.nnz}"
        body = ["".join(f"{r + 1} {c + 1} {float(v)!r}\n"
                        for r, c, v in zip(m.row, m.col, m.data)).encode("ascii")]
    else:
        a = np.asarray(m, dtype=float)
        if a.ndim != 2:
            raise ValueError("expected a 2-D matrix")
        banner, size = DENSE_BANNER, f"{a.shape[0]} {a.shape[1]}"
        body = _array_body(a)
    head = [banner, *("%" + c for c in comment.splitlines()), size]
    with open(path, "wb") as fh:
        fh.write(("\n".join(head) + "\n").encode("ascii"))
        fh.writelines(body)


def _array_body(a):
    """Entries in column-major order, one repr per line, as byte chunks.

    Each distinct bit pattern is formatted once, which keeps -0.0, NaN
    and inf exact; lines are looked up in a fixed-width table whose NUL
    padding is stripped from each chunk.
    """
    keys, where = np.unique(np.ascontiguousarray(a.T).reshape(-1).view(np.int64),
                            return_inverse=True)
    text = [repr(float(v)) + "\n" for v in keys.view(np.float64)]
    table = np.array(text, dtype=f"S{max(map(len, text), default=1)}")
    where = where.reshape(-1)
    for lo in range(0, where.size, _WRITE_CHUNK):
        yield table[where[lo:lo + _WRITE_CHUNK]].tobytes().replace(b"\0", b"")


def _read_header(fh):
    """Layout and size-line integers of the file open at ``fh``, which is
    left just past the size line."""
    layout = _parse_banner(fh.readline())
    for line in fh:
        size_line = line.strip()
        if size_line and not size_line.startswith("%"):
            break
    else:
        raise ValueError("missing size line")
    dims = size_line.split()
    if len(dims) != (3 if layout == "coordinate" else 2):
        raise ValueError(f"bad {layout} size line: {size_line!r}")
    return layout, tuple(int(x) for x in dims)


def read_shape(path):
    """``(rows, cols)`` of a Matrix Market file, from its size line alone."""
    with open(path, "r", encoding="ascii") as fh:
        return _read_header(fh)[1][:2]


def read_matrix(path):
    """Read a Matrix Market file.

    Coordinate files return a :class:`SparseMatrix`; array files return
    a dense ``numpy.ndarray``, parsed by numpy in one pass.  Values are
    decimal or ``inf``/``nan`` tokens separated by whitespace; a token
    numpy cannot parse whole, such as ``1_0``, raises ``ValueError``.
    """
    with open(path, "r", encoding="ascii") as fh:
        layout, dims = _read_header(fh)
        rest = fh.read()
    if layout == "coordinate":
        body = rest.split()
        rows, cols, nnz = dims
        if len(body) != 3 * nnz:
            raise ValueError(f"expected {3 * nnz} tokens, found {len(body)}")
        r = np.array(body[0::3], dtype=np.int64) - 1
        c = np.array(body[1::3], dtype=np.int64) - 1
        v = np.array(body[2::3], dtype=np.float64)
        return SparseMatrix(rows, cols, r, c, v)
    rows, cols = dims
    if rest.isspace():
        rest = ""  # numpy parses an all-blank string as [-1.0]
    with warnings.catch_warnings():
        # older numpy stops at an unparsable token with only a warning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(rest, dtype=np.float64, sep=" ")
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None
    if values.size != rows * cols:
        raise ValueError(f"expected {rows * cols} tokens, found {values.size}")
    return values.reshape((cols, rows)).T


def read_banner(path) -> str:
    """First line of the file, stripped of the newline only."""
    with open(path, "r", encoding="ascii") as fh:
        return fh.readline().rstrip("\n")
