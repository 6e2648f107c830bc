"""Matrix Market exchange format: coordinate files for sparse matrices,
array files for dense ones.

Values are written with ``repr`` (shortest round-trip form), so a matrix
written and re-read comes back bitwise identical.  The banner line is
kept canonical; readers accept any `%%MatrixMarket matrix` banner with a
real/integer field and general symmetry.
"""

from __future__ import annotations

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


def read_matrix(path):
    """Read a Matrix Market file.

    Coordinate files return a :class:`SparseMatrix`; array files return
    a dense ``numpy.ndarray``.
    """
    with open(path, "r", encoding="ascii") as fh:
        banner = fh.readline()
        layout = _parse_banner(banner)
        size_line = None
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            size_line = stripped
            break
        if size_line is None:
            raise ValueError("missing size line")
        body = fh.read().split()
    if layout == "coordinate":
        dims = size_line.split()
        if len(dims) != 3:
            raise ValueError(f"bad coordinate size line: {size_line!r}")
        rows, cols, nnz = (int(x) for x in dims)
        if len(body) != 3 * nnz:
            raise ValueError(f"expected {3 * nnz} tokens, found {len(body)}")
        r = np.array(body[0::3], dtype=np.int64) - 1
        c = np.array(body[1::3], dtype=np.int64) - 1
        v = np.array(body[2::3], dtype=np.float64)
        return SparseMatrix(rows, cols, r, c, v)
    dims = size_line.split()
    if len(dims) != 2:
        raise ValueError(f"bad array size line: {size_line!r}")
    rows, cols = (int(x) for x in dims)
    if len(body) != rows * cols:
        raise ValueError(f"expected {rows * cols} tokens, found {len(body)}")
    return np.array(body, dtype=np.float64).reshape((cols, rows)).T


def read_banner(path) -> str:
    """First line of the file, stripped of the newline only."""
    with open(path, "r", encoding="ascii") as fh:
        return fh.readline().rstrip("\n")
