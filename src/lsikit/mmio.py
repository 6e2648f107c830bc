"""Matrix Market exchange format: coordinate files for sparse matrices,
array files for dense ones (Boisvert, Pozo & Remington, *The Matrix
Market Exchange Formats*, NIST IR 5935, 1996).

Sparse values are written with ``repr``; dense arrays are written by
scipy's multi-threaded C++ writer (fast_matrix_market), whose shortest
round-trip style (``1E-1``, ``-0``, ``Infinity``, ``NaN``) always puts a
lone ``%`` line after the banner, and whose bytes do not depend on its
thread count.  Either way a matrix written and re-read comes back
bitwise identical; a NaN comes back as the default NaN.  The banner line
is kept canonical; readers accept any `%%MatrixMarket matrix` banner
with a real/integer field and general symmetry.
"""

from __future__ import annotations

import hashlib
import warnings
from contextlib import contextmanager

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


def file_sha256(path):
    """Hex SHA-256 of the bytes of the file at ``path``."""
    # chunked: hashlib.file_digest needs Python 3.11
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_matrix(path, m):
    """Write a sparse matrix as coordinate MM or a dense array as array MM,
    and return the hex SHA-256 of the bytes written, read back from the
    file."""
    if not isinstance(m, SparseMatrix):
        a = np.asarray(m, dtype=float)
        if a.ndim != 2:
            raise ValueError("expected a 2-D matrix")
        import scipy.io  # here, so importing lsikit stays cheap

        if str(path).endswith(".mtx"):
            scipy.io.mmwrite(path, a, symmetry="general")
        else:  # scipy would append ".mtx" to any other file name
            with open(path, "wb") as fh:
                scipy.io.mmwrite(fh, a, symmetry="general")
        return file_sha256(path)
    # Python scalars: numpy scalars took 1.6x as long to format
    triplets = zip(m.row.tolist(), m.col.tolist(), m.data.tolist())
    with open(path, "wb") as fh:
        fh.write(f"{SPARSE_BANNER}\n{m.rows} {m.cols} {m.nnz}\n".encode("ascii"))
        fh.write("".join(f"{r + 1} {c + 1} {v!r}\n" for r, c, v in triplets).encode("ascii"))
    return file_sha256(path)


@contextmanager
def _open_text(path):
    """``path`` open as ASCII text; a byte beyond ASCII, as in any binary
    file, raises a ``ValueError`` that names the file."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise ValueError(f"{path} is not a Matrix Market text file") from None


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
    with _open_text(path) as fh:
        return _read_header(fh)[1][:2]


def read_matrix(path):
    """Read a Matrix Market file.

    Coordinate files return a :class:`SparseMatrix`; array files return
    a dense ``numpy.ndarray``, parsed by numpy in one pass.  Values are
    decimal or ``inf``/``nan`` tokens separated by whitespace; a token
    numpy cannot parse whole, such as ``1_0``, raises ``ValueError``.
    """
    with _open_text(path) as fh:
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
