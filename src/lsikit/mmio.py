"""Matrix Market exchange format: coordinate files for sparse matrices,
array files for dense ones (Boisvert, Pozo & Remington, *The Matrix
Market Exchange Formats*, NIST IR 5935, 1996).

Values are written with ``repr`` (shortest round-trip form), so a matrix
written and re-read comes back bitwise identical.  The banner line is
kept canonical; readers accept any `%%MatrixMarket matrix` banner with a
real/integer field and general symmetry.

A dense body formats each distinct bit pattern once.  The patterns are
sorted to find the distinct ones, and every entry finds its own in a
multiplicative hash table (Knuth, TAOCP vol. 3, 6.4); each lookup is
checked, and the few that land on another pattern's slot are resolved
by binary search, so the mapping is exact.  ``write_matrix`` returns the
sha256 of the bytes it wrote, hashed as they are written, so no caller
has to read the file back to hash it.

Beside a dense array, the writer keeps one sorted copy of its entries
while it finds the distinct patterns and frees it before the lookups.
Then it keeps the hash table (fewer than two slots per entry) and one
pattern number per entry, both in the smallest unsigned type that
counts the patterns, the text of each distinct pattern, and one
chunk's lookups and output at a time.  A Fortran-ordered array is read
in place; any other layout is first copied in column-major order.
"""

from __future__ import annotations

import hashlib
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

# Multiplier of the dedupe's hash, 2**64 divided by the golden ratio and
# made odd (Fibonacci hashing, Knuth, TAOCP vol. 3, 6.4).
_KNUTH = np.uint64(0x9E3779B97F4A7C15)

# Hash slots per distinct value, capped at about two per entry so the
# table is never larger than the entries themselves.
_SLOTS_PER_KEY = 16


def write_matrix(path, m, comment: str = "") -> str:
    """Write a sparse matrix as coordinate MM or a dense array as array MM,
    and return the sha256 hex digest of the bytes written."""
    if isinstance(m, SparseMatrix):
        banner, size = SPARSE_BANNER, f"{m.rows} {m.cols} {m.nnz}"
        # Python scalars: numpy scalars took 1.6x as long to format
        triplets = zip(m.row.tolist(), m.col.tolist(), m.data.tolist())
        body = ["".join(f"{r + 1} {c + 1} {v!r}\n" for r, c, v in triplets).encode("ascii")]
    else:
        a = np.asarray(m, dtype=float)
        if a.ndim != 2:
            raise ValueError("expected a 2-D matrix")
        banner, size = DENSE_BANNER, f"{a.shape[0]} {a.shape[1]}"
        body = _array_body(a)
    head = "\n".join([banner, *("%" + c for c in comment.splitlines()), size])
    head = (head + "\n").encode("ascii")
    digest = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for chunk in body:
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def _distinct(bits):
    """The sorted distinct values of the uint64 array ``bits`` and, for
    each entry, the position of its value among them: what
    ``np.unique(bits, return_inverse=True)`` returns, in less time.

    Every lookup in the hash table is checked against the entry, and the
    entries whose slot holds another value are found by binary search.
    """
    ordered = np.sort(bits)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    keys = ordered[first]
    del ordered, first  # the sorted copy is as large as ``bits``
    shift = 64 - max(min(_SLOTS_PER_KEY * keys.size, bits.size), 1).bit_length()
    index_type = np.min_scalar_type(keys.size - 1)
    slots = np.zeros(1 << (64 - shift), dtype=index_type)
    slots[(keys * _KNUTH) >> np.uint64(shift)] = np.arange(keys.size, dtype=index_type)
    where = np.empty(bits.size, dtype=index_type)
    for lo in range(0, bits.size, _WRITE_CHUNK):
        part = bits[lo:lo + _WRITE_CHUNK]
        hashed = part * _KNUTH
        hashed >>= np.uint64(shift)
        found = where[lo:lo + _WRITE_CHUNK]
        np.take(slots, hashed, out=found, mode="clip")  # in range: "raise" copies
        miss = np.flatnonzero(keys[found] != part)
        found[miss] = np.searchsorted(keys, part[miss])
    return keys, where


def _array_body(a):
    """Entries in column-major order, one repr per line, as byte chunks.

    Each distinct bit pattern is formatted once, which keeps -0.0, NaN
    and inf exact, and a chunk of values at a time, since a string per
    value costs several times the table's memory; lines are looked up in
    a fixed-width table whose NUL padding is deleted from each chunk.
    """
    keys, where = _distinct(np.ravel(a, order="F").view(np.uint64))
    if where.size == 0:
        return
    values = keys.view(np.float64)
    table = np.concatenate([
        np.array([f"{v!r}\n" for v in values[lo:lo + _WRITE_CHUNK].tolist()], dtype="S")
        for lo in range(0, values.size, _WRITE_CHUNK)])
    for lo in range(0, where.size, _WRITE_CHUNK):
        yield table[where[lo:lo + _WRITE_CHUNK]].tobytes().translate(None, b"\0")


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
