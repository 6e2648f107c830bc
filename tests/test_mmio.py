"""Matrix Market reader/writer round trips."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import _fast_matrix_market as fmm

from lsikit import mmio
from lsikit.matrix import SparseMatrix
from lsikit.mmio import DENSE_BANNER, SPARSE_BANNER, read_matrix, read_shape, write_matrix

from oracle_utils import (dense_mm_oracle, dense_mm_read_oracle, scipy_dense_mm_oracle,
                          sparse_mm_oracle)


def test_sparse_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    dense = np.where(rng.random((7, 5)) > 0.6, rng.standard_normal((7, 5)), 0.0)
    s = SparseMatrix.from_dense(dense)
    path = tmp_path / "m.mtx"
    write_matrix(path, s)
    back = read_matrix(path)
    assert isinstance(back, SparseMatrix)
    assert (back.rows, back.cols) == (s.rows, s.cols)
    np.testing.assert_array_equal(back.row, s.row)
    np.testing.assert_array_equal(back.col, s.col)
    np.testing.assert_array_equal(back.data, s.data)  # bitwise


def test_dense_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 6)) * np.pi
    path = tmp_path / "d.mtx"
    write_matrix(path, a)
    back = read_matrix(path)
    assert isinstance(back, np.ndarray)
    np.testing.assert_array_equal(back, a)


def _stored(rows, cols, row, col, data):
    """A matrix holding ``data`` as given.  The constructor rejects zeros
    and non-finite values, but the writer must format any stored bits."""
    m = SparseMatrix(rows, cols, row, col, np.ones(len(data)))
    object.__setattr__(m, "data", np.asarray(data, dtype=np.float64))
    return m


def _sparse_cases():
    rng = np.random.default_rng(13)
    nan_payloads = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
                            dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal((60, 45)) * np.exp(rng.uniform(-700, 700, (60, 45)))
    yield "random", SparseMatrix.from_dense(np.where(rng.random((60, 45)) < 0.3, scaled, 0.0))
    yield "subnormal", SparseMatrix(3, 2_000_000, [0, 1, 2, 2], [0, 7, 1_999_999, 5],
                                    [5e-324, -1e-320, 2.2250738585072009e-308, -2.5e-310])
    yield "signed_zeros", _stored(2, 3, [0, 1, 1], [2, 0, 1], [0.0, -0.0, -0.0])
    yield "nan_payloads", _stored(1, 4, [0, 0, 0, 0], [0, 1, 2, 3],
                                  [*nan_payloads, -np.inf])
    yield "empty", SparseMatrix(4, 5, [], [], [])


@pytest.mark.parametrize("name,m", list(_sparse_cases()), ids=[n for n, _ in _sparse_cases()])
def test_sparse_write_bytes_match_per_entry_writer(tmp_path, name, m):
    path = tmp_path / f"{name}.mtx"
    write_matrix(path, m)
    assert path.read_bytes() == sparse_mm_oracle(m)


def _banner(path):
    return path.read_text(encoding="ascii").split("\n", 1)[0]


def test_banner_preserved_verbatim(tmp_path):
    s = SparseMatrix.from_dense(np.eye(2))
    sp_path = tmp_path / "s.mtx"
    write_matrix(sp_path, s)
    assert _banner(sp_path) == SPARSE_BANNER
    d_path = tmp_path / "d.mtx"
    write_matrix(d_path, np.eye(2))
    assert _banner(d_path) == DENSE_BANNER
    # write -> read -> write keeps the banner byte-identical
    write_matrix(tmp_path / "s2.mtx", read_matrix(sp_path))
    assert _banner(tmp_path / "s2.mtx") == SPARSE_BANNER


def test_comments_are_skipped(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% produced by hand\n"
        "2 2 1\n"
        "1 2 3.5\n"
    )
    m = read_matrix(path)
    np.testing.assert_array_equal(m.toarray(), [[0.0, 3.5], [0.0, 0.0]])


def test_dense_array_is_column_major(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "2 2\n1\n2\n3\n4\n"
    )
    np.testing.assert_array_equal(read_matrix(path), [[1.0, 3.0], [2.0, 4.0]])


def test_rejects_bad_headers(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
    with pytest.raises(ValueError, match="unsupported field"):
        read_matrix(path)
    path.write_text("not a matrix\n")
    with pytest.raises(ValueError, match="banner"):
        read_matrix(path)
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n1 1 0\n")
    with pytest.raises(ValueError, match="symmetry"):
        read_matrix(path)


@pytest.mark.parametrize("text, message", [
    ("%%MatrixMarket matrix vector real general\n2\n1.0\n2.0\n", "unsupported layout 'vector'"),
    ("%%MatrixMarket matrix array real general\n% a comment and no size\n", "missing size line"),
    ("%%MatrixMarket matrix coordinate real general\n2 2\n", "bad coordinate size line: '2 2'"),
    ("%%MatrixMarket matrix array real general\n2 2 4\n", "bad array size line: '2 2 4'"),
], ids=["layout", "no-size-line", "coordinate-size", "array-size"])
def test_rejects_bad_layouts_and_size_lines(tmp_path, text, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    for read in (read_shape, read_matrix):
        with pytest.raises(ValueError, match=re.escape(message)):
            read(path)


def test_rejects_truncated_body(tmp_path):
    path = tmp_path / "t.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
    with pytest.raises(ValueError, match="tokens"):
        read_matrix(path)


def _dense_cases():
    rng = np.random.default_rng(7)
    nan_payload = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    special = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 5e-324],
                        [2.2250738585072014e-308, -1e-310, nan_payload[0]],
                        [nan_payload[1], 1e300, -0.0]])
    rounded = np.round(rng.standard_normal((40, 30)), 1)
    few_distinct = rng.choice(rng.standard_normal(2000), size=(300, 250))
    yield "random", rng.standard_normal((17, 9)) * np.exp(rng.uniform(-30, 30, (17, 9)))
    yield "all_distinct", rng.random((25, 40))
    yield "repeated", rounded
    yield "fortran_order", np.asfortranarray(rounded)
    yield "strided", rounded[::3, 1::2]
    yield "few_distinct", few_distinct
    # bodies of many of the writer's chunks, split over its threads
    tall = rng.choice(rng.standard_normal(5000), size=(70_000, 2))
    yield "tall_fortran", np.asfortranarray(tall)
    yield "tall_c_order", tall
    yield "c_order_chunks", rng.choice(rng.standard_normal(9000), size=(300, 700))
    yield "special", special
    yield "subnormal", np.array([[5e-324, 1e-320], [-2.5e-310, 2.2250738585072009e-308]])
    yield "one_by_one", np.array([[-0.0]])
    yield "zero_rows", np.zeros((0, 4))
    yield "zero_cols", np.zeros((3, 0))


def _same_values(got, want):
    """Bitwise equal, except that any NaN may come back as another NaN."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


@pytest.mark.parametrize("name,a", list(_dense_cases()), ids=[n for n, _ in _dense_cases()])
def test_dense_write_bytes_match_per_entry_writer(tmp_path, name, a):
    path = tmp_path / f"{name}.mtx"
    write_matrix(path, a)
    assert path.read_bytes() == scipy_dense_mm_oracle(a)
    _same_values(read_matrix(path), a)


def test_dense_write_golden_bytes(tmp_path):
    a = np.array([[0.1, -0.0, np.inf], [5e-324, -np.inf, np.nan], [1e300, -2.5, 1234.5]])
    path = tmp_path / "g.mtx"
    write_matrix(path, a)
    assert path.read_bytes() == (
        b"%%MatrixMarket matrix array real general\n%\n3 3\n"
        b"1E-1\n5E-324\n1E300\n-0\n-Infinity\n-2.5\nInfinity\nNaN\n1.2345E3\n")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name,a", list(_dense_cases()), ids=[n for n, _ in _dense_cases()])
def test_dense_write_bytes_do_not_depend_on_writer_threads(tmp_path, monkeypatch, name, a,
                                                           threads):
    write_matrix(tmp_path / "default.mtx", a)
    monkeypatch.setattr(fmm, "PARALLELISM", threads)
    write_matrix(tmp_path / "set.mtx", a)
    assert (tmp_path / "set.mtx").read_bytes() == (tmp_path / "default.mtx").read_bytes()


def test_dense_write_of_a_symmetric_matrix_is_general(tmp_path):
    path = tmp_path / "eye.mtx"
    write_matrix(path, np.eye(3))
    assert _banner(path) == DENSE_BANNER
    _same_values(read_matrix(path), np.eye(3))


def test_dense_write_keeps_the_file_name(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix(path, np.eye(2))
    assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]
    assert path.read_bytes() == scipy_dense_mm_oracle(np.eye(2))


def test_dense_write_rejects_an_array_that_is_not_2_d(tmp_path):
    with pytest.raises(ValueError, match="expected a 2-D matrix"):
        write_matrix(tmp_path / "v.mtx", np.ones(3))


def _same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name,a", list(_dense_cases()), ids=[n for n, _ in _dense_cases()])
def test_dense_read_bits_match_per_token_reader(tmp_path, name, a):
    path = tmp_path / f"{name}.mtx"
    write_matrix(path, a)
    _same_bits(read_matrix(path), dense_mm_read_oracle(path))


@pytest.mark.parametrize("name,a", list(_dense_cases()), ids=[n for n, _ in _dense_cases()])
def test_dense_read_of_repr_text_matches_per_token_reader(tmp_path, name, a):
    # index directories written before lsikit used scipy's writer hold this style
    path = tmp_path / f"{name}.mtx"
    path.write_bytes(dense_mm_oracle(a))
    _same_bits(read_matrix(path), dense_mm_read_oracle(path))
    _same_values(read_matrix(path), a)


# Bodies after the banner line, read in text mode (CRLF becomes LF).
_DENSE_LAYOUTS = {
    "tabs": "2 2\n1\t2\n3\t\t4\n",
    "crlf": "2 2\r\n1\r\n-2.5\r\n3\r\n4\r\n",
    "several_per_line": "2 3\n1 2 3\n4 5 6\n",
    "blank_lines": "2 2\n\n1\n\n\n2\n3\n   \n4\n\n",
    "no_final_newline": "1 2\n-0.0 5e-324",
    "comments_before_size": "% one\n%\n\n2 1\n inf\n-inf\n",
    "specials": "1 6\nnan NaN -inf Infinity +1.5 .5e-3\n",
    "one_by_one": "1 1\n7\n",
    "zero_rows_no_body": "0 3\n",
    "zero_cols_blank_body": "3 0\n\n  \n",
}


@pytest.mark.parametrize("name", list(_DENSE_LAYOUTS))
def test_dense_read_layouts_match_per_token_reader(tmp_path, name):
    path = tmp_path / f"{name}.mtx"
    path.write_bytes((DENSE_BANNER + "\r\n" + _DENSE_LAYOUTS[name]).encode("ascii"))
    _same_bits(read_matrix(path), dense_mm_read_oracle(path))


@pytest.mark.parametrize("body", [
    "1 1\n1_0\n",            # Python's float() would accept this one
    "1 1\n1.5.5\n",
    "1 1\n1e\n",
    "1 1\n0x10\n",
    "2 1\n1,2\n",
    "1 1\n1d5\n",
    "2 2\n1 2 3 4 junk\n",   # right count before the bad token
    "2 1\n1\n% late comment\n2\n",
    "1 1\n   \n",             # blank body: numpy alone would read -1.0
    "1 1\n",
    "2 2\n1 2 3\n",
])
def test_dense_read_rejects_malformed_tokens(tmp_path, body):
    path = tmp_path / "bad.mtx"
    path.write_text(DENSE_BANNER + "\n" + body)
    with pytest.raises(ValueError):
        read_matrix(path)


@pytest.mark.parametrize("m", [
    SparseMatrix.from_dense(np.array([[0.0, 1.5], [-2.0, 0.0]])),
    np.random.default_rng(3).standard_normal((70, 40)),
    np.zeros((0, 3)),
], ids=["sparse", "dense", "empty"])
def test_write_returns_the_digest_of_the_bytes_written(tmp_path, m):
    path = tmp_path / "m.mtx"
    assert write_matrix(path, m) == hashlib.sha256(path.read_bytes()).hexdigest()


_PEAK_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from lsikit.mmio import write_matrix

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024

rng = np.random.default_rng(17)
values = rng.standard_normal(500)
a = np.empty((1000, 1000), order="F")
for j in range(a.shape[1]):  # a column at a time: no full-size temporary
    a[:, j] = rng.choice(values, a.shape[0])
write_matrix(sys.argv[2] + "/warm.mtx", a[:3, :3])  # imports scipy.io, starts its threads
before = peak()
write_matrix(sys.argv[2] + "/m.mtx", a)
print((peak() - before) / a.nbytes)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_dense_write_keeps_less_than_two_copies(tmp_path):
    # The C++ writer's buffers are invisible to tracemalloc, so this reads
    # the peak resident size of a fresh interpreter.  Not ru_maxrss: Linux
    # carries the forking process's peak across exec into it.
    src = str(Path(mmio.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, src, str(tmp_path)],
                         check=True, capture_output=True, text=True, timeout=120)
    copies = float(out.stdout)
    assert copies < 2, f"peak {copies:.2f} copies"


@pytest.mark.parametrize("save", [np.save, np.savez], ids=["npy", "npz"])
def test_binary_file_is_named_as_not_matrix_market(tmp_path, save):
    path = tmp_path / "m.bin"
    with open(path, "wb") as fh:
        save(fh, np.eye(3))
    for read in (read_shape, read_matrix):
        with pytest.raises(ValueError,
                           match=re.escape(f"{path} is not a Matrix Market text file")):
            read(path)
