"""Matrix Market reader/writer round trips."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from lsikit import mmio
from lsikit.matrix import SparseMatrix
from lsikit.mmio import DENSE_BANNER, SPARSE_BANNER, read_banner, read_matrix, write_matrix

from oracle_utils import dense_mm_oracle, dense_mm_read_oracle, sparse_mm_oracle


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
    assert write_matrix(path, m) == hashlib.sha256(sparse_mm_oracle(m)).hexdigest()
    assert path.read_bytes() == sparse_mm_oracle(m)


def test_banner_preserved_verbatim(tmp_path):
    s = SparseMatrix.from_dense(np.eye(2))
    sp_path = tmp_path / "s.mtx"
    write_matrix(sp_path, s)
    assert read_banner(sp_path) == SPARSE_BANNER
    d_path = tmp_path / "d.mtx"
    write_matrix(d_path, np.eye(2))
    assert read_banner(d_path) == DENSE_BANNER
    # write -> read -> write keeps the banner byte-identical
    write_matrix(tmp_path / "s2.mtx", read_matrix(sp_path))
    assert read_banner(tmp_path / "s2.mtx") == SPARSE_BANNER


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
    # 2000 values over 75k entries: enough distinct values for hash slot collisions
    few_distinct = rng.choice(rng.standard_normal(2000), size=(300, 250))
    yield "random", rng.standard_normal((17, 9)) * np.exp(rng.uniform(-30, 30, (17, 9)))
    yield "all_distinct", rng.random((25, 40))
    yield "repeated", rounded
    yield "fortran_order", np.asfortranarray(rounded)
    yield "strided", rounded[::3, 1::2]
    yield "few_distinct", few_distinct
    # columns longer than a write chunk, read in place and through a copy
    tall = rng.choice(rng.standard_normal(5000), size=(70_000, 2))
    yield "tall_fortran", np.asfortranarray(tall)
    yield "tall_c_order", tall
    yield "c_order_chunks", rng.choice(rng.standard_normal(9000), size=(300, 700))
    yield "special", special
    yield "subnormal", np.array([[5e-324, 1e-320], [-2.5e-310, 2.2250738585072009e-308]])
    yield "one_by_one", np.array([[-0.0]])
    yield "zero_rows", np.zeros((0, 4))
    yield "zero_cols", np.zeros((3, 0))


@pytest.mark.parametrize("name,a", list(_dense_cases()), ids=[n for n, _ in _dense_cases()])
def test_dense_write_bytes_match_per_entry_writer(tmp_path, name, a):
    path = tmp_path / f"{name}.mtx"
    write_matrix(path, a)
    assert path.read_bytes() == dense_mm_oracle(a)
    back = read_matrix(path)
    assert back.shape == a.shape
    if not np.isnan(a).any():
        np.testing.assert_array_equal(np.signbit(back), np.signbit(a))
        np.testing.assert_array_equal(back, a)


def test_dense_write_keeps_comments(tmp_path):
    path = tmp_path / "c.mtx"
    write_matrix(path, np.eye(2), comment="line one\nline two")
    assert path.read_text().splitlines()[:4] == [
        DENSE_BANNER, "%line one", "%line two", "2 2"]


def _same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name,a", list(_dense_cases()), ids=[n for n, _ in _dense_cases()])
def test_dense_read_bits_match_per_token_reader(tmp_path, name, a):
    path = tmp_path / f"{name}.mtx"
    write_matrix(path, a)
    _same_bits(read_matrix(path), dense_mm_read_oracle(path))


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


def _bits_cases():
    rng = np.random.default_rng(11)
    nan_payloads = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
                             0x7FF8000000000000], dtype=np.uint64)
    yield "random", rng.standard_normal(5000).view(np.uint64)
    yield "few_distinct", rng.choice(rng.standard_normal(3000), size=200_000).view(np.uint64)
    # ends inside a third lookup chunk; 40k values collide in the slot table
    yield "several_chunks", rng.choice(rng.standard_normal(40_000),
                                       size=2 * mmio._WRITE_CHUNK + 17).view(np.uint64)
    yield "signed_zeros", rng.choice([0.0, -0.0, 1.0], size=1000).view(np.uint64)
    yield "nan_payloads", rng.choice(nan_payloads, size=1000)
    yield "subnormals", rng.choice([5e-324, 1e-320, -2.5e-310, 2.2250738585072009e-308, 0.0],
                                   size=1000).view(np.uint64)
    yield "one", np.array([7], dtype=np.uint64)
    yield "empty", np.zeros(0, dtype=np.uint64)


@pytest.mark.parametrize("name,bits", list(_bits_cases()), ids=[n for n, _ in _bits_cases()])
def test_distinct_equals_unique_with_inverse(monkeypatch, name, bits):
    looked_up = []
    searchsorted = np.searchsorted

    def spy(keys, values, *args, **kwargs):
        looked_up.append(np.size(values))
        return searchsorted(keys, values, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    keys, where = mmio._distinct(bits)
    want_keys, want_where = np.unique(bits, return_inverse=True)
    np.testing.assert_array_equal(keys, want_keys)
    np.testing.assert_array_equal(where, want_where.reshape(-1))
    if name in ("few_distinct", "several_chunks"):
        assert sum(looked_up) > 0  # slot collisions went through the binary search


@pytest.mark.parametrize("m", [
    SparseMatrix.from_dense(np.array([[0.0, 1.5], [-2.0, 0.0]])),
    np.random.default_rng(3).standard_normal((70, 40)),
    np.zeros((0, 3)),
], ids=["sparse", "dense", "empty"])
@pytest.mark.parametrize("comment", ["", "made by a test\nsecond line"])
def test_write_returns_the_digest_of_the_bytes_written(tmp_path, m, comment):
    path = tmp_path / "m.mtx"
    assert write_matrix(path, m, comment=comment) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_dense_write_keeps_less_than_two_copies(tmp_path):
    # the sorted copy is the one full-size temporary; the lookups run a
    # chunk at a time into one small pattern number per entry
    rng = np.random.default_rng(17)
    a = np.asfortranarray(rng.choice(rng.standard_normal(500), size=(1000, 1000)))
    path = tmp_path / "m.mtx"
    tracemalloc.start()
    try:
        digest = write_matrix(path, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < 2 * a.nbytes, f"peak {peak / a.nbytes:.2f} copies"
