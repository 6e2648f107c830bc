"""Matrix Market reader/writer round trips."""

import numpy as np
import pytest

from lsikit.matrix import SparseMatrix
from lsikit.mmio import DENSE_BANNER, SPARSE_BANNER, read_banner, read_matrix, write_matrix

from oracle_utils import dense_mm_oracle


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
    yield "random", rng.standard_normal((17, 9)) * np.exp(rng.uniform(-30, 30, (17, 9)))
    yield "all_distinct", rng.random((25, 40))
    yield "repeated", rounded
    yield "fortran_order", np.asfortranarray(rounded)
    yield "strided", rounded[::3, 1::2]
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
