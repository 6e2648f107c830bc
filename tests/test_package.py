"""The public surface of the ``lsikit`` package."""

import lsikit
import lsikit.matrix


def test_all_is_sorted_distinct_and_resolves():
    names = lsikit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(lsikit, name)]
    assert not missing, missing


def test_column_normalize_is_the_matrix_function():
    assert lsikit.column_normalize is lsikit.matrix.column_normalize
