"""SMART parsing, tokenization, matrix building and weighting."""

import numpy as np
import pytest

from lsikit.corpus import (
    Document,
    TokenizerConfig,
    Vocabulary,
    build_matrix,
    build_query_matrix,
    collection_stats,
    column_normalize,
    default_stoplist,
    load_stoplist,
    log_scale,
    parse_qrels,
    parse_smart,
    tokenize,
)

from conftest import SYNONYMY, SYNONYMY_WORDS


def _synonymy_docs():
    # the worked synonymy example rendered as token lists
    counts = {
        1: {"mark": 15, "twain": 15},
        2: {"samuel": 10, "clemens": 20},
        3: {"twain": 20, "samuel": 5, "clemens": 10},
        4: {"purple": 20, "colour": 15},
        5: {"purple": 10},
    }
    docs = []
    for doc_id, terms in counts.items():
        words = []
        for term, n in terms.items():
            words.extend([term] * n)
        docs.append(Document(doc_id, " ".join(words)))
    return docs


# ---------------------------------------------------------------------------
# parse_smart


def test_parse_single_record():
    docs = parse_smart(".I 1\n.W\nhello world\n")
    assert docs == [Document(1, "hello world")]


def test_parse_two_records_in_order():
    docs = parse_smart(".I 1\n.W\nfirst\n.I 2\n.W\nsecond\n")
    assert [d.id for d in docs] == [1, 2]
    assert [d.text for d in docs] == ["first", "second"]


def test_parse_field_selection_and_order():
    content = ".I 3\n.T\nsome title\n.W\nbody text\nmore body\n"
    assert parse_smart(content, ("W",))[0].text == "body text\nmore body"
    assert parse_smart(content, ("T", "W"))[0].text == "some title\nbody text\nmore body"
    assert parse_smart(content, ("T",))[0].text == "some title"


def test_parse_unknown_tag_warns_and_is_ignored():
    content = ".I 1\n.X\n17 22\n.W\nkept\n"
    with pytest.warns(UserWarning, match=r"\.X"):
        docs = parse_smart(content)
    assert docs[0].text == "kept"


def test_parse_record_without_id_is_rejected_with_line():
    with pytest.raises(ValueError, match="line 3"):
        parse_smart(".I 1\n.W\n.I\nbody\n")


def test_parse_duplicate_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_smart(".I 1\n.W\na\n.I 1\n.W\nb\n")


def test_parse_content_before_first_record_rejected():
    with pytest.raises(ValueError, match="line 1"):
        parse_smart("stray text\n.I 1\n.W\nx\n")


# ---------------------------------------------------------------------------
# parse_qrels


def test_qrels_trec_layout():
    assert parse_qrels("1 0 17 1\n") == {1: {17}}


def test_qrels_duplicates_collapse():
    assert parse_qrels("1 17\n1 17\n") == {1: {17}}


def test_qrels_two_column_layout():
    assert parse_qrels("1 4\n1 9\n2 4\n") == {1: {4, 9}, 2: {4}}


def test_qrels_smart_layout_with_trailing_scores():
    # doc id in column 2, extra columns ignored
    assert parse_qrels("1 28 0 0.000000\n1 35 0 0.000000\n") == {1: {28, 35}}


def test_qrels_trec_nonrelevant_rows_skipped():
    assert parse_qrels("1 0 17 1\n1 0 18 0\n") == {1: {17}}


def test_qrels_non_numeric_rejected_with_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_qrels("1 17\n1 banana\n")


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_splits_on_non_alphabetic_and_lowers():
    assert tokenize("The Mark-Twain", {"the"}) == ["mark", "twain"]


def test_tokenize_drops_short_tokens():
    assert tokenize("a I x") == []
    assert tokenize("ab c def", min_length=3) == ["def"]


def test_tokenize_numbers_are_separators():
    assert tokenize("alpha2beta 42 gamma") == ["alpha", "beta", "gamma"]


@pytest.mark.parametrize("min_length", [1, 0, -1])
def test_tokenize_never_returns_empty_tokens(min_length):
    # a leading or trailing separator splits off an empty string
    assert tokenize("1 abc, de.", min_length=min_length) == ["abc", "de"]


def test_default_stoplist_contents():
    stops = default_stoplist()
    assert "the" in stops and "of" in stops and "is" in stops
    assert "mark" not in stops


def test_load_stoplist(tmp_path):
    p = tmp_path / "stop.txt"
    p.write_text("# comment\nfoo\nBAR\n\n")
    assert load_stoplist(p) == {"foo", "bar"}


# ---------------------------------------------------------------------------
# build_matrix


def test_build_matrix_single_document_counts():
    tdm = build_matrix([Document(1, "cat cat dog")])
    assert tdm.vocabulary.terms == ("cat", "dog")
    np.testing.assert_array_equal(tdm.matrix.toarray(), [[2.0], [1.0]])


def test_build_matrix_reproduces_synonymy_example():
    tdm = build_matrix(_synonymy_docs())
    assert set(tdm.vocabulary.terms) == set(SYNONYMY_WORDS)
    # same matrix up to the lexicographic row order
    perm = [tdm.vocabulary.index[w] for w in SYNONYMY_WORDS]
    np.testing.assert_array_equal(tdm.matrix.toarray()[perm], SYNONYMY)
    assert tdm.doc_ids == (1, 2, 3, 4, 5)


def test_build_matrix_block_structure_stats():
    docs = [Document(1, "aa aa"), Document(2, "bb"), Document(3, "cc cc cc")]
    tdm = build_matrix(docs)
    assert tdm.nnz_percent == pytest.approx(100.0 / 3.0)
    stats = collection_stats(tdm)
    assert stats["words"] == 3 and stats["documents"] == 3


def test_build_matrix_rejects_empty_inputs():
    with pytest.raises(ValueError, match="at least one"):
        build_matrix([])
    with pytest.raises(ValueError, match="vocabulary"):
        build_matrix([Document(1, "a 1 -")])


def test_build_matrix_deterministic():
    a = build_matrix(_synonymy_docs())
    b = build_matrix(_synonymy_docs())
    np.testing.assert_array_equal(a.matrix.data, b.matrix.data)
    np.testing.assert_array_equal(a.matrix.row, b.matrix.row)
    assert a.vocabulary.terms == b.vocabulary.terms


# ---------------------------------------------------------------------------
# weighting


def test_log_scale_values():
    tdm = build_matrix([Document(1, " ".join(["word"] * 15) + " other")])
    scaled = log_scale(tdm)
    idx = scaled.vocabulary.index["word"]
    assert scaled.matrix.toarray()[idx, 0] == pytest.approx(np.log(16.0), rel=1e-15)
    # zeros remain unstored
    assert scaled.matrix.nnz == tdm.matrix.nnz


def test_log_scale_of_e_minus_one():
    tdm = build_matrix([Document(1, "xx yy")])
    # overwrite the counts with e - 1 to pin the natural-log convention
    from lsikit.matrix import SparseMatrix

    s = tdm.matrix
    forced = SparseMatrix(s.rows, s.cols, s.row, s.col, np.full(s.nnz, np.e - 1.0))
    from lsikit.corpus import TermDocMatrix

    scaled = log_scale(TermDocMatrix(forced, tdm.vocabulary, tdm.doc_ids))
    np.testing.assert_allclose(scaled.matrix.data, 1.0, rtol=1e-15)


def test_log_scale_preserves_within_column_order():
    docs = [Document(1, "aa " * 7 + "bb " * 3 + "cc"), Document(2, "aa bb bb")]
    tdm = build_matrix(docs)
    scaled = log_scale(tdm)
    for j in range(2):
        before = tdm.matrix.toarray()[:, j]
        after = scaled.matrix.toarray()[:, j]
        order_before = np.argsort(before, kind="stable")
        order_after = np.argsort(after, kind="stable")
        np.testing.assert_array_equal(order_before, order_after)


def test_column_normalize_single_column():
    tdm = build_matrix([Document(1, "aaa aaa aaa bb bb bb bb")])
    normalized = column_normalize(tdm)
    np.testing.assert_allclose(
        sorted(normalized.matrix.data), [3 / 5, 4 / 5], rtol=1e-12
    )


def test_column_normalize_unit_column_unchanged():
    from lsikit.corpus import TermDocMatrix
    from lsikit.matrix import SparseMatrix

    m = SparseMatrix(2, 1, [0, 1], [0, 0], [0.6, 0.8])
    tdm = TermDocMatrix(m, Vocabulary(("aa", "bb")), (1,))
    normalized = column_normalize(tdm)
    np.testing.assert_allclose(normalized.matrix.data, [0.6, 0.8], rtol=1e-12)


def test_column_normalize_identical_columns_share_factor():
    docs = [Document(1, "aa bb bb"), Document(2, "aa bb bb")]
    normalized = column_normalize(build_matrix(docs))
    dense = normalized.matrix.toarray()
    np.testing.assert_allclose(dense[:, 0], dense[:, 1], rtol=1e-15)


def test_column_normalize_rejects_zero_column():
    from lsikit.corpus import TermDocMatrix
    from lsikit.matrix import SparseMatrix

    m = SparseMatrix(2, 2, [0], [0], [1.0])
    tdm = TermDocMatrix(m, Vocabulary(("aa", "bb")), (1, 2))
    with pytest.raises(ValueError, match=r"\[1\]"):
        column_normalize(tdm)


# ---------------------------------------------------------------------------
# queries


def test_query_matrix_counts_known_terms():
    tdm = build_matrix(_synonymy_docs())
    q = build_query_matrix([Document(1, "mark twain")], tdm.vocabulary,
                           apply_log_scale=False)
    assert q.shape == (1, 6)
    assert q[0, tdm.vocabulary.index["mark"]] == 1.0
    assert q[0, tdm.vocabulary.index["twain"]] == 1.0
    assert q.sum() == 2.0


def test_query_matrix_log_scaling_matches_documents():
    tdm = build_matrix(_synonymy_docs())
    q = build_query_matrix([Document(1, "mark mark twain")], tdm.vocabulary)
    assert q[0, tdm.vocabulary.index["mark"]] == pytest.approx(np.log(3.0))


def test_query_of_only_stopwords_warns_and_is_zero():
    tdm = build_matrix(_synonymy_docs())
    config = TokenizerConfig(frozenset({"the", "and"}))
    with pytest.warns(UserWarning, match="no vocabulary terms"):
        q = build_query_matrix([Document(7, "the and")], tdm.vocabulary, config)
    assert not q.any()
