"""SMART-format text collections: parsing, tokenization, and construction
of the word-by-document and query matrices.

Records in a SMART file start with ``.I <id>``; field sections start
with a tag such as ``.T`` (title), ``.A`` (authors), ``.B`` (source) or
``.W`` (abstract) on their own line.  Tokenization lowercases, splits on
any non-alphabetic character, drops stop words and short tokens, and
applies no stemming.  Vocabulary order is lexicographic, so identical
inputs always produce the identical matrix.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .matrix import SparseMatrix

KNOWN_FIELDS = ("T", "A", "B", "W")
DEFAULT_MIN_LENGTH = 2


@dataclass(frozen=True)
class Document:
    id: int
    text: str

    def __post_init__(self):
        if self.id <= 0:
            raise ValueError(f"document id must be positive, got {self.id}")


@dataclass(frozen=True)
class Vocabulary:
    """Ordered unique terms with a term -> index map."""

    terms: tuple
    index: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("vocabulary terms must be unique")
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.terms)})

    def __len__(self):
        return len(self.terms)


@dataclass(frozen=True)
class TokenizerConfig:
    stoplist: frozenset = frozenset()
    min_length: int = DEFAULT_MIN_LENGTH


@dataclass(frozen=True)
class TermDocMatrix:
    """Nonnegative word-by-document matrix with its vocabulary and doc ids."""

    matrix: SparseMatrix
    vocabulary: Vocabulary
    doc_ids: tuple

    def __post_init__(self):
        if self.matrix.rows != len(self.vocabulary):
            raise ValueError("row count must equal vocabulary size")
        if self.matrix.cols != len(self.doc_ids):
            raise ValueError("column count must equal document count")
        if self.matrix.nnz and self.matrix.data.min() < 0:
            raise ValueError("term-document entries must be nonnegative")

    @property
    def nnz_percent(self) -> float:
        cells = self.matrix.rows * self.matrix.cols
        return 100.0 * self.matrix.nnz / cells if cells else 0.0


def _parse_stoplist(lines) -> frozenset:
    return frozenset(
        line.strip().lower()
        for line in lines
        if line.strip() and not line.lstrip().startswith("#")
    )


def default_stoplist() -> frozenset:
    """The bundled English stop-word list."""
    text = resources.files("lsikit.data").joinpath("stopwords_en.txt").read_text("ascii")
    return _parse_stoplist(text.splitlines())


def load_stoplist(path) -> frozenset:
    """One stop word per line; blank lines and ``#`` comments ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_stoplist(fh)


def parse_smart(content: str, fields=("W",)):
    """Split SMART markup into documents.

    ``fields`` selects which sections contribute to the document text;
    selected section bodies are concatenated in file order.  A record
    whose ``.I`` line carries no integer id is rejected with its line
    number; unrecognized field tags are ignored with a warning.
    """
    wanted = {f.upper().lstrip(".") for f in fields}
    unknown = wanted - set(KNOWN_FIELDS)
    if unknown:
        raise ValueError(f"unknown field selection {sorted(unknown)}; known: {KNOWN_FIELDS}")
    docs = []
    seen_ids = set()
    current_id = None
    current_field = None
    chunks = []
    warned_tags = set()

    def flush():
        if current_id is not None:
            if current_id in seen_ids:
                raise ValueError(f"duplicate document id {current_id}")
            seen_ids.add(current_id)
            docs.append(Document(current_id, "\n".join(chunks).strip()))

    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.rstrip()
        tag = None
        rest = ""
        if line.startswith("."):
            head = line[1:].split(None, 1)
            if head and head[0].isalpha() and head[0].isupper():
                tag = head[0]
                rest = head[1] if len(head) > 1 else ""
        if tag == "I":
            flush()
            try:
                current_id = int(rest)
            except ValueError:
                raise ValueError(f"line {lineno}: record has no integer id: {line!r}") from None
            current_field = None
            chunks = []
        elif tag is not None:
            if current_id is None:
                raise ValueError(f"line {lineno}: field section before any record")
            if tag in KNOWN_FIELDS:
                current_field = tag
                if rest and tag in wanted:
                    chunks.append(rest)
            else:
                if tag not in warned_tags:
                    warned_tags.add(tag)
                    warnings.warn(f"ignoring unknown field tag .{tag}", stacklevel=2)
                current_field = None
        else:
            if current_id is None:
                if line.strip():
                    raise ValueError(f"line {lineno}: content before first record")
            elif current_field in wanted:
                chunks.append(line)
    flush()
    return docs


def parse_qrels(content: str) -> dict:
    """Relevance judgments: query id -> set of relevant document ids.

    Rows are whitespace-separated numbers.  The document id sits in
    column 2, unless column 2 is constantly zero, which marks the
    four-column layout (query, 0, doc, relevance); in that layout rows
    with relevance <= 0 are skipped.  Duplicates collapse.
    """
    rows = []
    for lineno, raw in enumerate(content.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split()
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric qrels row {raw!r}") from None
        if len(values) < 2:
            raise ValueError(f"line {lineno}: qrels row needs at least two columns")
        rows.append(values)
    judgments: dict = {}
    trec_layout = all(len(r) >= 3 for r in rows) and all(r[1] == 0 for r in rows)
    for r in rows:
        if trec_layout:
            if len(r) >= 4 and r[3] <= 0:
                continue
            qid, doc = int(r[0]), int(r[2])
        else:
            qid, doc = int(r[0]), int(r[1])
        judgments.setdefault(qid, set()).add(doc)
    return judgments


_NON_ALPHA = re.compile(r"[^a-z]+")


def tokenize(text: str, stoplist=frozenset(), min_length: int = DEFAULT_MIN_LENGTH):
    """Lowercase, split on non-alphabetic characters, drop empty tokens,
    stop words and tokens shorter than ``min_length``.  No stemming."""
    return [
        token
        for token in _NON_ALPHA.split(text.lower())
        if token and len(token) >= min_length and token not in stoplist
    ]


def build_matrix(docs, config: TokenizerConfig = TokenizerConfig()) -> TermDocMatrix:
    """Count term frequencies per document.

    The vocabulary is the lexicographically sorted union of all tokens;
    an empty vocabulary is rejected.
    """
    if not docs:
        raise ValueError("at least one document is required")
    counts = [Counter(tokenize(d.text, config.stoplist, config.min_length)) for d in docs]
    terms = sorted(set().union(*counts))
    if not terms:
        raise ValueError("empty vocabulary: no tokens survived tokenization")
    vocab = Vocabulary(tuple(terms))
    rows, cols, data = [], [], []
    for j, counter in enumerate(counts):
        for term, cnt in sorted(counter.items()):
            rows.append(vocab.index[term])
            cols.append(j)
            data.append(float(cnt))
    matrix = SparseMatrix(len(terms), len(docs), np.array(rows, dtype=np.int64),
                          np.array(cols, dtype=np.int64), np.array(data))
    return TermDocMatrix(matrix, vocab, tuple(d.id for d in docs))


def log_scale(m: TermDocMatrix) -> TermDocMatrix:
    """Entrywise natural-log damping x -> log(1 + x); zeros stay zero."""
    s = m.matrix
    scaled = SparseMatrix(s.rows, s.cols, s.row, s.col, np.log1p(s.data))
    return TermDocMatrix(scaled, m.vocabulary, m.doc_ids)


def build_query_matrix(queries, vocab: Vocabulary, config: TokenizerConfig = TokenizerConfig(),
                       apply_log_scale: bool = True) -> np.ndarray:
    """Query-by-term frequency matrix restricted to the vocabulary.

    Queries pass through the same tokenizer and (by default) the same
    log damping as the documents.  Queries matching no vocabulary term
    yield zero rows and a warning; downstream evaluation skips them.
    """
    if not len(vocab):
        raise ValueError("vocabulary is empty")
    q = np.zeros((len(queries), len(vocab)))
    empty = []
    for i, doc in enumerate(queries):
        for term in tokenize(doc.text, config.stoplist, config.min_length):
            j = vocab.index.get(term)
            if j is not None:
                q[i, j] += 1.0
        if not q[i].any():
            empty.append(doc.id)
    if empty:
        warnings.warn(f"queries {empty} match no vocabulary terms", stacklevel=2)
    if apply_log_scale:
        q = np.log1p(q)
    return q
