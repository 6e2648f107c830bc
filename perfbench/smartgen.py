"""Deterministic synthetic inputs for the lsikit benchmark.

SMART collections (``.ALL`` documents, ``.QRY`` queries, ``.REL``
judgments) are drawn from a planted-topic model over a Zipfian
vocabulary: every document has a primary topic (its planted label), a
secondary topic and a background share, and every query is a short
sample of one topic whose relevant documents are that topic's
documents.  Topic word sets overlap and the background share is large,
so retrieval quality stays mid-range instead of saturating.

Point clouds for spectral clustering follow the geometry of
``lsikit.cluster.two_rings`` / ``two_moons`` (re-implemented here so the
benchmark inputs do not change when the program does) and are written
as dense Matrix Market arrays.

Everything is a pure function of the spec and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class CollectionSpec:
    """Shape of one synthetic SMART collection."""

    docs: int
    pool: int            # candidate vocabulary; the built vocabulary is the used part
    topics: int
    topic_words: int     # words per topic, drawn from the pool (topics overlap)
    queries: int
    doc_len: tuple       # (low, high) tokens per document, uniform
    query_len: tuple     # (low, high) tokens per query, uniform
    mix: tuple           # token shares (primary topic, secondary topic); rest is background
    query_topic_share: float
    zipf: float          # Zipf exponent of the background and topic word ranks


# ADI size: about 1.2k words x 82 docs at about 2 % nonzero.
ADI = CollectionSpec(docs=82, pool=3200, topics=8, topic_words=250, queries=35,
                     doc_len=(15, 41), query_len=(6, 14), mix=(0.3, 0.2),
                     query_topic_share=0.5, zipf=0.72)
# Medline scale in documents (1033 short abstracts); the vocabulary is cut
# to about 1.1k words so one completion index fits a benchmark pass.
MEDLINE = CollectionSpec(docs=1033, pool=1200, topics=30, topic_words=80, queries=30,
                         doc_len=(5, 10), query_len=(8, 16), mix=(0.45, 0.2),
                         query_topic_share=0.6, zipf=0.75)


def pseudo_word(i: int) -> str:
    """The i-th pronounceable alphabetic word (three consonant-vowel
    syllables plus a closing consonant, so it is never a stop word)."""
    letters = []
    for _ in range(3):
        i, c = divmod(i, len(_CONSONANTS))
        i, v = divmod(i, len(_VOWELS))
        letters.append(_CONSONANTS[c] + _VOWELS[v])
    i, c = divmod(i, len(_CONSONANTS))
    if i:
        raise ValueError("word index out of range")
    return "".join(letters) + _CONSONANTS[c]


def _zipf_weights(n, s):
    w = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    return w / w.sum()


def _topic_tables(spec, rng):
    words = [pseudo_word(i) for i in rng.permutation(spec.pool)]
    background = _zipf_weights(spec.pool, spec.zipf)
    # topic words skip the very head of the background ranking, so topics
    # are carried by mid-frequency words and overlap with each other
    topic_sets = [rng.choice(np.arange(20, spec.pool), spec.topic_words, replace=False)
                  for _ in range(spec.topics)]
    topic_weights = _zipf_weights(spec.topic_words, spec.zipf)
    return words, background, topic_sets, topic_weights


def _draw_tokens(rng, n, shares, topic_sets, topic_weights, background, pool):
    """n word ids: topic t with probability shares[t], else background."""
    out = np.empty(n, dtype=np.int64)
    source = rng.random(n)
    edge = 0.0
    taken = np.zeros(n, dtype=bool)
    for topic, share in shares:
        mask = (~taken) & (source < edge + share)
        picks = rng.choice(len(topic_weights), int(mask.sum()), p=topic_weights)
        out[mask] = topic_sets[topic][picks]
        taken |= mask
        edge += share
    rest = ~taken
    out[rest] = rng.choice(pool, int(rest.sum()), p=background)
    return out


def _smart_records(texts):
    return "".join(f".I {i}\n.W\n{text}\n" for i, text in enumerate(texts, start=1))


def _wrap(words, width=10):
    return "\n".join(" ".join(words[i:i + width]) for i in range(0, len(words), width))


def write_collection(spec: CollectionSpec, seed: int, out_dir, name: str) -> dict:
    """Write ``NAME.ALL``, ``NAME.QRY``, ``NAME.REL`` and ``NAME.topics.csv``
    (planted primary topic per document, ``item,label``) into ``out_dir``.
    Returns the paths and the generator's own facts."""
    rng = np.random.default_rng([seed, spec.docs, spec.pool])
    words, background, topic_sets, topic_weights = _topic_tables(spec, rng)
    primary = np.arange(spec.docs) % spec.topics
    rng.shuffle(primary)
    doc_texts = []
    for t in primary:
        second = (t + 1 + int(rng.integers(spec.topics - 1))) % spec.topics
        n = int(rng.integers(spec.doc_len[0], spec.doc_len[1] + 1))
        ids = _draw_tokens(rng, n, ((t, spec.mix[0]), (second, spec.mix[1])),
                           topic_sets, topic_weights, background, spec.pool)
        doc_texts.append(_wrap([words[i] for i in ids]))
    query_topics = np.arange(spec.queries) % spec.topics
    rng.shuffle(query_topics)
    query_texts = []
    rel_lines = []
    for q, t in enumerate(query_topics, start=1):
        n = int(rng.integers(spec.query_len[0], spec.query_len[1] + 1))
        ids = _draw_tokens(rng, n, ((t, spec.query_topic_share),),
                           topic_sets, topic_weights, background, spec.pool)
        query_texts.append(_wrap([words[i] for i in ids]))
        rel_lines.extend(f"{q} {d}\n" for d in np.flatnonzero(primary == t) + 1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "docs": out / f"{name}.ALL",
        "queries": out / f"{name}.QRY",
        "qrels": out / f"{name}.REL",
        "topics": out / f"{name}.topics.csv",
    }
    paths["docs"].write_text(_smart_records(doc_texts), encoding="ascii")
    paths["queries"].write_text(_smart_records(query_texts), encoding="ascii")
    paths["qrels"].write_text("".join(rel_lines), encoding="ascii")
    paths["topics"].write_text(
        "item,label\n" + "".join(f"{i},{t}\n" for i, t in enumerate(primary)), encoding="ascii")
    return {"paths": {k: str(v) for k, v in paths.items()},
            "docs": spec.docs, "queries": spec.queries, "topics": spec.topics}


# ---------------------------------------------------------------------------
# point clouds


def two_rings(n_per_ring, radii, noise, rng):
    cols, labels = [], []
    for ring, radius in enumerate(radii):
        angles = 2.0 * np.pi * np.arange(n_per_ring) / n_per_ring
        cols.append(radius * np.stack([np.cos(angles), np.sin(angles)])
                    + noise * rng.standard_normal((2, n_per_ring)))
        labels += [ring] * n_per_ring
    return np.concatenate(cols, axis=1), labels


def two_moons(n_per_moon, noise, rng):
    t = np.pi * np.arange(n_per_moon) / max(n_per_moon - 1, 1)
    pts = np.concatenate([np.stack([np.cos(t), np.sin(t)]),
                          np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)])], axis=1)
    return pts + noise * rng.standard_normal(pts.shape), [0] * n_per_moon + [1] * n_per_moon


def write_dense_mm(path, a) -> None:
    """Matrix Market array file, column-major, shortest round-trip floats."""
    body = "\n".join(repr(float(v)) for v in np.asarray(a, dtype=float).T.ravel())
    Path(path).write_text(
        f"%%MatrixMarket matrix array real general\n{a.shape[0]} {a.shape[1]}\n{body}\n",
        encoding="ascii")


def write_labels(path, labels) -> None:
    Path(path).write_text("item,label\n" + "".join(f"{i},{v}\n" for i, v in enumerate(labels)),
                          encoding="ascii")


def write_clouds(seed: int, out_dir, n_per_cloud: int, noise: float) -> dict:
    """``rings.mtx`` / ``moons.mtx`` (2 x N point columns) with labels."""
    rng = np.random.default_rng([seed, n_per_cloud])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (pts, labels) in (
        ("rings", two_rings(n_per_cloud, (1.0, 5.0), noise, rng)),
        ("moons", two_moons(n_per_cloud, noise * 0.5, rng)),
    ):
        write_dense_mm(out / f"{name}.mtx", pts)
        write_labels(out / f"{name}.labels.csv", labels)
        paths[name] = str(out / f"{name}.mtx")
        paths[f"{name}_labels"] = str(out / f"{name}.labels.csv")
    return {"paths": paths, "points": 2 * n_per_cloud}
