"""Candidate match-pair selection via TF-IDF retrieval over visual words."""

from __future__ import annotations

import numpy as np

from .vocab import VocabularyTree

DEFAULT_INDEX_FEATURES = 1500
DEFAULT_TOP_K = 100


def _histograms(features, vocab, index_features):
    ids = sorted(features)
    hists = {}
    for iid in ids:
        fs = features[iid]
        if len(fs) == 0:
            continue
        idx = fs.top_scale_indices(index_features)
        words = vocab.quantize(fs.descriptors[idx])
        h = np.bincount(words, minlength=vocab.num_words).astype(float)
        hists[iid] = h / h.sum()
    return hists


def retrieve_pairs(
    features,
    vocab: VocabularyTree,
    index_features: int = DEFAULT_INDEX_FEATURES,
    top_k: int = DEFAULT_TOP_K,
):
    """Deduplicated unordered candidate pairs from per-image retrieval.

    Each image is indexed by its top-scale descriptors as a TF-IDF weighted
    word histogram; the top_k most cosine-similar other images are emitted
    for each image.
    """
    hists = _histograms(features, vocab, index_features)
    ids = sorted(hists)
    if len(ids) < 2:
        return []
    H = np.array([hists[i] for i in ids])
    df = (H > 0).sum(axis=0)
    idf = np.log(len(ids) / np.maximum(df, 1))
    W = H * idf
    norms = np.linalg.norm(W, axis=1)
    # fall back to raw tf when idf kills every word (tiny corpora)
    zero = norms < 1e-12
    if zero.any():
        W[zero] = H[zero]
        norms = np.linalg.norm(W, axis=1)
    W = W / np.maximum(norms, 1e-12)[:, None]
    return _rank_pairs(W @ W.T, ids, top_k)


def _rank_pairs(sim, ids, top_k):
    """Sorted unordered pairs joining each image ids[i] to its top_k others
    by descending sim[i], ties broken by ascending image id."""
    ids = np.asarray(ids)
    pairs = set()
    for qi, qid in enumerate(ids.tolist()):
        order = np.lexsort((ids, -sim[qi]))
        for j in ids[order[order != qi][:top_k]].tolist():
            pairs.add((min(qid, j), max(qid, j)))
    return sorted(pairs)
