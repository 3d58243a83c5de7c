"""Full-item-space ranking evaluation: NDCG@k, Recall@k, MRR.

Ties are broken deterministically (score descending, item id ascending) so
oracle tests can mirror the exact order; MRR is uncut.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import backbone
from .data import eval_batch
from .objective import domain_item_matrix, item_rows, item_scores


@dataclass(frozen=True)
class EvalResult:
    ndcg_at_k: float
    recall_at_k: float
    mrr: float
    k: int
    num_users: int


# numpy (2.4) copies the broadcast truth score into its ufunc buffer (8192
# items by default) when a score row is shorter than the buffer; from about
# this row length on, a buffer no longer than a row, which needs no copy,
# compares faster (1.6x at 1024 items on a 2-core Xeon host; slower below
# 192 items, where the per-row calls cost more than the copy)
WIDE_ROW = 256

# users encoded and ranked per pass: the fastest in a sweep of 128 to 2000
EVAL_CHUNK = 256


def _row_counts(mask):
    """True entries along the last axis of a bool array, as int64: the bits
    packed eight to a byte and popcounted, a fraction of the cost of adding
    up the bools one by one."""
    return np.add.reduce(np.bitwise_count(np.packbits(mask, axis=-1)), axis=-1,
                         dtype=np.int64)


def rank_of_truth(scores, truths):
    """1-based rank of each truth under score-desc, id-asc total order.

    ``scores`` is (..., N) and ``truths`` holds one item id per score row, so
    a vector and an id give one rank and a (B, N) matrix and B ids give B.
    A truth ranks after every higher score and every equal score at a lower
    id; NaN compares neither higher nor equal. Two passes over the scores
    count the higher and the equal ones; only rows whose truth ties with
    another item pay for the id-ordered count of the ties.
    """
    s = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.int64)
    n = s.shape[-1]
    bad = (truths < 0) | (truths >= n)
    if np.any(bad):
        raise IndexError(f"rank_of_truth: truth {truths[bad].flat[0]} out of range [0, {n})")
    st = np.take_along_axis(s, truths[..., None], axis=-1)
    with np.errstate():  # restores numpy's ufunc buffer size on exit
        if WIDE_ROW <= n < np.getbufsize():
            np.setbufsize(n // 16 * 16)
        above = s > st
        equal = s == st
    rank = np.asarray(1 + _row_counts(above))
    tied = _row_counts(equal) > 1  # a truth equals itself unless it is NaN
    if np.any(tied):
        rows = np.nonzero(tied) if tied.ndim else ()
        col = np.broadcast_to(truths, tied.shape)[rows]
        rank[rows] += _row_counts(equal[rows] & (np.arange(n) < col[..., None]))
    return rank[()]


def metrics_from_rank(rank, k):
    """(ndcg@k, recall@k, reciprocal rank) for a single relevant item, each
    elementwise over an array of ranks."""
    rank = np.asarray(rank)
    if np.any(rank < 1) or k < 1:
        raise ValueError(f"metrics_from_rank: need rank >= 1 and k >= 1, "
                         f"got rank={rank}, k={k}")
    top = rank <= k
    # [()] turns a 0-d result into a scalar and leaves arrays as they are
    hit = np.where(top, 1.0, 0.0)[()]
    ndcg = np.where(top, 1.0 / np.log2(rank + 1), 0.0)[()]
    return ndcg, hit, 1.0 / rank


def evaluate(params, dataset, split, k, model_cfg):
    """Mean per-user metrics over a split, users in ascending id order.

    Scoring uses the same (quantized or raw) item-matrix path as training.
    """
    batch = eval_batch(dataset, split, model_cfg.encoder.max_len)
    ranks = []
    with ad.no_record():
        matrix = domain_item_matrix(params, dataset.domain_id, model_cfg,
                                    batch.counts)[0]
        items = item_rows(matrix, batch.counts)
        for lo in range(0, batch.inputs.shape[0], EVAL_CHUNK):
            hi = min(lo + EVAL_CHUNK, batch.inputs.shape[0])
            hidden = backbone.encode_steps(params, model_cfg.encoder, matrix,
                                           batch.inputs[lo:hi])
            scores = item_scores(hidden, items, batch.counts).data
            ranks.append(rank_of_truth(scores, batch.targets[lo:hi]))
    ranks = np.concatenate(ranks)
    per_user = np.stack(metrics_from_rank(ranks, k), axis=1)
    ndcg, recall, rr = per_user.mean(axis=0)
    return EvalResult(ndcg_at_k=float(ndcg), recall_at_k=float(recall),
                      mrr=float(rr), k=k, num_users=len(ranks))
