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


def rank_of_truth(scores, truths):
    """1-based rank of each truth under score-desc, id-asc total order.

    ``scores`` is (..., N) and ``truths`` holds one item id per score row, so
    a vector and an id give one rank and a (B, N) matrix and B ids give B.
    """
    s = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.int64)
    n = s.shape[-1]
    bad = (truths < 0) | (truths >= n)
    if np.any(bad):
        raise IndexError(f"rank_of_truth: truth {truths[bad].flat[0]} out of range [0, {n})")
    col = truths[..., None]
    st = np.take_along_axis(s, col, axis=-1)
    greater = np.sum(s > st, axis=-1)
    tied_lower = np.sum((s == st) & (np.arange(n) < col), axis=-1)
    return 1 + greater + tied_lower


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


def evaluate(params, dataset, split, k, model_cfg, chunk=256):
    """Mean per-user metrics over a split, users in ascending id order.

    Scoring uses the same (quantized or raw) item-matrix path as training.
    """
    batch = eval_batch(dataset, split, model_cfg.encoder.max_len)
    ranks = []
    with ad.no_record():
        matrix = domain_item_matrix(params, dataset.domain_id, model_cfg,
                                    batch.counts)[0]
        items = item_rows(matrix, batch.counts)
        for lo in range(0, batch.inputs.shape[0], chunk):
            hi = min(lo + chunk, batch.inputs.shape[0])
            hidden = backbone.encode_steps(params, model_cfg.encoder, matrix,
                                           batch.inputs[lo:hi])
            scores = item_scores(hidden, items, batch.counts).data
            ranks.append(rank_of_truth(scores, batch.targets[lo:hi]))
    ranks = np.concatenate(ranks)
    per_user = np.stack(metrics_from_rank(ranks, k), axis=1)
    ndcg, recall, rr = per_user.mean(axis=0)
    return EvalResult(ndcg_at_k=float(ndcg), recall_at_k=float(recall),
                      mrr=float(rr), k=k, num_users=len(ranks))
