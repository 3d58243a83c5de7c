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
from .objective import domain_item_matrix


@dataclass(frozen=True)
class EvalResult:
    ndcg_at_k: float
    recall_at_k: float
    mrr: float
    k: int
    num_users: int


def rank_of_truth(scores, truth):
    """1-based rank of the truth under score-desc, id-asc total order."""
    s = scores.data if isinstance(scores, ad.Tensor) else np.asarray(scores, dtype=np.float64)
    truth = int(truth)
    if not 0 <= truth < s.shape[0]:
        raise IndexError(f"rank_of_truth: truth {truth} out of range [0, {s.shape[0]})")
    st = s[truth]
    greater = int(np.sum(s > st))
    tied_lower = int(np.sum((s == st) & (np.arange(s.shape[0]) < truth)))
    return 1 + greater + tied_lower


def metrics_from_rank(rank, k):
    """(ndcg@k, recall@k, reciprocal rank) for a single relevant item."""
    if rank < 1 or k < 1:
        raise ValueError(f"metrics_from_rank: need rank >= 1 and k >= 1, "
                         f"got rank={rank}, k={k}")
    hit = 1.0 if rank <= k else 0.0
    ndcg = 1.0 / np.log2(rank + 1) if rank <= k else 0.0
    return ndcg, hit, 1.0 / rank


def evaluate(params, dataset, split, k, model_cfg, chunk=256):
    """Mean per-user metrics over a split, users in ascending id order.

    Scoring uses the same (quantized or raw) item-matrix path as training.
    """
    batch = eval_batch(dataset, split, model_cfg.encoder.max_len)
    ranks = []
    with ad.no_record():
        matrix_full = domain_item_matrix(params, dataset.domain_id, model_cfg)[0]
        items = ad.slice_axis(matrix_full, 0, 0, dataset.item_count)
        for lo in range(0, batch.inputs.shape[0], chunk):
            hi = min(lo + chunk, batch.inputs.shape[0])
            hidden = backbone.encode_steps(params, model_cfg.encoder, matrix_full,
                                            batch.inputs[lo:hi])
            scores = ad.matmul(hidden, ad.transpose(items)).data
            for row, truth in zip(scores, batch.targets[lo:hi]):
                ranks.append(rank_of_truth(row, truth))
    per_user = np.array([metrics_from_rank(r, k) for r in ranks])
    ndcg, recall, rr = per_user.mean(axis=0)
    return EvalResult(ndcg_at_k=float(ndcg), recall_at_k=float(recall),
                      mrr=float(rr), k=k, num_users=len(ranks))


def per_user_ranks(params, dataset, split, model_cfg):
    """(user_id, rank) pairs for the optional rank dump."""
    batch = eval_batch(dataset, split, model_cfg.encoder.max_len)
    out = []
    with ad.no_record():
        matrix_full = domain_item_matrix(params, dataset.domain_id, model_cfg)[0]
        items = ad.slice_axis(matrix_full, 0, 0, dataset.item_count)
        hidden = backbone.encode_steps(params, model_cfg.encoder, matrix_full,
                                        batch.inputs)
        scores = ad.matmul(hidden, ad.transpose(items)).data
        for user, (row, truth) in enumerate(zip(scores, batch.targets)):
            out.append((user, rank_of_truth(row, truth)))
    return out
