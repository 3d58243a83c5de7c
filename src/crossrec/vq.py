"""Multi-head vector quantization against a codebook aliased onto the target
domain embedding table.

The codebook is a *view*: head i, code j is the contiguous slice
``table[j][i*D:(i+1)*D]``. Quantization picks, per head, the code with highest
cosine similarity (lowest index on ties) and concatenates the chosen slices, so
every quantized head-slice is bit-identical to codebook content.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import embed_key, table_starts

COS_EPS = 1e-12
# floats in the code search's score buffer (512 KB): it holds the scores of
# every head for a block of rows, so memory stays flat as catalogs grow
BLOCK_FLOATS = 1 << 16


@dataclass
class Codebook:
    """The target table seen as codes, in one copy per quantized table held
    one after another: copy i is the codebook of the i-th block of rows."""
    table: Tensor  # the target embedding table(s), padding rows included
    heads: int
    counts: tuple  # per copy, the rows quantized against it

    @property
    def size(self):
        """K = |I_target| codes per copy; the padding row is not a code."""
        return self.table.data.shape[0] // len(self.counts) - 1

    @property
    def head_width(self):
        d = self.table.data.shape[1]
        if d % self.heads:
            raise ValueError(f"embedding width {d} not divisible by {self.heads} heads")
        return d // self.heads


def _head_codes(z, book):
    """Per-head nearest-code rows of ``book.table`` for rows of z (N, H*D);
    returns (N, H). The rows split into the consecutive blocks of
    ``book.counts``, block i searching copy i only. All heads of a run of
    rows are scored by one matmul into a buffer of about ``BLOCK_FLOATS``."""
    h, d, k = book.heads, book.head_width, book.size
    codes = np.empty((z.shape[0], h), dtype=np.int64)
    step = max(1, BLOCK_FLOATS // (h * k))
    buf = np.empty((h, step, k))
    lo = 0
    for i, n in enumerate(book.counts):
        base = i * (k + 1)
        cs = book.table.data[base:base + k].reshape(k, h, d)
        # dividing a row by |z| > 0 would not move its argmax: normalize codes only
        unit = cs / np.maximum(np.linalg.norm(cs, axis=2, keepdims=True), COS_EPS)
        unit = np.ascontiguousarray(unit.transpose(1, 2, 0))  # (H, D, K)
        for s in range(lo, lo + n, step):
            e = min(s + step, lo + n)
            sim = np.matmul(z[s:e].reshape(e - s, h, d).transpose(1, 0, 2), unit,
                            out=buf[:, :e - s])
            # every row sees all K codes: argmax takes the lowest index on ties
            codes[s:e] = sim.argmax(axis=2).T + base
        lo += n
    return codes


def quantize_rows(rows, book):
    """Quantize each row of a (N, H*D) tensor; returns (z_q rows, codes array).

    z_q is differentiable into the codebook (and hence the target table); the
    discrete code choice itself carries no gradient.
    """
    if rows.data.shape[1] != book.heads * book.head_width:
        raise ValueError(f"quantize: width {rows.data.shape[1]} != "
                         f"{book.heads}x{book.head_width}")
    if rows.data.shape[0] != sum(book.counts):
        raise ValueError(f"quantize: {rows.data.shape[0]} rows for row counts "
                         f"{book.counts}")
    codes = _head_codes(rows.data, book)
    h, d = book.heads, book.head_width
    # head i of code j is row j*H + i of the table seen as (rows*H, D)
    slices = ad.reshape(book.table, (book.table.data.shape[0] * h, d))
    picked = ad.gather(slices, codes * h + np.arange(h))
    return ad.reshape(picked, (codes.shape[0], h * d)), codes


def quantize_domain_matrix(params, domain, book):
    """Quantize every item row of the tables of ``book.counts`` items that
    ``params[embed_key(domain)]`` holds one after another (each with its
    padding row last).

    Returns (item matrix with the raw padding rows, one vq loss per table
    (see ``autodiff.vq_loss``), codes).
    The returned matrix routes straight-through gradients to the whole table
    while the vq loss trains the codebook (target table) and the embeddings.
    """
    table = params[embed_key(domain)]
    rows = np.concatenate([np.arange(c) + start for c, start in
                           zip(book.counts, table_starts(book.counts))])
    raw = ad.gather(table, rows)
    z_q, codes = quantize_rows(raw, book)
    return (ad.straight_through(table, z_q, rows),
            ad.vq_loss(z_q, raw, book.counts), codes)
