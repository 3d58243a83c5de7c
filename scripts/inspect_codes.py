#!/usr/bin/env python3
"""Dump the multi-head codes assigned to every source item of a checkpoint.

Each output line is "domain item_id code_1 ... code_H". Useful for eyeballing
how source items share the target-aliased codebook. A summary goes to stderr,
one line per domain and head: the codes used out of K, the perplexity of the
code counts (exp of their entropy; K when every code is used equally) and the
dead codes, which no item picked.

Example:
    python3 scripts/inspect_codes.py run/best.ckpt
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from crossrec.autodiff import Tensor
from crossrec.checkpoint import load_checkpoint
from crossrec.runconfig import parse_config, effective_model_config
from crossrec.train import load_manifest
from crossrec.vq import make_codebook, quantize_domain_matrix, write_code_dump


def summarize(domain, codes, size):
    """Per head of ``codes`` (items, H): codes used, perplexity, dead codes."""
    for head, column in enumerate(codes.T):
        counts = np.bincount(column, minlength=size)
        p = counts[counts > 0] / len(column)
        used = len(p)
        perplexity = float(np.exp(-np.sum(p * np.log(p))))
        print(f"{domain} head {head}: {used}/{size} codes used, "
              f"perplexity {perplexity:.2f}, {size - used} dead", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkpoint")
    parser.add_argument("--out", default="-", help="output path ('-' = stdout)")
    args = parser.parse_args()

    tensors, config_text = load_checkpoint(args.checkpoint)
    cfg = parse_config(config_text)
    target = "target"  # the domain name the synthetic generator gives the target
    if cfg.data.manifest:
        target = next(d for d, role, _ in load_manifest(cfg.data.manifest)
                      if role == "target")
    model_cfg = effective_model_config(cfg, target)
    params = {name: Tensor(arr) for name, arr in tensors.items()}
    fh = sys.stdout if args.out == "-" else open(args.out, "w")
    for name in sorted(params):
        if not name.startswith("embed.") or \
                name == f"embed.{model_cfg.target_domain}":
            continue
        domain = name.split(".", 1)[1]
        items = params[name].data.shape[0] - 1  # the padding row is not quantized
        book = make_codebook(params, model_cfg.target_domain, model_cfg.vq.heads,
                             (items,))
        _, _, codes = quantize_domain_matrix(params, domain, book)
        write_code_dump(fh, domain, codes)
        summarize(domain, codes, book.size)
    if fh is not sys.stdout:
        fh.close()


if __name__ == "__main__":
    main()
