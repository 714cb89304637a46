#!/usr/bin/env python3
"""Print the largest-magnitude model weights per output window.

Reads a trained model and its vocabulary from a pipeline work directory and
lists the most influential feature keys, which is the point of keeping the
model linear.
"""

import argparse
import sys

import numpy as np

from renalrisk.features import Vocabulary
from renalrisk.model import load_model
from renalrisk.triggers import HORIZON_DAYS, TASKS

_EDGES = (0,) + HORIZON_DAYS
WINDOW_NAMES = [f"{lo}-{hi}d" for lo, hi in zip(_EDGES, _EDGES[1:])] + ["no event"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir", help="pipeline work directory")
    parser.add_argument("--task", default="rrt", choices=TASKS)
    parser.add_argument("--top", type=int, default=12)
    args = parser.parse_args()

    vocab = Vocabulary.from_file(f"{args.workdir}/vocab.tsv")
    params, hp, header = load_model(
        f"{args.workdir}/model_{args.task}.bin", expected_vocab_hash=vocab.content_hash()
    )
    keys = vocab.keys()
    print(f"task={args.task}  features={params.n_features}  l1={hp.l1_coefficient:g}")
    for c in range(params.n_classes):
        w = params.weights[c]
        order = np.argsort(-np.abs(w))[: args.top]
        print(f"\nwindow {WINDOW_NAMES[c]} (bias {params.bias[c]:+.3f})")
        for j in order:
            if w[j] == 0.0:
                break
            print(f"  {w[j]:+8.4f}  {keys[j]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
