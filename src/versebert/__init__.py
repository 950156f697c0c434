"""BERT-style pipeline for Arabic verse analysis, built from scratch.

Modules: corpus (records, taxonomies, splits, synthesis), preprocess (text
normalization), tokenizer (WordPiece), autograd (tensors + tape + AdamW),
model (encoder + heads), training (MLM pretraining, fine-tuning,
checkpoints), evaluation (classification reports), cli (pipeline commands).
"""

import os

# Read by OpenBLAS when numpy loads it, so set before any module here imports numpy: an
# idle worker sleeps after 2**22 cycles (~1.5 ms), not spinning 2**28 (~0.1 s) through AdamW.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")

__version__ = "0.1.0"
