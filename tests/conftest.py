from versebert import corpus, model, preprocess, tokenizer, training  # first: its BLAS timeout applies as numpy loads

import numpy as np
import pytest


@pytest.fixture(scope="session")
def synth_rhyme():
    """A small planted-rhyme corpus with its preprocessed lines and vocab."""
    store = corpus.generate_synthetic(120, seed=7, signal="rhyme")
    lines = [v.line for v in preprocess.preprocess_corpus(store)]
    vocab = tokenizer.train_wordpiece(lines, 512)
    return store, lines, vocab


@pytest.fixture()
def tiny():
    cfg = model.tiny_config(vocab_size=64, max_len=16)
    rngs = training.make_rngs(3)
    params = model.init_params(cfg, rngs.init)
    return cfg, params


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
