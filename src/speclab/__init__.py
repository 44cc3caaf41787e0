"""A desk-scale laboratory for lossless speculative decoding.

Character-level n-gram models stand in for the big target model and the
block-diffusion drafter; a simulated cost model prices drafter passes and
verification rounds so policies can be compared on speedup without a GPU.
The headline policy keeps extending a draft in small chunks until the
drafter's own confidence dips — failing fast on hard text and speculating
deep into easy text.

The top level exports the names of the README quick start; everything else
is imported from its submodule (``speclab.config``, ``speclab.report``, ...).
"""

from .analysis import summarize
from .corpora import mixed_corpus, sample_prompts
from .drafter import DiffusionDrafter
from .engine import CostModel, run_episode
from .errors import SpecLabError
from .ngram import train_ngram
from .policies import FailFast
from .tokenizers import tokenize
from .verifier import vanilla_decode

__version__ = "0.1.0"

__all__ = [
    "CostModel",
    "DiffusionDrafter",
    "FailFast",
    "SpecLabError",
    "mixed_corpus",
    "run_episode",
    "sample_prompts",
    "summarize",
    "tokenize",
    "train_ngram",
    "vanilla_decode",
]
