"""conceptfx: building blocks for CausaLM-style concept-effect estimation.

The package has synthetic corpora with exact counterfactual twins (POMS
mood-state and product reviews, under a concept-label bias ladder), a
vocabulary and MLM/IMA masking plans, a small masked-language-model encoder
with sequence heads (one may sit behind gradient reversal), a numpy-only
reverse-mode autodiff, Adam, checkpoints and LDA topics.  It does not yet
train the encoders in stages or estimate a concept's effect.
"""

__version__ = "0.1.0"
