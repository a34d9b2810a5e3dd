"""Mini MLM encoder, tokenizer/masking machinery, and attachable heads."""

from .encoder import (EncoderConfig, EncoderError, encoder_forward,
                      feature_dim, init_encoder_params, sequence_features)
from .heads import HeadError, HeadSet
from .masking import (ACTION_KEEP_PREDICT, ACTION_MASK, ACTION_RANDOM,
                      MaskingError, MaskingPlan, ima_mask, mlm_mask)
from .vocab import (CLS_ID, MASK_ID, PAD_ID, SPECIAL_TOKENS, UNK_ID, Vocab,
                    VocabError, build_vocab, encode_batch)
