"""Latent-tree sequence encoders with beam search and relaxed top-k,
trained end-to-end on ListOps generalization splits."""

from .cells import GrcParams, LeafParams, ScorerParams, grc_compose, \
    leaf_transform_seq, score
from .encoders import encode_bt_cell, encode_easy_first_gumbel, \
    encode_fixed_tree, encode_recurrent
from .harness import Model, RunConfig, classify, evaluate_checkpoint, train
from .listops import GenConfig, build_splits, eval_listops, generate, \
    gold_tree_listops, tokenize
from .tensor import AdamState, Tape, Tensor, adam_step
from .topk import BeamSet, merge_beams, onesoft_topk, plain_topk
from .trees import bracketed, parse_distribution, replay_actions, span_f1

__version__ = "0.1.0"
