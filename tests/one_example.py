"""One example as a batch of one: the package's batched encoders on one
example's leaves, returning its (d_h,) encoding and its BeamSet, or for
easy-first its one beam's merge actions, with the single-example
signatures the tests and the references share, and the batched loss of
one example. A tree reaches the fixed-tree encoder as its merge actions."""

from beamtree import encoders
from beamtree import tensor as T
from beamtree.harness import batch_losses


def encode_bt_cell(leaves, cell, scorer, k, onesoft=False, rng=None):
    enc, beams = encoders.encode_bt_cell(
        leaves, [leaves.data.shape[0]], cell, scorer, k, onesoft,
        None if rng is None else [rng])
    return T.reshape(enc, (-1,)), beams[0]


def encode_easy_first_gumbel(leaves, cell, scorer, rng=None):
    n = leaves.data.shape[0]
    enc, beams = encoders.encode_easy_first_gumbel(
        leaves, [n], cell, scorer, None if rng is None else [rng])
    return T.reshape(enc, (-1,)), beams[0].actions[0]


def encode_recurrent(leaves, cell, h0):
    return T.reshape(encoders.encode_recurrent(
        leaves, [leaves.data.shape[0]], cell, h0), (-1,))


def encode_fixed_tree(leaves, actions, cell):
    return T.reshape(encoders.encode_fixed_tree(leaves, [actions], cell),
                     (-1,))


def example_loss(model, ex, training, rng):
    """The () cross-entropy of one example."""
    rngs = None if rng is None else [rng]
    return T.reshape(batch_losses(model, [ex], training, rngs), ())
