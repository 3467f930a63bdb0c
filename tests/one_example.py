"""One example as a batch of one: the package's batched encoders on one
example's leaves, returning its (d_h,) encoding and its BeamSet, or for
easy-first the tree its one beam's actions replay to, with the
single-example signatures the tests and the references share, and the
batched loss of one example. A `ParseTree` reaches the fixed-tree encoder
as its merge actions, through `tree_to_actions`."""

from beamtree import encoders
from beamtree import tensor as T
from beamtree.harness import batch_losses
from beamtree.trees import ParseTree, replay_actions


def encode_bt_cell(leaves, cell, scorer, k, onesoft=False, rng=None):
    enc, beams = encoders.encode_bt_cell(
        leaves, [leaves.data.shape[0]], cell, scorer, k, onesoft,
        None if rng is None else [rng])
    return T.reshape(enc, (-1,)), beams[0]


def encode_easy_first_gumbel(leaves, cell, scorer, rng=None):
    n = leaves.data.shape[0]
    enc, beams = encoders.encode_easy_first_gumbel(
        leaves, [n], cell, scorer, None if rng is None else [rng])
    return T.reshape(enc, (-1,)), replay_actions(n, beams[0].actions[0])


def encode_recurrent(leaves, cell, h0):
    return T.reshape(encoders.encode_recurrent(
        leaves, [leaves.data.shape[0]], cell, h0), (-1,))


def encode_fixed_tree(leaves, tree, cell):
    return T.reshape(encoders.encode_fixed_tree(
        leaves, [tree_to_actions(tree)], cell), (-1,))


def tree_to_actions(tree: ParseTree) -> list:
    """Bottom-up merge indices whose replay reproduces `tree`."""
    actions = []
    _post_order_merges(tree, list(range(tree.n_leaves())), actions)
    return actions


def _post_order_merges(t: ParseTree, items: list, actions: list):
    """Append the merges of `t`, children first; `items` holds the leftmost
    leaf of every current item."""
    if t.is_leaf:
        return
    _post_order_merges(t.left, items, actions)
    _post_order_merges(t.right, items, actions)
    i = items.index(t.left.span()[0])
    assert items[i + 1] == t.right.span()[0]
    actions.append(i)
    del items[i + 1]


def example_loss(model, ex, training, rng):
    """The () cross-entropy of one example."""
    rngs = None if rng is None else [rng]
    return T.reshape(batch_losses(model, [ex], training, rngs), ())
