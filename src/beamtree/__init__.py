"""Latent-tree sequence encoders with beam search and relaxed top-k,
trained end-to-end on ListOps generalization splits."""
