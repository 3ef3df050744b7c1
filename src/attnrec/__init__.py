"""Hybrid recommender: attentive autoencoders feeding weighted matrix
factorization over implicit feedback, with a ranking evaluation harness."""
