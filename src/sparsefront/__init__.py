"""Sparsifying wavelet front ends and locally-linear attacks for MNIST robustness."""

__version__ = "0.1.0"
