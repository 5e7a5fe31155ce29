"""Monte Carlo study of the front end's distortion attenuation.

For randomly drawn classifiers w (iid standard normal) and uniformly random
size-K supports S, compare the defended distortion against the undefended
distortion epsilon*||w||_1. With S frozen the defended classifier applies
p = F_S^T G_S^T w, from ``frontend.frozen_adjoint`` (for the identity basis,
w masked to S): e = epsilon*sign(w) moves its score by epsilon*|sign(w).p|
(semi-white box), e = epsilon*sign(p) by epsilon*||p||_1 (white box). For
the identity basis the semi-white-box ratio has expectation exactly K/N;
the white-box ratio is larger and its growth with N at fixed K traces the
K*polylog(N)/N shape. epsilon cancels in the ratio and is fixed at 1.

Trials derive independent seeds from (seed, trial index), so results are
reproducible regardless of how trials are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import frontend
from .transform import Basis

__all__ = ["EnsembleConfig", "AttenuationReport", "run_ensemble"]


@dataclass(frozen=True)
class EnsembleConfig:
    n: int
    k: int
    trials: int
    basis_kind: str = "identity"  # "identity" | "haar"
    mode: str = "semiwhite"  # "semiwhite" | "white"
    seed: int = 0
    levels: int = 1  # haar only

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= K <= N, got K={self.k}, N={self.n}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.basis_kind not in ("identity", "haar"):
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        if self.mode not in ("semiwhite", "white"):
            raise ValueError(f"unknown attack mode {self.mode!r}")
        if self.basis_kind == "haar":
            side = math.isqrt(self.n)
            if side * side != self.n:
                raise ValueError("haar ensemble needs N to be a perfect square")


@dataclass
class AttenuationReport:
    mean_ratio: float
    stderr: float
    config: EnsembleConfig
    samples: np.ndarray  # per-trial ratios


def run_ensemble(config: EnsembleConfig) -> AttenuationReport:
    """Mean defended/undefended distortion ratio over the random ensemble."""
    n, k = config.n, config.k
    weights = np.empty((config.trials, n))
    supports = np.empty((config.trials, k), dtype=np.int64)
    for t in range(config.trials):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, t]))
        weights[t] = rng.standard_normal(n)
        supports[t] = rng.choice(n, size=k, replace=False)

    if config.basis_kind == "identity":
        rows = np.arange(config.trials)[:, None]
        p = np.zeros_like(weights)
        p[rows, supports] = weights[rows, supports]
    else:
        side = math.isqrt(n)
        basis = Basis("haar_orthonormal", side, side, config.levels)
        p = frontend.frozen_adjoint(basis, supports, weights)

    undefended = np.abs(weights).sum(axis=1)
    if config.mode == "semiwhite":
        defended = np.abs(np.einsum("tn,tn->t", np.sign(weights), p))
    else:
        defended = np.abs(p).sum(axis=1)
    ratios = defended / undefended
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / math.sqrt(config.trials)) if config.trials > 1 else 0.0
    return AttenuationReport(
        mean_ratio=mean,
        stderr=stderr,
        config=config,
        samples=ratios,
    )
