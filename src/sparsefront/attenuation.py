"""Monte Carlo study of the front end's distortion attenuation.

For randomly drawn classifiers w (iid standard normal) and uniformly random
size-K supports S, compare the defended distortion against the undefended
distortion epsilon*||w||_1. With S frozen the defended classifier applies
p = F_S^T G_S^T w, from ``frontend.frozen_adjoint`` (for the identity basis,
w masked to S): e = epsilon*sign(w) moves its score by epsilon*|sign(w).p|
(semi-white box), e = epsilon*sign(p) by epsilon*||p||_1 (white box). One
run draws the ensemble and computes p once, and both ratios come from that
same p, so the two modes are paired trial by trial. For
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
from .data import check_int
from .transform import Basis

__all__ = ["EnsembleConfig", "AttenuationReport", "run_ensemble"]

BASIS_KINDS = ("identity", "haar")


@dataclass(frozen=True)
class EnsembleConfig:
    n: int
    k: int
    trials: int
    basis_kind: str = "identity"  # one of BASIS_KINDS
    seed: int = 0
    levels: int = 1  # haar only

    def __post_init__(self):
        for name, low in (("n", 1), ("k", 1), ("trials", 1), ("levels", 1), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        if self.k > self.n:
            raise ValueError(f"need 1 <= K <= N, got K={self.k}, N={self.n}")
        if self.basis_kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        if self.basis_kind == "identity" and self.levels != 1:
            raise ValueError(f"levels={self.levels} needs the haar basis; identity has no levels")
        if self.basis_kind == "haar":
            side = math.isqrt(self.n)
            if side * side != self.n:
                raise ValueError("haar ensemble needs N to be a perfect square")


@dataclass
class AttenuationReport:
    mean_ratio: float
    stderr: float
    samples: np.ndarray  # per-trial ratios


def run_ensemble(config: EnsembleConfig) -> dict[str, AttenuationReport]:
    """Mean defended/undefended distortion ratio over the random ensemble,
    for each attack mode: ``{"semiwhite": ..., "white": ...}``."""
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
    defended = {
        "semiwhite": np.abs(np.einsum("tn,tn->t", np.sign(weights), p)),
        "white": np.abs(p).sum(axis=1),
    }
    return {mode: _report(d / undefended) for mode, d in defended.items()}


def _report(ratios: np.ndarray) -> AttenuationReport:
    stderr = float(ratios.std(ddof=1) / math.sqrt(ratios.size)) if ratios.size > 1 else 0.0
    return AttenuationReport(mean_ratio=float(ratios.mean()), stderr=stderr, samples=ratios)
