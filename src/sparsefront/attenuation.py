"""Monte Carlo study of the front end's distortion attenuation.

For randomly drawn classifiers w (iid standard normal) and uniformly random
size-K supports S, compare the defended distortion against the undefended
distortion epsilon*||w||_1. With S frozen the defended classifier applies
p = F_S^T G_S^T w, from ``frontend.frozen_adjoint`` on the sqrt(N) x sqrt(N)
wavelet basis (w masked to S under identity): e = epsilon*sign(w) moves its
score by epsilon*|sign(w).p| (semi-white box), e = epsilon*sign(p) by
epsilon*||p||_1 (white box). One run draws the ensemble and computes p once,
and both ratios come from that same p, so the two modes are paired trial by
trial. For uniform S, E[P_S] = (K/N) I and G F = I, so the signed
semi-white-box change has mean exactly (K/N)*||w||_1 under every basis. The
white-box ratio is larger and its growth with N at fixed K traces the
K*polylog(N)/N shape. epsilon cancels in the ratio and is fixed at 1.

Trials derive independent seeds from (seed, trial index), so results are
reproducible regardless of how trials are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import frontend
from .data import check_int
from .transform import WAVELETS, Basis

__all__ = ["EnsembleConfig", "AttenuationReport", "run_ensemble"]


@dataclass(frozen=True)
class EnsembleConfig:
    n: int
    k: int
    trials: int
    basis_kind: str = "identity"  # "identity" or a short name in transform.WAVELETS
    seed: int = 0
    levels: int = 1  # a wavelet's only
    basis: Basis | None = field(init=False)  # the wavelet's sqrt(N) x sqrt(N) basis

    def __post_init__(self):
        for name, low in (("n", 1), ("k", 1), ("trials", 1), ("levels", 1), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        if self.k > self.n:
            raise ValueError(f"need 1 <= K <= N, got K={self.k}, N={self.n}")
        wavelet = WAVELETS.get(self.basis_kind)
        if wavelet is None and self.basis_kind != "identity":
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        if wavelet is None and self.levels != 1:
            raise ValueError(f"levels={self.levels} needs a wavelet basis; identity has no levels")
        side = math.isqrt(self.n)
        if wavelet is not None and side * side != self.n:
            raise ValueError(f"a wavelet ensemble needs N to be a square, got N={self.n}")
        object.__setattr__(self, "basis", None if wavelet is None  # Basis checks the levels
                           else Basis(wavelet.kind, side, side, self.levels))


@dataclass
class AttenuationReport:
    mean_ratio: float
    stderr: float
    samples: np.ndarray  # per-trial ratios


def run_ensemble(config: EnsembleConfig) -> dict[str, AttenuationReport]:
    """Mean defended/undefended distortion ratio over the random ensemble,
    for each attack mode: ``{"semiwhite": ..., "white": ...}``."""
    weights = np.empty((config.trials, config.n))
    kept = np.zeros((config.trials, config.n), dtype=bool)
    for t in range(config.trials):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, t]))
        weights[t] = rng.standard_normal(config.n)
        kept[t, rng.choice(config.n, size=config.k, replace=False)] = True

    if config.basis is None:  # identity
        p = np.where(kept, weights, 0.0)
    else:
        p = frontend.frozen_adjoint(config.basis, kept, weights)

    undefended = np.abs(weights).sum(axis=1)
    defended = {
        "semiwhite": np.abs(np.einsum("tn,tn->t", np.sign(weights), p)),
        "white": np.abs(p).sum(axis=1),
    }
    return {mode: _report(d / undefended) for mode, d in defended.items()}


def _report(ratios: np.ndarray) -> AttenuationReport:
    stderr = float(ratios.std(ddof=1) / math.sqrt(ratios.size)) if ratios.size > 1 else 0.0
    return AttenuationReport(mean_ratio=float(ratios.mean()), stderr=stderr, samples=ratios)
