"""Sparsifying wavelet front ends and locally-linear attacks for MNIST robustness."""

__version__ = "0.1.0"

from .transform import Basis, forward_batch, inverse_batch, max_l1_norm
from .frontend import (
    FrontEndConfig,
    top_k_batch,
    apply_batch,
    defend,
    support_batch,
    frozen_adjoint,
    certified_radius_batch,
)
from .models import (
    LinearModel,
    FeedforwardNetwork,
    TrainConfig,
    train_linear_svm,
    train_network,
    softmax,
)
from .attacks import (
    AttackSpec,
    EvalReport,
    frozen_linearize,
    pairwise_batch,
    fgsm_batch,
    evaluate,
)
from .attenuation import EnsembleConfig, AttenuationReport, run_ensemble
from .data import Dataset, load_idx, load_mnist, filter_pair, fetch_mnist
