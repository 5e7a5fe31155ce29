"""Attack constructions and the locally-linear machinery.

Every function works on a (B, N) stack of flat inputs, and each attack is one
closed form applied per row.

Linear classifiers admit closed forms: a semi-white-box adversary (knows the
classifier, not the defense) uses e = epsilon * sign(w); a white-box
adversary (knows both) uses e = epsilon * sign(F_S^T G_S^T w). With the
support S retained for x frozen, the front end is the linear map G_S F_S
(G synthesis, F analysis), so F_S^T G_S^T w is the weight vector the
defended classifier applies to the input; ``frontend.frozen_adjoint``
computes it for every white-box attack here.

Networks are handled through their locally-linear model: freezing the relu
and pool switches at an input x makes each logit exactly affine,
y_i = w_eq_i . x - b_eq_i. The adversary forms the L-1 pairwise weight
differences w_eq_i - w_eq_t, crafts a closed-form perturbation per pair, and
spends its budget on the pair with the largest predicted attacked gap. In
white mode the pair weights go through the same frozen-front-end adjoint.
FGSM always differentiates the bare network, whatever defense the model
carries.

sign(0) = 0, so zero coordinates of the steering vector are left unspent.
``evaluate`` checks that every perturbation it applies satisfies
||e||_inf <= epsilon. Perturbed inputs are not clipped to [0, 1] unless the
attack spec asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import frontend as frontend_mod
from . import models as models_mod
from .models import FeedforwardNetwork, LinearModel, softmax

__all__ = [
    "AttackSpec",
    "EvalReport",
    "LocallyLinearModel",
    "linear_batch",
    "extract_locally_linear",
    "pairwise_batch",
    "fgsm_batch",
    "evaluate",
]

BUDGET_SLACK = 1e-12
EVAL_BATCH = 256  # rows per network attack pass in evaluate


def _check_epsilon(epsilon):
    # the chained comparison is false for nan as well
    if not 0.0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")


def _check_mode(mode):
    if mode not in ("semiwhite", "white"):
        raise ValueError(f"unknown attack mode {mode!r}")


@dataclass
class LocallyLinearModel:
    """Exact affine logit maps at a stack of anchors: y[s, i] = w_eq[s, i] . x - b_eq[s, i]."""

    w_eq: np.ndarray  # (B, L, N)
    b_eq: np.ndarray  # (B, L)
    anchor: np.ndarray  # (B, N)

    def logits(self, x):
        """(B, N) inputs -> (B, L) logits, row s through the map of anchor s."""
        return (self.w_eq @ np.asarray(x)[:, :, None])[..., 0] - self.b_eq


@dataclass(frozen=True)
class AttackSpec:
    """What to run: attack kind, budget, and pipeline convention.

    clip=True evaluates a physical image pipeline: the perturbed input and
    the front-end reconstruction are both clamped to [0, 1]. The default
    leaves both unconstrained, matching the closed-form distortion analysis.
    """

    kind: str  # "none" | "fgsm" | "semiwhite" | "white"
    epsilon: float
    clip: bool = False

    def __post_init__(self):
        if self.kind not in ("none", "fgsm", "semiwhite", "white"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        _check_epsilon(self.epsilon)


@dataclass
class EvalReport:
    clean_accuracy: float
    attacked_accuracy: float
    mean_distortion: float
    n: int
    attack: AttackSpec
    records: list = field(default_factory=list)


def linear_batch(model: LinearModel, fe, x, epsilon, mode):
    """Closed-form attacks on a linear classifier: (e (B, N), predicted (B,)).

    e[s] = epsilon * sign(p[s]) raises the score by predicted[s] =
    epsilon * ||p[s]||_1, the distortion the linear model predicts. p = w in
    semi-white mode, and in white mode without a front end; in white mode
    with a front end p[s] = F_S^T G_S^T w with S the support retained at
    x[s].
    """
    _check_epsilon(epsilon)
    _check_mode(mode)
    x = np.asarray(x, dtype=np.float64)
    p = np.broadcast_to(model.w, x.shape)
    if mode == "white" and fe is not None:
        p = frontend_mod.frozen_adjoint(fe, x, p)
    return epsilon * np.sign(p), epsilon * np.abs(p).sum(axis=1)


# ---------------------------------------------------------------------------
# Locally-linear extraction and network attacks
# ---------------------------------------------------------------------------


def extract_locally_linear(net: FeedforwardNetwork, x, fe=None) -> LocallyLinearModel:
    """Equivalent weights and offsets of the logit map at each row of x, switches frozen.

    Without a front end, w_eq[s, i] is the gradient of logit i at x[s]. With
    a front end the map is net(synthesize(mask_S(analyze(x)))) with the
    support S frozen at the clean x[s], so w_eq picks up the front end's
    (linear) frozen Jacobian as well. The reconstruction
    y[s, i] = w_eq[s, i] . x[s] - b_eq[s, i] is exact at each anchor.
    """
    x = np.asarray(x, dtype=np.float64)
    if fe is None:
        y, w_eq = net.linearize(x)
    else:
        y, jac = net.linearize(frontend_mod.apply_batch(fe, x))
        w_eq = frontend_mod.frozen_adjoint(fe, x, jac)
    b_eq = (w_eq @ x[:, :, None])[..., 0] - y
    return LocallyLinearModel(w_eq, b_eq, x.copy())


def pairwise_batch(net: FeedforwardNetwork, fe, x, t, epsilon, mode):
    """Worst-case pairwise attacks on class-t inputs: (e (B, N), i_star (B,), gaps (B, L)).

    The adversary linearizes the bare network at each clean x[s]. Pair i
    steers along w_eq_i - w_eq_t, or in white mode with a front end along its
    frozen-front-end adjoint, and its predicted attacked gap is the clean
    logit gap plus epsilon times the steering vector's l1 norm (-inf at the
    true class). The budget goes to the pair i_star with the largest gap.
    """
    _check_epsilon(epsilon)
    _check_mode(mode)
    if net.n_classes < 2:
        raise ValueError("pairwise attack needs at least 2 classes")
    x = np.asarray(x, dtype=np.float64)
    rows = np.arange(x.shape[0])
    y, jac = net.linearize(x)  # (B, L), (B, L, N)
    steer = jac - jac[rows, t][:, None, :]
    if mode == "white" and fe is not None:
        steer = frontend_mod.frozen_adjoint(fe, x, steer)
    gaps = y - y[rows, t][:, None] + epsilon * np.abs(steer).sum(axis=2)
    gaps[rows, t] = -np.inf
    i_star = gaps.argmax(axis=1)
    return epsilon * np.sign(steer[rows, i_star]), i_star, gaps


def fgsm_batch(net: FeedforwardNetwork, x, t, epsilon):
    """Fast gradient sign step on the cross-entropy at each x[s] (true label t[s]).

    Returns (e (B, N), zero_gradient (B,)). The gradient is taken on the bare
    network, like the semi-white attacker's knowledge model; this keeps the
    binary-classification equivalence with the semi-white attack regardless
    of any defense. A vanishing gradient yields e[s] = 0 with zero_gradient[s]
    set.
    """
    _check_epsilon(epsilon)
    x = np.asarray(x, dtype=np.float64)
    y, caches = net.forward(x)
    g_out = softmax(y)
    g_out[np.arange(x.shape[0]), t] -= 1.0  # d CE / d logits
    g_x, _ = net.backward(g_out, caches, param_grads=False)
    return epsilon * np.sign(g_x), ~np.any(g_x, axis=1)


# ---------------------------------------------------------------------------
# Evaluation harness
# ---------------------------------------------------------------------------


def evaluate(model, dataset, attack: AttackSpec) -> EvalReport:
    """Clean and attacked accuracy of a model over a dataset.

    The model is attacked through the front end it was trained with, if any.
    Raises ValueError if an attack's perturbation exceeds its l-infinity
    budget. Perturbed inputs are clipped to [0, 1] only when attack.clip is
    set.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if isinstance(model, LinearModel):
        return _evaluate_svm(model, dataset, attack)
    if isinstance(model, FeedforwardNetwork):
        return _evaluate_network(model, dataset, attack)
    raise TypeError(f"cannot evaluate {type(model).__name__}")


def _defend(fe, images, clip):
    if fe is None:
        return images
    out = frontend_mod.apply_batch(fe, images)
    return np.clip(out, 0.0, 1.0) if clip else out


def _perturbed(x, e, attack):
    if np.max(np.abs(e)) > attack.epsilon + BUDGET_SLACK:
        raise ValueError("perturbation exceeds the l-infinity budget")
    adv = x + e
    return np.clip(adv, 0.0, 1.0) if attack.clip else adv


def _records(start, labels, clean_pred, adv_pred, pair_i, predicted, achieved):
    return [
        {
            "sample": start + s,
            "label": int(labels[s]),
            "clean_prediction": int(clean_pred[s]),
            "attacked_prediction": int(adv_pred[s]),
            "chosen_pair": [int(pair_i[s]), int(labels[s])],
            "predicted_gap": float(predicted[s]),
            "achieved_gap": float(achieved[s]),
        }
        for s in range(len(labels))
    ]


def _evaluate_svm(model, dataset, attack):
    fe = model.front_end
    x = dataset.images
    labels = dataset.labels  # +1 / -1
    clean_scores = model.score(_defend(fe, x, attack.clip))
    if attack.kind == "none":
        adv_scores, predicted = clean_scores, np.zeros(len(dataset))
    else:
        e, predicted = linear_batch(model, fe, x, attack.epsilon, attack.kind)
        # each sample is pushed toward the other class
        adv = _perturbed(x, -labels[:, None] * e, attack)
        adv_scores = model.score(_defend(fe, adv, attack.clip))
    clean_pred = np.where(clean_scores >= 0.0, 1, -1)
    adv_pred = np.where(adv_scores >= 0.0, 1, -1)
    distortion = np.abs(adv_scores - clean_scores)
    return EvalReport(
        clean_accuracy=float((clean_pred == labels).mean()),
        attacked_accuracy=float((adv_pred == labels).mean()),
        mean_distortion=float(distortion.mean()),
        n=len(dataset),
        attack=attack,
        records=_records(0, labels, clean_pred, adv_pred, -labels, predicted, distortion),
    )


def _evaluate_network(net, dataset, attack):
    fe = net.front_end
    n = len(dataset)
    correct_clean = 0
    correct_adv = 0
    distortion_sum = 0.0
    records = []
    for start in range(0, n, EVAL_BATCH):
        x = dataset.images[start : start + EVAL_BATCH]
        t = dataset.labels[start : start + EVAL_BATCH]
        rows = np.arange(x.shape[0])
        y_clean = models_mod.logits(net, _defend(fe, x, attack.clip))
        i_star = None
        if attack.kind == "none":
            y_adv = y_clean
        else:
            if attack.kind == "fgsm":
                e, _ = fgsm_batch(net, x, t, attack.epsilon)
            else:
                e, i_star, gaps = pairwise_batch(net, fe, x, t, attack.epsilon, attack.kind)
            y_adv = models_mod.logits(net, _defend(fe, _perturbed(x, e, attack), attack.clip))

        if i_star is None:
            # no designated pair: report against the strongest wrong class
            masked = y_adv.copy()
            masked[rows, t] = -np.inf
            i_rec = masked.argmax(axis=1)
            predicted = np.zeros(x.shape[0])
        else:
            i_rec = i_star
            predicted = gaps[rows, i_star]
        achieved = (y_adv[rows, i_rec] - y_adv[rows, t]) - (
            y_clean[rows, i_rec] - y_clean[rows, t]
        )
        clean_pred = y_clean.argmax(axis=1)
        adv_pred = y_adv.argmax(axis=1)
        correct_clean += int((clean_pred == t).sum())
        correct_adv += int((adv_pred == t).sum())
        distortion_sum += float(np.abs(achieved).sum())
        records += _records(start, t, clean_pred, adv_pred, i_rec, predicted, achieved)
    return EvalReport(
        clean_accuracy=correct_clean / n,
        attacked_accuracy=correct_adv / n,
        mean_distortion=distortion_sum / n,
        n=n,
        attack=attack,
        records=records,
    )
