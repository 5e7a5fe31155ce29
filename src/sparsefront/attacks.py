"""Attack constructions on the locally-linear model of a classifier.

Every function works on a (B, N) stack of flat inputs, and each attack is one
closed form applied per row. Both model kinds share one engine. Freezing a
network's relu and pool switches at x makes each logit exactly affine,
y_i = w_eq_i . x - b_eq_i; a linear SVM is the two-logit model (score, 0)
with Jacobian rows (w, 0), class 0 being label +1. ``pairwise_batch`` steers
each pair along w_eq_i - w_eq_t, e = epsilon * sign(w_eq_i - w_eq_t), and
spends the budget on the pair with the largest predicted attacked gap; for
an SVM that is e = -label * epsilon * sign(p).

The attacks differ in the map they linearize. Semi-white box (knows the
classifier only) takes the bare model, so p = w. White box (knows the
defense too) takes ``frozen_linearize``, the defended map model(D G_S F_S x)
with the retained support S, the reconstruction clamp mask D (under clip)
and the switches frozen at the clean x; its Jacobian rows go through the
frozen front end's adjoint, ``frontend.frozen_adjoint``. White is optimal
for this exact frozen model (C10) where the input clip does not bind: under
clip the pair score credits epsilon even where x + e leaves [0, 1] (ROADMAP
item 17). It need not be once the step changes S, D or a switch, and this is
no claim about the paper's body. FGSM differentiates the bare network's
cross-entropy, so ``check_attack`` refuses it on an SVM.

Per sample, ``evaluate`` reports the chosen pair's predicted attacked gap,
y_i - y_t + epsilon * ||p||_1, and the achieved signed change of y_i - y_t;
for an SVM that gap is -label * score. sign(0) = 0, so zero coordinates of
the steering vector are left unspent. ``evaluate`` checks that every
perturbation satisfies ||e||_inf <= epsilon; perturbed inputs are clipped to
[0, 1] only when the attack spec asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import frontend as frontend_mod
from .data import check_real
from .models import FeedforwardNetwork, LinearModel, class_indices, softmax

__all__ = [
    "AttackSpec",
    "EvalReport",
    "frozen_linearize",
    "pairwise_batch",
    "fgsm_batch",
    "check_attack",
    "evaluate",
]

ATTACK_KINDS = ("none", "fgsm", "semiwhite", "white")
BUDGET_SLACK = 1e-12
EVAL_BATCH = 256  # rows per attack pass in evaluate


@dataclass(frozen=True)
class AttackSpec:
    """What to run: attack kind, budget, and pipeline convention.

    clip=True evaluates a physical image pipeline: the perturbed input and
    the front-end reconstruction are both clamped to [0, 1]. The default
    leaves both unconstrained, matching the closed-form distortion analysis.
    """

    kind: str  # one of ATTACK_KINDS
    epsilon: float
    clip: bool = False

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        check_real("epsilon", self.epsilon, "[0, inf)")
        if self.kind == "none" and self.epsilon != 0:
            raise ValueError(f"attack none reads no epsilon, so it must be 0, got {self.epsilon}")


@dataclass
class EvalReport:
    clean_accuracy: float
    attacked_accuracy: float
    mean_distortion: float
    columns: dict  # name -> (n,) or (n, k) array; evaluate's batch dict declares them


# ---------------------------------------------------------------------------
# Locally-linear model and attacks
# ---------------------------------------------------------------------------


def frozen_linearize(model, fe, x, clip):
    """Logits and input Jacobian of the defended model, frozen at each row of x: ((B, L), (B, L, N)).

    The map is model(D G_S F_S x), with the support S retained at x[s], the
    mask D of reconstructed pixels inside [0, 1] (under clip; else the
    identity) and the model's switches all frozen at the clean x[s]. The
    logits are the defended clean logits, model(frontend.defend(fe, x, clip)).
    Without a front end this is the bare model's linearization.
    """
    x = np.asarray(x, dtype=np.float64)
    if fe is None:
        return model.linearize(x)
    x_hat, kept = frontend_mod.support_batch(fe, x)
    if clip:
        inside = (x_hat >= 0.0) & (x_hat <= 1.0)
        np.clip(x_hat, 0.0, 1.0, out=x_hat)
    y, jac = model.linearize(x_hat)
    if clip:
        jac *= inside[:, None, :]  # D, applied in place
    return y, frontend_mod.frozen_adjoint(fe.basis, kept, jac)


def pairwise_batch(y, jac, t, epsilon):
    """Worst-case pairwise attacks on class-t inputs of a linearized model: (e (B, N), i_star (B,), gaps).

    y (B, L) and jac (B, L, N) are the logits and Jacobian the adversary
    knows. Pair i steers along jac_i - jac_t, and its predicted attacked gap
    is the clean logit gap y_i - y_t plus epsilon times the steering
    vector's l1 norm (-inf at the true class). The budget goes to the pair
    i_star with the largest gap; gaps is (B, L).
    """
    check_real("epsilon", epsilon, "[0, inf)")
    if y.shape[1] < 2:
        raise ValueError("pairwise attack needs at least 2 classes")
    rows = np.arange(y.shape[0])
    steer = jac - jac[rows, t][:, None, :]
    gaps = y - y[rows, t][:, None] + epsilon * np.abs(steer).sum(axis=2)
    gaps[rows, t] = -np.inf
    i_star = gaps.argmax(axis=1)
    return epsilon * np.sign(steer[rows, i_star]), i_star, gaps


def fgsm_batch(net: FeedforwardNetwork, x, t, epsilon):
    """Fast gradient sign step on the cross-entropy at each x[s] (true label t[s]).

    Returns (e (B, N), zero_gradient (B,), clean logits y (B, L)). The
    gradient is taken on the bare network, like the semi-white attacker's
    knowledge model; this keeps the binary-classification equivalence with
    the semi-white attack regardless of any defense. A vanishing gradient
    yields e[s] = 0 with zero_gradient[s] set.
    """
    check_real("epsilon", epsilon, "[0, inf)")
    x = np.asarray(x, dtype=np.float64)
    y, caches = net.forward(x)
    g_out = softmax(y)
    g_out[np.arange(x.shape[0]), t] -= 1.0  # d CE / d logits
    g_x = net.backward(g_out, caches)
    return epsilon * np.sign(g_x), ~np.any(g_x, axis=1), y


# ---------------------------------------------------------------------------
# Evaluation harness
# ---------------------------------------------------------------------------


def check_attack(model, attack: AttackSpec):
    """Raise unless `model` is a LinearModel or FeedforwardNetwork that can run `attack`."""
    if not isinstance(model, (LinearModel, FeedforwardNetwork)):
        raise TypeError(f"cannot evaluate {type(model).__name__}")
    if isinstance(model, LinearModel) and attack.kind == "fgsm":
        raise ValueError("the fgsm attack needs a network, and this model is a linear SVM")


def _perturbed(x, e, attack):
    if np.max(np.abs(e)) > attack.epsilon + BUDGET_SLACK:
        raise ValueError("perturbation exceeds the l-infinity budget")
    adv = x + e
    return np.clip(adv, 0.0, 1.0) if attack.clip else adv


def evaluate(model, dataset, attack: AttackSpec) -> EvalReport:
    """Clean and attacked accuracy of a LinearModel or FeedforwardNetwork over a dataset.

    The model is attacked through the front end it was trained with, if any.
    Its columns give labels, predictions and the chosen pair (i, t) as
    dataset labels. Raises what ``check_attack`` raises, what
    ``models.class_indices`` raises (an empty dataset, a label not among the
    model's class_labels), and ValueError on a perturbation over the l-infinity
    budget. Perturbed inputs are clipped to [0, 1] only when attack.clip is set.
    A record's full-precision floats depend, in their last digits, on its EVAL_BATCH-row pass.
    """
    check_attack(model, attack)
    classes = class_indices(model.class_labels, dataset.labels)
    label_of = np.asarray(model.class_labels)
    fe = model.front_end
    clip = attack.clip
    batches = []
    for start in range(0, len(dataset), EVAL_BATCH):
        x = dataset.images[start : start + EVAL_BATCH]
        t = classes[start : start + EVAL_BATCH]
        rows = np.arange(x.shape[0])
        e = y = i_star = None  # the step's perturbation, clean logits and pair; none sets none
        if attack.kind == "fgsm":
            e, _, y = fgsm_batch(model, x, t, attack.epsilon)
        elif attack.kind != "none":
            # white linearizes the defended map, semiwhite the bare model
            y, jac = frozen_linearize(model, fe if attack.kind == "white" else None, x, clip)
            e, i_star, gaps = pairwise_batch(y, jac, t, attack.epsilon)
        # y is the report's clean logits only if the attack saw the model the report scores
        if y is None or (fe is not None and attack.kind != "white"):
            y = model.logits(frontend_mod.defend(fe, x, clip))
        y_adv = y
        if e is not None:
            y_adv = model.logits(frontend_mod.defend(fe, _perturbed(x, e, attack), clip))

        if i_star is None:
            # no designated pair: report against the strongest wrong class
            masked = y_adv.copy()
            masked[rows, t] = -np.inf
            i_star = masked.argmax(axis=1)
            predicted = np.zeros(x.shape[0])
        else:
            predicted = gaps[rows, i_star]
        achieved = (y_adv[rows, i_star] - y_adv[rows, t]) - (
            y[rows, i_star] - y[rows, t]
        )
        batches.append({
            "sample": start + rows,
            "label": label_of[t],
            "clean_prediction": label_of[y.argmax(axis=1)],
            "attacked_prediction": label_of[y_adv.argmax(axis=1)],
            "chosen_pair": label_of[np.stack([i_star, t], axis=1)],
            "predicted_gap": predicted,
            "achieved_gap": achieved,
        })
    columns = {name: np.concatenate([batch[name] for batch in batches]) for name in batches[0]}
    return EvalReport(
        clean_accuracy=float((columns["clean_prediction"] == columns["label"]).mean()),
        attacked_accuracy=float((columns["attacked_prediction"] == columns["label"]).mean()),
        mean_distortion=float(np.abs(columns["achieved_gap"]).mean()),
        columns=columns,
    )
