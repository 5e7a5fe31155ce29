"""Attack constructions and the locally-linear machinery.

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

All perturbations satisfy ||e||_inf <= epsilon; sign(0) = 0, so zero
coordinates of the steering vector are left unspent. Perturbed inputs are not
clipped to [0, 1] unless requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import frontend as frontend_mod
from . import models as models_mod
from .frontend import FrontEndConfig
from .models import FeedforwardNetwork, LinearModel, softmax

__all__ = [
    "Perturbation",
    "LocallyLinearModel",
    "AttackResult",
    "AttackSpec",
    "EvalReport",
    "semi_white_linear",
    "white_linear",
    "distortion_linear",
    "extract_locally_linear",
    "pairwise_attack",
    "fgsm",
    "evaluate",
]

BUDGET_SLACK = 1e-12


@dataclass
class Perturbation:
    e: np.ndarray
    epsilon: float
    zero_gradient: bool = False

    def __post_init__(self):
        self.e = np.asarray(self.e, dtype=np.float64)
        if self.e.size and np.max(np.abs(self.e)) > self.epsilon + BUDGET_SLACK:
            raise ValueError("perturbation exceeds the l-infinity budget")


@dataclass
class LocallyLinearModel:
    """Exact affine logit map at the anchor: y_i = w_eq[i] . x - b_eq[i]."""

    w_eq: np.ndarray  # (L, N)
    b_eq: np.ndarray  # (L,)
    anchor: np.ndarray  # (N,)

    def logits(self, x):
        return np.asarray(x) @ self.w_eq.T - self.b_eq


@dataclass
class AttackResult:
    perturbation: Perturbation
    pair_gaps: np.ndarray  # predicted attacked gap per class (-inf at the true class)
    chosen: tuple  # (i_star, t)
    kind: str


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
    selection: str = "predicted"  # pairwise worst-case rule: "predicted" | "achieved"

    def __post_init__(self):
        if self.kind not in ("none", "fgsm", "semiwhite", "white"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.selection not in ("predicted", "achieved"):
            raise ValueError(f"unknown pair selection {self.selection!r}")


@dataclass
class EvalReport:
    clean_accuracy: float
    attacked_accuracy: float
    mean_distortion: float
    n: int
    attack: AttackSpec
    records: list = field(default_factory=list)


def semi_white_linear(model: LinearModel, epsilon: float) -> Perturbation:
    """e = epsilon * sign(w): attack aligned with the classifier weights."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return Perturbation(epsilon * np.sign(model.w), epsilon)


def white_linear(model: LinearModel, x, epsilon: float, fe: FrontEndConfig) -> Perturbation:
    """e = epsilon * sign(F_S^T G_S^T w) with the support S taken from the clean x."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    p = frontend_mod.frozen_adjoint(fe, np.asarray(x, dtype=np.float64)[None, :], model.w[None, :])
    return Perturbation(epsilon * np.sign(p[0]), epsilon)


def distortion_linear(model: LinearModel, x, e, fe: FrontEndConfig | None = None) -> float:
    """|w . x_hat(x+e) - w . x_hat(x)|, or |w . e| without a front end."""
    ev = e.e if isinstance(e, Perturbation) else np.asarray(e, dtype=np.float64)
    if fe is None:
        return float(abs(model.w @ ev))
    x = np.asarray(x, dtype=np.float64)
    defended, clean = frontend_mod.apply_batch(fe, np.stack([x + ev, x]))
    return float(abs(model.w @ defended - model.w @ clean))


# ---------------------------------------------------------------------------
# Locally-linear extraction
# ---------------------------------------------------------------------------


def extract_locally_linear(
    net: FeedforwardNetwork, x, fe: FrontEndConfig | None = None
) -> LocallyLinearModel:
    """Equivalent weights and offsets of the logit map at x, switches frozen.

    Without a front end, w_eq row i is the gradient of logit i at x. With a
    front end the map is net(synthesize(mask_S(analyze(x)))) with the support
    S frozen at the clean x, so w_eq picks up the front end's (linear) frozen
    Jacobian as well. The reconstruction y_i = w_eq[i].x - b_eq[i] is exact at
    the anchor.
    """
    x = np.asarray(x, dtype=np.float64)
    if fe is None:
        w_eq = net.input_jacobian(x[None, :])[0]
        y = models_mod.logits(net, x)
    else:
        x_hat = frontend_mod.apply_batch(fe, x[None, :])
        w_net = net.input_jacobian(x_hat)
        w_eq = frontend_mod.frozen_adjoint(fe, x[None, :], w_net)[0]
        y = models_mod.logits(net, x_hat[0])
    b_eq = w_eq @ x - y
    return LocallyLinearModel(w_eq, b_eq, x.copy())


def _pairwise_batch(net, fe, x_batch, t_batch, epsilon, mode,
                    selection="predicted", clip=False):
    """Closed-form pairwise attacks for a (B, N) batch.

    Returns (e (B, N), i_star (B,), attacked gaps (B, L)). The adversary
    linearizes the bare network at the clean inputs; in white mode the pair
    weights additionally go through the adjoint of the front end frozen at
    each input's retained support.

    selection picks the worst-case pair either from the locally-linear
    prediction (clean gap plus epsilon times the steering vector's l1 norm)
    or, with "achieved", by running each candidate perturbation through the
    network the adversary sees and taking the realized logit gap (clipped
    candidates when clip is set).
    """
    x_batch = np.asarray(x_batch, dtype=np.float64)
    b, n = x_batch.shape
    jac = net.input_jacobian(x_batch)  # (B, L, N)
    y = models_mod.logits(net, x_batch)  # (B, L)
    L = y.shape[1]
    rows = np.arange(b)
    w_diff = jac - jac[rows, t_batch][:, None, :]  # (B, L, N)
    clean_gap = y - y[rows, t_batch][:, None]
    if mode not in ("semiwhite", "white"):
        raise ValueError(f"unknown pairwise mode {mode!r}")
    steer = w_diff
    if mode == "white" and fe is not None:
        steer = frontend_mod.frozen_adjoint(fe, x_batch, w_diff)
    candidates = epsilon * np.sign(steer)  # (B, L, N)
    if selection == "predicted":
        gaps = clean_gap + epsilon * np.abs(steer).sum(axis=2)
    elif selection == "achieved":
        adv = x_batch[:, None, :] + candidates
        if clip:
            adv = np.clip(adv, 0.0, 1.0)
        y_adv = models_mod.logits(net, adv.reshape(b * L, n)).reshape(b, L, L)
        gaps = y_adv[rows[:, None], np.arange(L)[None, :], np.arange(L)[None, :]] \
            - y_adv[rows[:, None], np.arange(L)[None, :], t_batch[:, None]]
    else:
        raise ValueError(f"unknown pair selection {selection!r}")
    gaps[rows, t_batch] = -np.inf
    i_star = gaps.argmax(axis=1)
    e = candidates[rows, i_star]
    return e, i_star, gaps


def pairwise_attack(
    net: FeedforwardNetwork,
    fe: FrontEndConfig | None,
    x,
    t: int,
    epsilon: float,
    mode: str = "semiwhite",
    selection: str = "predicted",
) -> AttackResult:
    """Worst-case pairwise attack against the class-t input x.

    For each i != t the pair weights w_eq_i - w_eq_t give a closed-form
    perturbation; the budget goes to the pair maximizing the attacked gap,
    estimated by the locally-linear prediction (clean gap plus predicted
    distortion) or, with selection="achieved", measured by evaluating every
    candidate on the network.
    """
    if net.n_classes < 2:
        raise ValueError("pairwise attack needs at least 2 classes")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    e, i_star, gaps = _pairwise_batch(
        net, fe, x[None, :], np.array([t]), epsilon, mode, selection
    )
    return AttackResult(Perturbation(e[0], epsilon), gaps[0], (int(i_star[0]), int(t)), mode)


def _fgsm_batch(net, fe, x_batch, t_batch, epsilon, through_frontend=False):
    x_batch = np.asarray(x_batch, dtype=np.float64)
    b = x_batch.shape[0]
    through = fe is not None and through_frontend
    point = frontend_mod.apply_batch(fe, x_batch) if through else x_batch
    y, caches = net.forward(point)
    g_out = softmax(y)
    g_out[np.arange(b), t_batch] -= 1.0  # d CE / d logits
    g_point, _ = net.backward(g_out, caches, param_grads=False)
    g_x = frontend_mod.frozen_adjoint(fe, x_batch, g_point) if through else g_point
    return epsilon * np.sign(g_x), ~np.any(g_x, axis=1)


def fgsm(
    net: FeedforwardNetwork,
    fe: FrontEndConfig | None,
    x,
    t: int,
    epsilon: float,
    through_frontend: bool = False,
) -> Perturbation:
    """Fast gradient sign step on the cross-entropy at x (true label t).

    By default the gradient is taken on the bare network, like the semi-white
    attacker's knowledge model; this keeps the binary-classification
    equivalence with the semi-white attack regardless of any defense.
    through_frontend=True instead differentiates through the defense with the
    sparsity support frozen at the clean input's support. A vanishing
    gradient yields e = 0 with the zero_gradient flag set.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    e, zero = _fgsm_batch(net, fe, x[None, :], np.array([t]), epsilon, through_frontend)
    return Perturbation(e[0], epsilon, zero_gradient=bool(zero[0]))


# ---------------------------------------------------------------------------
# Evaluation harness
# ---------------------------------------------------------------------------


def evaluate(model, dataset, attack: AttackSpec, front_end=None, batch=256) -> EvalReport:
    """Clean and attacked accuracy of a model over a dataset.

    ``front_end`` defaults to the front end the model was trained with; pass
    an explicit config (or leave the model undefended) to ablate. Perturbed
    inputs are clipped to [0, 1] only when attack.clip is set.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    fe = front_end if front_end is not None else getattr(model, "front_end", None)
    if isinstance(model, LinearModel):
        return _evaluate_svm(model, dataset, attack, fe)
    if isinstance(model, FeedforwardNetwork):
        return _evaluate_network(model, dataset, attack, fe, batch)
    raise TypeError(f"cannot evaluate {type(model).__name__}")


def _through_frontend(fe, images, clip=False):
    if fe is None:
        return images
    out = frontend_mod.apply_batch(fe, images)
    return np.clip(out, 0.0, 1.0) if clip else out


def _evaluate_svm(model, dataset, attack, fe):
    images = dataset.images
    labels = dataset.labels  # +1 / -1
    n = len(dataset)
    clean_scores = model.score(_through_frontend(fe, images, attack.clip))
    clean_pred = np.where(clean_scores >= 0.0, 1, -1)

    if attack.kind == "none":
        e_rows = np.zeros_like(images)
        pred_dist = np.zeros(n)
    elif attack.kind == "semiwhite":
        base = semi_white_linear(model, attack.epsilon).e
        e_rows = -labels[:, None] * base[None, :]
        pred_dist = np.full(n, attack.epsilon * np.abs(model.w).sum())
    elif attack.kind == "white":
        if fe is None:
            # no defense to steer around: the white-box attack degenerates
            # to the semi-white one
            base = semi_white_linear(model, attack.epsilon).e
            e_rows = -labels[:, None] * base[None, :]
            pred_dist = np.full(n, attack.epsilon * np.abs(model.w).sum())
        else:
            p = frontend_mod.frozen_adjoint(fe, images, np.broadcast_to(model.w, images.shape))
            e_rows = -labels[:, None] * attack.epsilon * np.sign(p)
            pred_dist = attack.epsilon * np.abs(p).sum(axis=1)
    else:
        raise ValueError(f"attack kind {attack.kind!r} does not apply to a linear SVM")

    adv = images + e_rows
    if attack.clip:
        adv = np.clip(adv, 0.0, 1.0)
    adv_scores = model.score(_through_frontend(fe, adv, attack.clip))
    adv_pred = np.where(adv_scores >= 0.0, 1, -1)
    distortion = np.abs(adv_scores - clean_scores)

    records = [
        {
            "sample": s,
            "label": int(labels[s]),
            "clean_prediction": int(clean_pred[s]),
            "attacked_prediction": int(adv_pred[s]),
            "chosen_pair": [int(-labels[s]), int(labels[s])],
            "predicted_gap": float(pred_dist[s]),
            "achieved_gap": float(distortion[s]),
        }
        for s in range(n)
    ]
    return EvalReport(
        clean_accuracy=float((clean_pred == labels).mean()),
        attacked_accuracy=float((adv_pred == labels).mean()),
        mean_distortion=float(distortion.mean()),
        n=n,
        attack=attack,
        records=records,
    )


def _evaluate_network(net, dataset, attack, fe, batch):
    n = len(dataset)
    correct_clean = 0
    correct_adv = 0
    distortion_sum = 0.0
    records = []
    for start in range(0, n, batch):
        sl = slice(start, min(start + batch, n))
        x = dataset.images[sl]
        t = dataset.labels[sl]
        b = x.shape[0]
        rows = np.arange(b)
        y_clean = models_mod.logits(net, _through_frontend(fe, x, attack.clip))
        clean_pred = y_clean.argmax(axis=1)

        if attack.kind == "none":
            e = np.zeros_like(x)
            i_star = None
            gaps = None
        elif attack.kind == "fgsm":
            e, _ = _fgsm_batch(net, fe, x, t, attack.epsilon)
            i_star = None
            gaps = None
        else:
            e, i_star, gaps = _pairwise_batch(
                net, fe, x, t, attack.epsilon, attack.kind,
                attack.selection, attack.clip,
            )

        adv = x + e
        if attack.clip:
            adv = np.clip(adv, 0.0, 1.0)
        y_adv = models_mod.logits(net, _through_frontend(fe, adv, attack.clip))
        adv_pred = y_adv.argmax(axis=1)

        if i_star is None:
            # no designated pair: report against the strongest wrong class
            masked = y_adv.copy()
            masked[rows, t] = -np.inf
            i_rec = masked.argmax(axis=1)
            pred_gap = np.zeros(b)
        else:
            i_rec = i_star
            pred_gap = gaps[rows, i_star]
        achieved = (y_adv[rows, i_rec] - y_adv[rows, t]) - (
            y_clean[rows, i_rec] - y_clean[rows, t]
        )

        correct_clean += int((clean_pred == t).sum())
        correct_adv += int((adv_pred == t).sum())
        distortion_sum += float(np.abs(achieved).sum())
        for s in range(b):
            records.append(
                {
                    "sample": start + s,
                    "label": int(t[s]),
                    "clean_prediction": int(clean_pred[s]),
                    "attacked_prediction": int(adv_pred[s]),
                    "chosen_pair": [int(i_rec[s]), int(t[s])],
                    "predicted_gap": float(pred_gap[s]),
                    "achieved_gap": float(achieved[s]),
                }
            )
    return EvalReport(
        clean_accuracy=correct_clean / n,
        attacked_accuracy=correct_adv / n,
        mean_distortion=distortion_sum / n,
        n=n,
        attack=attack,
        records=records,
    )
