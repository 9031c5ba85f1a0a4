"""Latent-factor ranking model trained under tolerance-aware objectives.

The score for a (user, item) pair is ``sigmoid(b + b_u + b_i + <p_u, q_i>)``.
Three binary cross-entropy objectives differ only in how TOLERANCE samples
enter the loss:

* ``STANDARD`` — every click is a positive: POSITIVE and TOLERANCE both
  contribute ``-log(score)``, NEGATIVE contributes ``-log(1 - score)``.
* ``TOLERANCE_AS_NEGATIVE`` — tolerance samples join the negatives.
* ``TOLERANCE_AS_WEAK_POSITIVE`` — tolerance samples stay positive but
  their term is scaled by a per-sample weight ``beta < 1`` (or one fixed
  beta for the whole run).

The reported loss is the mean over the batch plus an L2 penalty
``l2/2 * sum(theta^2)`` over embeddings and per-id biases (the global
bias is unregularized). Gradients are exact; training is plain minibatch
SGD with a seeded init and shuffle so runs are bit-reproducible.
"""

import csv
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .labeling import Label, LabeledSample


class Objective(Enum):
    STANDARD = "standard"
    TOLERANCE_AS_NEGATIVE = "tol-neg"
    TOLERANCE_AS_WEAK_POSITIVE = "tol-weak"


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or non-finite parameters."""

    def __init__(self, epoch: int):
        super().__init__(
            f"training diverged at epoch {epoch}; lower the learning rate"
        )
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    objective: Objective = Objective.STANDARD
    learning_rate: float = 0.1
    epochs: int = 20
    dimension: int = 8
    l2: float = 0.0
    seed: int = 0
    #: None draws each tolerance sample's weight from the sample itself;
    #: a float applies that one weight to every tolerance sample.
    fixed_beta: float | None = None
    batch_size: int = 256

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.dimension < 1 or self.batch_size < 1:
            raise ValueError("epochs, dimension, and batch_size must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if self.fixed_beta is not None and not 0.0 <= self.fixed_beta <= 1.0:
            raise ValueError("fixed_beta must lie in [0, 1]")


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class RankingModel:
    dimension: int
    users: dict[str, int]
    items: dict[str, int]
    user_factors: np.ndarray  # (n_users, dimension)
    item_factors: np.ndarray  # (n_items, dimension)
    user_bias: np.ndarray  # (n_users,)
    item_bias: np.ndarray  # (n_items,)
    global_bias: float

    @classmethod
    def initialize(
        cls,
        user_ids: list[str],
        item_ids: list[str],
        dimension: int,
        rng: np.random.Generator,
    ) -> "RankingModel":
        """All parameters drawn from uniform(-0.01, 0.01)."""
        users = {u: i for i, u in enumerate(sorted(set(user_ids)))}
        items = {it: i for i, it in enumerate(sorted(set(item_ids)))}
        scale = 0.01
        return cls(
            dimension=dimension,
            users=users,
            items=items,
            user_factors=rng.uniform(-scale, scale, (len(users), dimension)),
            item_factors=rng.uniform(-scale, scale, (len(items), dimension)),
            user_bias=rng.uniform(-scale, scale, len(users)),
            item_bias=rng.uniform(-scale, scale, len(items)),
            global_bias=float(rng.uniform(-scale, scale)),
        )

    def raw_score(self, user_id: str, item_id: str) -> float:
        """Pre-sigmoid score; unknown ids contribute zeros."""
        z = self.global_bias
        u = self.users.get(user_id)
        i = self.items.get(item_id)
        if u is not None:
            z += self.user_bias[u]
        if i is not None:
            z += self.item_bias[i]
        if u is not None and i is not None:
            z += float(self.user_factors[u] @ self.item_factors[i])
        return z

    def predict(self, user_id: str, item_id: str) -> float:
        return float(sigmoid(self.raw_score(user_id, item_id)))

    def rank(self, user_id: str, candidates: list[str]) -> list[str]:
        """Candidates by descending score, ties broken by ascending item id."""
        if not candidates:
            raise ValueError("candidate set must be nonempty")
        return sorted(candidates, key=lambda it: (-self.raw_score(user_id, it), it))

    def copy(self) -> "RankingModel":
        return RankingModel(
            dimension=self.dimension,
            users=dict(self.users),
            items=dict(self.items),
            user_factors=self.user_factors.copy(),
            item_factors=self.item_factors.copy(),
            user_bias=self.user_bias.copy(),
            item_bias=self.item_bias.copy(),
            global_bias=self.global_bias,
        )


@dataclass
class Gradient:
    """Same shape as the model parameters."""

    user_factors: np.ndarray
    item_factors: np.ndarray
    user_bias: np.ndarray
    item_bias: np.ndarray
    global_bias: float


#: Columnar samples: (user index, item index, positive weight, is_positive).
Encoded = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _encode(
    model: RankingModel, samples: list[LabeledSample], config: TrainConfig
) -> Encoded:
    """Map samples to (user index, item index, positive weight, is_positive).

    A sample with ``is_positive`` contributes ``-w * log(score)``; otherwise
    ``-log(1 - score)``. Weights encode the objective's handling of
    tolerance samples.
    """
    n = len(samples)
    u_idx = np.empty(n, dtype=np.intp)
    i_idx = np.empty(n, dtype=np.intp)
    weight = np.ones(n, dtype=np.float64)
    positive = np.empty(n, dtype=bool)
    for k, sample in enumerate(samples):
        u_idx[k] = model.users[sample.user_id]
        i_idx[k] = model.items[sample.item_id]
        if sample.label is Label.POSITIVE:
            positive[k] = True
        elif sample.label is Label.NEGATIVE:
            positive[k] = False
        else:
            if config.objective is Objective.TOLERANCE_AS_NEGATIVE:
                positive[k] = False
            else:
                positive[k] = True
                if config.objective is Objective.TOLERANCE_AS_WEAK_POSITIVE:
                    if config.fixed_beta is not None:
                        weight[k] = config.fixed_beta
                    elif sample.beta is not None:
                        weight[k] = sample.beta
                    else:
                        raise ValueError(
                            "tolerance sample lacks beta; supply fixed_beta or "
                            "label with per-sample weights"
                        )
    return u_idx, i_idx, weight, positive


def _raw_scores(model: RankingModel, u_idx, i_idx) -> np.ndarray:
    return (
        model.global_bias
        + model.user_bias[u_idx]
        + model.item_bias[i_idx]
        + np.einsum(
            "ij,ij->i", model.user_factors[u_idx], model.item_factors[i_idx]
        )
    )


def _l2_penalty(model: RankingModel, l2: float) -> float:
    if l2 == 0.0:
        return 0.0
    return 0.5 * l2 * (
        float(np.sum(model.user_factors**2))
        + float(np.sum(model.item_factors**2))
        + float(np.sum(model.user_bias**2))
        + float(np.sum(model.item_bias**2))
    )


def _loss(model: RankingModel, encoded: Encoded, l2: float) -> float:
    u_idx, i_idx, weight, positive = encoded
    z = _raw_scores(model, u_idx, i_idx)
    # -log(sigmoid(z)) and -log(1 - sigmoid(z)) without forming sigmoid.
    terms = np.where(
        positive, weight * np.logaddexp(0.0, -z), np.logaddexp(0.0, z)
    )
    return float(np.mean(terms)) + _l2_penalty(model, l2)


def _scatter(idx: np.ndarray, values: np.ndarray, rows: int) -> np.ndarray:
    """Sum the rows of ``values`` into ``rows`` bins by ``idx``.

    ``np.bincount`` adds each bin's weights in input order starting from
    zero, exactly as ``np.add.at`` into zeros does, so the sums are
    bit-equal to it. A 2-D ``values`` is scattered in one call, entry
    ``(k, j)`` going to bin ``idx[k] * width + j``.
    """
    if values.ndim == 1:
        return np.bincount(idx, values, minlength=rows)
    width = values.shape[1]
    bins = (idx[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(bins, values.ravel(), minlength=rows * width)
    return sums.reshape(rows, width)


def _gradient(model: RankingModel, encoded: Encoded, l2: float) -> Gradient:
    u_idx, i_idx, weight, positive = encoded
    z = _raw_scores(model, u_idx, i_idx)
    y_hat = sigmoid(z)
    # d(term)/dz: w * (y_hat - 1) for positives, y_hat for negatives.
    dz = np.where(positive, weight * (y_hat - 1.0), y_hat) / len(u_idx)

    n_users, n_items = len(model.user_bias), len(model.item_bias)
    g_user_bias = _scatter(u_idx, dz, n_users)
    g_item_bias = _scatter(i_idx, dz, n_items)
    g_user_factors = _scatter(u_idx, dz[:, None] * model.item_factors[i_idx], n_users)
    g_item_factors = _scatter(i_idx, dz[:, None] * model.user_factors[u_idx], n_items)
    if l2:
        g_user_factors += l2 * model.user_factors
        g_item_factors += l2 * model.item_factors
        g_user_bias += l2 * model.user_bias
        g_item_bias += l2 * model.item_bias
    return Gradient(
        user_factors=g_user_factors,
        item_factors=g_item_factors,
        user_bias=g_user_bias,
        item_bias=g_item_bias,
        global_bias=float(np.sum(dz)),
    )


def loss(
    model: RankingModel, samples: list[LabeledSample], config: TrainConfig
) -> float:
    """Mean objective value over the batch plus the L2 penalty."""
    if not samples:
        raise ValueError("sample collection must be nonempty")
    return _loss(model, _encode(model, samples, config), config.l2)


def gradient(
    model: RankingModel, samples: list[LabeledSample], config: TrainConfig
) -> Gradient:
    """Exact gradient of :func:`loss` for every parameter."""
    if not samples:
        raise ValueError("sample collection must be nonempty")
    return _gradient(model, _encode(model, samples, config), config.l2)


@dataclass
class TrainResult:
    model: RankingModel
    #: Full-dataset loss indexed by epoch; entry 0 is the loss at init.
    history: list[float] = field(default_factory=list)


def train(
    samples: list[LabeledSample],
    config: TrainConfig,
    init_model: RankingModel | None = None,
) -> TrainResult:
    """Minibatch SGD with a fixed, seed-derived shuffle order.

    ``init_model`` warm-starts from an existing model; ids absent from it
    are freshly initialized. Raises :class:`DivergenceError` as soon as
    the epoch loss stops being finite.
    """
    if not samples:
        raise ValueError("sample collection must be nonempty")
    rng = np.random.default_rng(config.seed)
    user_ids = [s.user_id for s in samples]
    item_ids = [s.item_id for s in samples]
    model = RankingModel.initialize(user_ids, item_ids, config.dimension, rng)
    if init_model is not None:
        if init_model.dimension != config.dimension:
            raise ValueError("init_model dimension does not match config")
        for user_id, old in init_model.users.items():
            new = model.users.get(user_id)
            if new is not None:
                model.user_factors[new] = init_model.user_factors[old]
                model.user_bias[new] = init_model.user_bias[old]
        for item_id, old in init_model.items.items():
            new = model.items.get(item_id)
            if new is not None:
                model.item_factors[new] = init_model.item_factors[old]
                model.item_bias[new] = init_model.item_bias[old]
        model.global_bias = init_model.global_bias

    encoded = _encode(model, samples, config)
    history = [_loss(model, encoded, config.l2)]
    if not np.isfinite(history[0]):
        raise DivergenceError(0)
    lr = config.learning_rate
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(samples))
        for start in range(0, len(samples), config.batch_size):
            rows = order[start : start + config.batch_size]
            grad = _gradient(model, tuple(a[rows] for a in encoded), config.l2)
            model.user_factors -= lr * grad.user_factors
            model.item_factors -= lr * grad.item_factors
            model.user_bias -= lr * grad.user_bias
            model.item_bias -= lr * grad.item_bias
            model.global_bias -= lr * grad.global_bias
        epoch_loss = _loss(model, encoded, config.l2)
        if not np.isfinite(epoch_loss) or not _finite_parameters(model):
            raise DivergenceError(epoch)
        history.append(epoch_loss)
    return TrainResult(model=model, history=history)


def _finite_parameters(model: RankingModel) -> bool:
    return (
        np.isfinite(model.global_bias)
        and bool(np.all(np.isfinite(model.user_bias)))
        and bool(np.all(np.isfinite(model.item_bias)))
        and bool(np.all(np.isfinite(model.user_factors)))
        and bool(np.all(np.isfinite(model.item_factors)))
    )


def augment_with_sampled_negatives(
    samples: list[LabeledSample],
    negatives_per_positive: int,
    catalog: list[str],
    seed: int = 0,
) -> list[LabeledSample]:
    """Uniform negative sampling for logs without impression records.

    For each POSITIVE sample, draws ``negatives_per_positive`` items the
    user never interacted with in ``samples`` and appends NEGATIVE
    samples at the source timestamp.
    """
    if negatives_per_positive < 0:
        raise ValueError("negatives_per_positive must be non-negative")
    rng = np.random.default_rng(seed)
    catalog = sorted(set(catalog))
    seen: dict[str, set[str]] = {}
    for sample in samples:
        seen.setdefault(sample.user_id, set()).add(sample.item_id)
    out = list(samples)
    pools: dict[str, list[str]] = {}
    for sample in samples:
        if sample.label is not Label.POSITIVE:
            continue
        pool = pools.get(sample.user_id)
        if pool is None:
            pool = [it for it in catalog if it not in seen[sample.user_id]]
            pools[sample.user_id] = pool
        if not pool:
            continue
        take = min(negatives_per_positive, len(pool))
        for j in rng.choice(len(pool), size=take, replace=False):
            out.append(
                LabeledSample(
                    user_id=sample.user_id,
                    item_id=pool[j],
                    timestamp=sample.timestamp,
                    label=Label.NEGATIVE,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Snapshot and history files
# ---------------------------------------------------------------------------


def write_model(path: str | Path, model: RankingModel) -> None:
    """Text snapshot: a JSON header line, then one JSON line per id."""
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "format": "tolrec-model",
            "version": 1,
            "dimension": model.dimension,
            "users": len(model.users),
            "items": len(model.items),
            "global_bias": model.global_bias,
        }
        handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        for user_id in sorted(model.users):
            row = model.users[user_id]
            record = {
                "user": user_id,
                "bias": float(model.user_bias[row]),
                "vector": [float(v) for v in model.user_factors[row]],
            }
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        for item_id in sorted(model.items):
            row = model.items[item_id]
            record = {
                "item": item_id,
                "bias": float(model.item_bias[row]),
                "vector": [float(v) for v in model.item_factors[row]],
            }
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_model(path: str | Path) -> RankingModel:
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    header = json.loads(lines[0])
    if header.get("format") != "tolrec-model":
        raise ValueError(f"{path}: not a model snapshot")
    dimension = header["dimension"]
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    user_rows: list[tuple[float, list[float]]] = []
    item_rows: list[tuple[float, list[float]]] = []
    for line in lines[1:]:
        record = json.loads(line)
        if "user" in record:
            users[record["user"]] = len(user_rows)
            user_rows.append((record["bias"], record["vector"]))
        else:
            items[record["item"]] = len(item_rows)
            item_rows.append((record["bias"], record["vector"]))
    if len(users) != header["users"] or len(items) != header["items"]:
        raise ValueError(f"{path}: truncated model snapshot")
    return RankingModel(
        dimension=dimension,
        users=users,
        items=items,
        user_factors=np.array([v for _, v in user_rows], dtype=np.float64).reshape(
            len(users), dimension
        ),
        item_factors=np.array([v for _, v in item_rows], dtype=np.float64).reshape(
            len(items), dimension
        ),
        user_bias=np.array([b for b, _ in user_rows], dtype=np.float64),
        item_bias=np.array([b for b, _ in item_rows], dtype=np.float64),
        global_bias=header["global_bias"],
    )


#: Column header of the loss history CSV that :func:`write_history` writes.
HISTORY_HEADER = ["epoch", "objective", "loss"]


def write_history(
    path: str | Path, history: list[float], objective: Objective
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HISTORY_HEADER)
        for epoch, value in enumerate(history):
            writer.writerow([epoch, objective.value, repr(value)])
