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
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .labeling import _LABEL_CODES, _POSITIVE, _TOLERANCE, Label, LabeledSample


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
        if not isinstance(self.objective, Objective):
            raise ValueError(f"objective must be an Objective, got {self.objective!r}")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.dimension < 1 or self.batch_size < 1:
            raise ValueError("epochs, dimension, and batch_size must be positive")
        if not self.l2 >= 0:
            raise ValueError("l2 must be non-negative")
        if self.fixed_beta is not None and not 0.0 <= self.fixed_beta <= 1.0:
            raise ValueError("fixed_beta must lie in [0, 1]")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    # exp(-|z|) never overflows. ``np.minimum`` returns a NaN ``z`` itself,
    # so even its sign bit matches the branch a mask would take.
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    # 1 / d where z >= 0, else e / d: one divide picks its numerator first.
    y = np.where(z >= 0, 1.0, e)
    y /= d
    return y


def _block(users: bool, factors: bool) -> property:
    """The model's users' or items' factors or biases, a view of its table.

    Assigning to the property writes the values into the table."""

    def get(model: "RankingModel") -> np.ndarray:
        n = len(model.users)
        rows = slice(None, n) if users else slice(n, None)
        return model.table[rows, :-1] if factors else model.table[rows, -1]

    def put(model: "RankingModel", value) -> None:
        get(model)[...] = value

    return property(get, put)


@dataclass
class RankingModel:
    """Every parameter but the global bias lives in one packed ``table``:
    a row per user, then a row per item, each holding the id's factors and
    then its bias in the last column. ``users`` and ``items`` map ids to
    rows within their own block."""

    users: dict[str, int]
    items: dict[str, int]
    table: np.ndarray  # (n_users + n_items, dimension + 1)
    global_bias: float

    user_factors = _block(users=True, factors=True)  # (n_users, dimension)
    item_factors = _block(users=False, factors=True)  # (n_items, dimension)
    user_bias = _block(users=True, factors=False)  # (n_users,)
    item_bias = _block(users=False, factors=False)  # (n_items,)

    @property
    def dimension(self) -> int:
        return self.table.shape[1] - 1

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
        rows = len(users) + len(items)
        # The generator fills arrays element by element, so one draw over
        # users then items equals a draw per block: user factors, item
        # factors, user biases, item biases, then the global bias.
        factors = rng.uniform(-scale, scale, (rows, dimension))
        table = np.column_stack((factors, rng.uniform(-scale, scale, rows)))
        return cls(
            users=users,
            items=items,
            table=table,
            global_bias=float(rng.uniform(-scale, scale)),
        )

    def raw_score(self, user_id: str, item_id: str) -> float:
        """Pre-sigmoid score; unknown ids contribute zeros."""
        return float(self._raw_scores(user_id, [item_id])[0])

    def predict(self, user_id: str, item_id: str) -> float:
        return float(sigmoid(self.raw_score(user_id, item_id)))

    def rank(self, user_id: str, candidates: list[str]) -> list[str]:
        """Candidates by descending score, ties broken by ascending item id."""
        if not candidates:
            raise ValueError("candidate set must be nonempty")
        scores = self._raw_scores(user_id, candidates)
        return [it for _, it in sorted(zip((-scores).tolist(), candidates))]

    def _raw_scores(self, user_id: str, item_ids: list[str]) -> np.ndarray:
        """:meth:`raw_score` against each item, through :func:`_logits` as
        training scores a batch; unknown ids get zero rows."""
        rows = np.array([self.items.get(it, -1) for it in item_ids], dtype=np.intp)
        known = rows >= 0
        gathered = np.zeros((len(rows), 2, self.table.shape[1]))
        gathered[known, 0] = self.table[len(self.users) + rows[known]]
        u = self.users.get(user_id)
        if u is not None:
            gathered[:, 1] = self.table[u]
        return _logits(self.global_bias, gathered)

    def copy(self) -> "RankingModel":
        return replace(
            self, users=dict(self.users), items=dict(self.items), table=self.table.copy()
        )


#: Columnar samples: table rows (2, n) of each sample's user and item,
#: positive weight, is_positive.
Encoded = tuple[np.ndarray, np.ndarray, np.ndarray]


def _encode(
    model: RankingModel, samples: list[LabeledSample], config: TrainConfig
) -> Encoded:
    """Map samples to (table rows, positive weight, is_positive).

    A sample with ``is_positive`` contributes ``-w * log(score)``; otherwise
    ``-log(1 - score)``. Weights encode the objective's handling of
    tolerance samples.
    """
    n, users, items = len(samples), model.users, model.items
    rows = np.empty((2, n), dtype=np.intp)
    rows[0] = np.fromiter((users[s.user_id] for s in samples), np.intp, n)
    rows[1] = np.fromiter((items[s.item_id] for s in samples), np.intp, n)
    rows[1] += len(users)
    code = np.fromiter((_LABEL_CODES[s.label] for s in samples), np.int8, n)
    tolerance = code == _TOLERANCE
    positive = np.where(
        tolerance, config.objective is not Objective.TOLERANCE_AS_NEGATIVE,
        code == _POSITIVE,
    )
    weight = np.ones(n, dtype=np.float64)
    if config.objective is Objective.TOLERANCE_AS_WEAK_POSITIVE:
        if config.fixed_beta is not None:
            weight[tolerance] = config.fixed_beta
        else:
            betas = [samples[k].beta for k in np.flatnonzero(tolerance).tolist()]
            if None in betas:
                raise ValueError(
                    "tolerance sample lacks beta; supply fixed_beta or "
                    "label with per-sample weights"
                )
            weight[tolerance] = betas
    return rows, weight, positive


def _l2_penalty(model: RankingModel, l2: float) -> float:
    if l2 == 0.0:
        return 0.0
    return 0.5 * l2 * (
        float(np.sum(model.user_factors**2))
        + float(np.sum(model.item_factors**2))
        + float(np.sum(model.user_bias**2))
        + float(np.sum(model.item_bias**2))
    )


def _logits(global_bias, gathered):
    """Pre-sigmoid scores of (user, item) pairs, for loss, gradient and ranking
    alike, from ``gathered`` (n, 2, dimension + 1): each pair's item row, then
    its user row. Global, user and item bias, then the dot product, in that
    order. numpy sums an einsum in its own loop, so unlike a 1-D ``@`` (BLAS
    ``ddot``) the bits do not depend on the kernel BLAS picks for the CPU."""
    items, users = gathered[:, 0], gathered[:, 1]
    dot = np.einsum("ij,ij->i", users[:, :-1], items[:, :-1])
    return global_bias + users[:, -1] + items[:, -1] + dot


def _loss(model: RankingModel, encoded: Encoded, l2: float) -> float:
    rows, weight, positive = encoded
    z = _logits(model.global_bias, model.table.take(rows[::-1].T, axis=0))
    # -log(sigmoid(z)) and -log(1 - sigmoid(z)) without forming sigmoid;
    # ``_encode`` leaves the weight of every non-positive at 1.0.
    terms = weight * np.logaddexp(0.0, np.where(positive, -z, z))
    return float(np.mean(terms)) + _l2_penalty(model, l2)


def _gradient(
    model: RankingModel, index, pairs, crossed, weight, positive, l2: float
) -> tuple[np.ndarray, float]:
    """The loss's gradient over a batch: one array shaped like
    ``model.table``, and the global bias's. ``pairs`` holds each sample's
    user row and item row, (batch, 2), ``crossed`` the same item first,
    and ``index`` is :func:`_index_table` of the table: one gather of the
    crossed rows, one take of the pairs' bins, one ``np.bincount``.

    ``np.bincount`` adds each bin's weights in input order starting from
    zero, exactly as ``np.add.at`` into zeros does, so every sum is
    bit-equal to scattering each parameter array on its own."""
    table = model.table
    # Each sample's item row, then its user row: (batch, 2, dimension + 1).
    gathered = table.take(crossed, axis=0)
    y_hat = sigmoid(_logits(model.global_bias, gathered))
    # d(term)/dz: w * (y_hat - 1) for positives, y_hat for negatives.
    dz = np.where(positive, weight * (y_hat - 1.0), y_hat) / len(pairs)
    # A user's gradient is dz times its item's row, and the reverse; with
    # the bias column at 1.0, each bias gets exactly dz.
    gathered[..., -1] = 1.0
    scaled = gathered.reshape(len(pairs), -1)
    scaled *= dz[:, None]
    bins = index.take(pairs, axis=0)
    grad = np.bincount(bins.ravel(), scaled.ravel(), minlength=table.size)
    grad = grad.reshape(table.shape)
    if l2:
        grad += l2 * table
    return grad, float(dz.sum())


def _index_table(table: np.ndarray) -> np.ndarray:
    """Each entry's offset in the flat ``table``: row r's gradient bins."""
    return np.arange(table.size).reshape(table.shape)


def loss(
    model: RankingModel, samples: list[LabeledSample], config: TrainConfig
) -> float:
    """Mean objective value over the batch plus the L2 penalty."""
    if not samples:
        raise ValueError("sample collection must be nonempty")
    return _loss(model, _encode(model, samples, config), config.l2)


def gradient(
    model: RankingModel, samples: list[LabeledSample], config: TrainConfig
) -> RankingModel:
    """Exact gradient of :func:`loss` for every parameter, shaped like the
    model: its ``table`` and ``global_bias`` hold the derivatives, so
    ``.user_factors`` and the other blocks read them. It shares ``users``
    and ``items`` with ``model``."""
    if not samples:
        raise ValueError("sample collection must be nonempty")
    rows, weight, positive = _encode(model, samples, config)
    table, global_bias = _gradient(
        model, _index_table(model.table), rows.T, rows[::-1].T, weight, positive,
        config.l2,
    )
    return replace(model, table=table, global_bias=global_bias)


@dataclass
class TrainResult:
    model: RankingModel
    #: Full-dataset loss indexed by epoch; entry 0 is the loss at init.
    history: list[float] = field(default_factory=list)


def train(
    samples: list[LabeledSample],
    config: TrainConfig,
    init_model: RankingModel | None = None,
    *,
    history: bool = True,
) -> TrainResult:
    """Minibatch SGD with a fixed, seed-derived shuffle order.

    ``init_model`` warm-starts from an existing model; ids absent from it
    are freshly initialized.

    With ``history`` (the default), ``TrainResult.history`` holds the
    full-dataset loss at init and after every epoch. :class:`DivergenceError`
    is raised at epoch 0 if the initial loss is not finite, and after an
    epoch if its loss or any parameter is not finite.

    With ``history=False`` no loss is computed and the history is ``[]``.
    :class:`DivergenceError` is raised at epoch 0 if the starting
    parameters are not finite, and after an epoch if any parameter is not
    finite. The loss overflows before the parameters do, so this mode can
    name a later epoch than the default one.
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
        for old_ids, new_ids, old_first, new_first in (
            (init_model.users, model.users, 0, 0),
            (init_model.items, model.items, len(init_model.users), len(model.users)),
        ):
            for key, old in old_ids.items():
                new = new_ids.get(key)
                if new is not None:
                    model.table[new_first + new] = init_model.table[old_first + old]
        model.global_bias = init_model.global_bias

    encoded = _encode(model, samples, config)
    index = _index_table(model.table)
    losses = [_loss(model, encoded, config.l2)] if history else []
    if not (np.isfinite(losses[0]) if history else _finite_parameters(model)):
        raise DivergenceError(0)
    for epoch in range(1, config.epochs + 1):
        _epoch(model, encoded, index, rng.permutation(len(samples)), config)
        if history:
            losses.append(_loss(model, encoded, config.l2))
            if not np.isfinite(losses[-1]):
                raise DivergenceError(epoch)
        if not _finite_parameters(model):
            raise DivergenceError(epoch)
    return TrainResult(model=model, history=losses)


def _epoch(
    model: RankingModel, encoded: Encoded, index, order, config: TrainConfig
) -> None:
    """One SGD pass over the samples in ``order``, a minibatch per step.

    Each step is one :func:`_gradient` and one update of the table. The
    columns are permuted once per epoch, the rows both as (user, item)
    pairs and crossed, so each step slices contiguous arrays; they are
    locals, freed before the caller computes the epoch loss."""
    rows, weight, positive = encoded
    pairs, crossed = rows.T[order], rows[::-1].T[order]
    weight, positive = weight[order], positive[order]
    lr, size = config.learning_rate, config.batch_size
    for start in range(0, len(order), size):
        batch = slice(start, start + size)
        grad, global_grad = _gradient(
            model, index, pairs[batch], crossed[batch], weight[batch],
            positive[batch], config.l2,
        )
        grad *= lr
        model.table -= grad
        model.global_bias -= lr * global_grad


def _finite_parameters(model: RankingModel) -> bool:
    return np.isfinite(model.global_bias) and bool(np.isfinite(model.table).all())


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
        for key, ids, first in (
            ("user", model.users, 0),
            ("item", model.items, len(model.users)),
        ):
            for id_ in sorted(ids):
                row = model.table[first + ids[id_]]
                record = {key: id_, "bias": float(row[-1]), "vector": row[:-1].tolist()}
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_model(path: str | Path) -> RankingModel:
    with open(path, encoding="utf-8") as handle:
        lines = [(n, line) for n, line in enumerate(handle, 1) if line.strip()]
    try:
        header = json.loads(lines[0][1])
    except (IndexError, json.JSONDecodeError):
        header = None
    if not isinstance(header, dict) or header.get("format") != "tolrec-model":
        raise ValueError(f"{path}: not a model snapshot")
    for name in ("dimension", "users", "items", "global_bias"):
        if name not in header:
            raise ValueError(f"{path}: line {lines[0][0]}: header lacks {name!r}")
    dimension = header["dimension"]
    # Per kind: id -> row within the block, and the rows as [*vector, bias].
    blocks: dict[str, tuple[dict, list]] = {"user": ({}, []), "item": ({}, [])}
    for number, line in lines[1:]:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {number}: invalid JSON ({exc.msg})") from None
        if type(record) is not dict:
            raise ValueError(f"{path}: line {number}: record must be a JSON object")
        key = "user" if "user" in record else "item"
        if key not in record:
            raise ValueError(f"{path}: line {number}: record lacks 'user' or 'item'")
        for name in ("vector", "bias"):
            if name not in record:
                raise ValueError(f"{path}: line {number}: record lacks {name!r}")
        ids, rows = blocks[key]
        if record[key] in ids:
            raise ValueError(f"{path}: duplicate {key} {record[key]!r}")
        if len(record["vector"]) != dimension:
            raise ValueError(f"{path}: line {number}: vector length is not {dimension}")
        ids[record[key]] = len(rows)
        rows.append([*record["vector"], record["bias"]])
    (users, user_rows), (items, item_rows) = blocks.values()
    if len(users) != header["users"] or len(items) != header["items"]:
        raise ValueError(f"{path}: truncated model snapshot")
    return RankingModel(
        users=users,
        items=items,
        table=np.array(user_rows + item_rows, dtype=np.float64).reshape(
            len(users) + len(items), dimension + 1
        ),
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
