import math
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from tolrec import trainer
from tolrec.labeling import Label, LabeledSample
from tolrec.trainer import (
    _encode,
    DivergenceError,
    Objective,
    RankingModel,
    TrainConfig,
    augment_with_sampled_negatives,
    sigmoid,
    train,
    write_model,
)

from conftest import outputs_under_blas_kernels, x86_64_only
from oracles import (
    _reference_sigmoid,
    finite_difference_gradient,
    max_relative_gradient_error,
    reference_gradient,
    reference_raw_score,
    reference_encode,
    reference_read_model,
    reference_train,
    relabel_tolerance_as_negative,
    sample_gradient,
    sample_loss,
)


def sample(user, item, label, beta=None, ts=0):
    return LabeledSample(user_id=user, item_id=item, timestamp=ts, label=label, beta=beta)


def random_model(user_ids, item_ids, dimension, rng) -> RankingModel:
    model = RankingModel.initialize(user_ids, item_ids, dimension, rng)
    model.user_factors = rng.uniform(-0.5, 0.5, model.user_factors.shape)
    model.item_factors = rng.uniform(-0.5, 0.5, model.item_factors.shape)
    model.user_bias = rng.uniform(-0.5, 0.5, model.user_bias.shape)
    model.item_bias = rng.uniform(-0.5, 0.5, model.item_bias.shape)
    model.global_bias = float(rng.uniform(-0.5, 0.5))
    return model


def random_batch(rng, n_users=6, n_items=10, n_samples=40, tolerance=True):
    users = [f"u{k}" for k in range(n_users)]
    items = [f"i{k}" for k in range(n_items)]
    labels = [Label.POSITIVE, Label.NEGATIVE] + (
        [Label.TOLERANCE] if tolerance else []
    )
    batch = []
    for _ in range(n_samples):
        label = labels[int(rng.integers(len(labels)))]
        beta = float(rng.uniform(0, 1)) if label is Label.TOLERANCE else None
        batch.append(
            sample(
                users[int(rng.integers(n_users))],
                items[int(rng.integers(n_items))],
                label,
                beta,
            )
        )
    return batch


class TestRawScore:
    def test_zero_model_scores_half(self):
        model = RankingModel.initialize(["u1"], ["i1"], 4, np.random.default_rng(0))
        model.user_factors[:] = 0
        model.item_factors[:] = 0
        model.user_bias[:] = 0
        model.item_bias[:] = 0
        model.global_bias = 0.0
        assert model.raw_score("u1", "i1") == 0.0
        assert sigmoid(model.raw_score("u1", "i1")) == 0.5

    def test_global_bias_only(self):
        model = RankingModel.initialize(["u1"], ["i1"], 4, np.random.default_rng(0))
        model.user_factors[:] = 0
        model.item_factors[:] = 0
        model.user_bias[:] = 0
        model.item_bias[:] = 0
        model.global_bias = 10.0
        assert model.raw_score("u1", "i1") == 10.0

    def test_unknown_ids_use_zero_parameters(self):
        model = RankingModel.initialize(["u1"], ["i1"], 4, np.random.default_rng(0))
        model.global_bias = 0.3
        assert model.raw_score("nobody", "nothing") == 0.3

    def test_probabilities_in_unit_interval(self, rng):
        model = random_model([f"u{k}" for k in range(5)], [f"i{k}" for k in range(7)], 3, rng)
        for u in range(5):
            for i in range(7):
                assert 0.0 < sigmoid(model.raw_score(f"u{u}", f"i{i}")) < 1.0


class TestSigmoid:
    EDGES = [
        0.0, -0.0, np.inf, -np.inf, float("nan"), -float("nan"), 710.0, -710.0,
        745.0, -745.0, 746.0, -746.0, 36.8, -36.8, 1.7976931348623157e308,
        -1.7976931348623157e308, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-310,
        -1e-310,
    ]

    def test_bit_equal_to_masked_reference(self, rng):
        """The one-divide form against the two-branch masked one, compared
        as raw bits: signed zeros, infinities, NaNs of both signs, overflow
        and underflow of exp, the largest finite values, subnormals, and
        200k ordinary values. Each edge value goes in as a Python float
        too, as ``sigmoid(model.raw_score(u, i))`` passes it."""
        z = np.concatenate([self.EDGES, rng.normal(0.0, 20.0, 200_000)])
        got = sigmoid(z).view(np.int64)
        want = _reference_sigmoid(z.copy()).view(np.int64)
        assert np.array_equal(got, want)
        for value, bits in zip(self.EDGES, want.tolist()):
            assert np.asarray(sigmoid(value)).view(np.int64) == bits, value


class TestLoss:
    def test_single_positive_at_half(self):
        model = RankingModel.initialize(["u1"], ["i1"], 2, np.random.default_rng(0))
        for arr in (model.user_factors, model.item_factors, model.user_bias, model.item_bias):
            arr[:] = 0
        model.global_bias = 0.0
        batch = [sample("u1", "i1", Label.POSITIVE)]
        for objective in Objective:
            config = TrainConfig(objective=objective, fixed_beta=0.5)
            assert sample_loss(model, batch, config) == pytest.approx(math.log(2), abs=1e-12)

    def test_tolerance_weak_positive_scales_by_beta(self):
        model = RankingModel.initialize(["u1"], ["i1"], 2, np.random.default_rng(0))
        for arr in (model.user_factors, model.item_factors, model.user_bias, model.item_bias):
            arr[:] = 0
        model.global_bias = 0.0
        batch = [sample("u1", "i1", Label.TOLERANCE, beta=0.5)]
        config = TrainConfig(objective=Objective.TOLERANCE_AS_WEAK_POSITIVE)
        assert sample_loss(model, batch, config) == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_empty_tolerance_set_all_objectives_agree(self, rng):
        batch = random_batch(rng, tolerance=False)
        model = random_model([s.user_id for s in batch], [s.item_id for s in batch], 3, rng)
        values = {
            objective: sample_loss(model, batch, TrainConfig(objective=objective))
            for objective in Objective
        }
        spread = max(values.values()) - min(values.values())
        assert spread <= 1e-12

    def test_tolerance_as_negative_equals_relabeled_standard(self, rng):
        batch = random_batch(rng)
        model = random_model([s.user_id for s in batch], [s.item_id for s in batch], 3, rng)
        direct = sample_loss(model, batch, TrainConfig(objective=Objective.TOLERANCE_AS_NEGATIVE))
        relabeled = sample_loss(
            model,
            relabel_tolerance_as_negative(batch),
            TrainConfig(objective=Objective.STANDARD),
        )
        assert direct == pytest.approx(relabeled, abs=1e-12)

    def test_missing_beta_is_configuration_error(self):
        model = RankingModel.initialize(["u1"], ["i1"], 2, np.random.default_rng(0))
        bad = [
            LabeledSample.__new__(LabeledSample)  # bypass validation to mimic foreign data
        ]
        object.__setattr__(bad[0], "user_id", "u1")
        object.__setattr__(bad[0], "item_id", "i1")
        object.__setattr__(bad[0], "timestamp", 0)
        object.__setattr__(bad[0], "label", Label.TOLERANCE)
        object.__setattr__(bad[0], "beta", None)
        config = TrainConfig(objective=Objective.TOLERANCE_AS_WEAK_POSITIVE)
        with pytest.raises(ValueError, match="beta"):
            sample_loss(model, bad, config)

    def test_beta_interpolation_on_sum_scale(self, rng):
        """With every tolerance beta forced to zero, the weak-positive SUM
        equals the standard sum over the batch without tolerance samples
        (mean reduction rescales by batch size, hence the sum comparison);
        and the loss is non-decreasing in beta."""
        batch = random_batch(rng, n_samples=60)
        model = random_model([s.user_id for s in batch], [s.item_id for s in batch], 3, rng)
        zero_beta = TrainConfig(
            objective=Objective.TOLERANCE_AS_WEAK_POSITIVE, fixed_beta=0.0
        )
        weak_sum = sample_loss(model, batch, zero_beta) * len(batch)
        kept = [s for s in batch if s.label is not Label.TOLERANCE]
        standard_sum = sample_loss(model, kept, TrainConfig()) * len(kept)
        assert weak_sum == pytest.approx(standard_sum, abs=1e-9)

        last = weak_sum
        for beta in (0.25, 0.5, 0.75, 1.0):
            config = TrainConfig(
                objective=Objective.TOLERANCE_AS_WEAK_POSITIVE, fixed_beta=beta
            )
            value = sample_loss(model, batch, config) * len(batch)
            assert value >= last - 1e-12
            last = value

    @pytest.mark.parametrize("objective", list(Objective))
    def test_chunks_keep_the_bits_of_one_gather(self, objective, rng, monkeypatch):
        """The loss gathers its samples a chunk at a time but takes one mean
        over all the terms, so chunk boundaries leave its bits unchanged."""
        batch = random_batch(rng, n_samples=60)
        model = random_model([s.user_id for s in batch], [s.item_id for s in batch], 3, rng)
        config = TrainConfig(objective=objective, l2=0.01)
        whole = sample_loss(model, batch, config)
        monkeypatch.setattr(trainer, "_LOSS_CHUNK", 7)  # 60 = 8 * 7 + 4
        assert sample_loss(model, batch, config) == whole

    @pytest.mark.parametrize("objective", list(Objective))
    def test_scores_each_sample_as_raw_score(self, objective, rng):
        """Training and ranking share one scoring core: without L2 the loss
        is exactly the mean term over each sample's ``raw_score``, for the
        batch and for each sample alone (where no mean can absorb an ulp)."""
        batch = random_batch(rng, n_samples=60)
        model = random_model([s.user_id for s in batch], [s.item_id for s in batch], 3, rng)
        config = TrainConfig(objective=objective)
        _, weight, positive = reference_encode(model, batch, config)
        z = np.array([model.raw_score(s.user_id, s.item_id) for s in batch])
        terms = weight * np.logaddexp(0.0, np.where(positive, -z, z))
        assert sample_loss(model, batch, config) == float(np.mean(terms))
        assert [sample_loss(model, [s], config) for s in batch] == terms.tolist()


class TestEncode:
    @pytest.mark.parametrize("fixed_beta", [None, 0.3])
    @pytest.mark.parametrize("objective", list(Objective))
    def test_matches_reference_loop(self, rng, objective, fixed_beta):
        batch = random_batch(rng, n_samples=80)
        model = random_model([s.user_id for s in batch], [s.item_id for s in batch], 3, rng)
        config = TrainConfig(objective=objective, fixed_beta=fixed_beta)
        got = _encode(model, batch, config)
        expected = reference_encode(model, batch, config)
        for column, reference in zip(got, expected):
            assert column.dtype == reference.dtype
            assert np.array_equal(column, reference)

    def test_empty_batch_keeps_shapes(self, rng):
        model = random_model(["u1"], ["i1"], 3, rng)
        rows, weight, positive = _encode(model, [], TrainConfig())
        assert (rows.shape, rows.dtype) == ((2, 0), np.intp)
        assert weight.shape == positive.shape == (0,)

    def test_tolerance_sample_without_beta_rejected(self, rng):
        batch = random_batch(rng, n_samples=40)
        k = next(k for k, s in enumerate(batch) if s.label is Label.TOLERANCE)
        object.__setattr__(batch[k], "beta", None)
        model = random_model([s.user_id for s in batch], [s.item_id for s in batch], 3, rng)
        weak = TrainConfig(objective=Objective.TOLERANCE_AS_WEAK_POSITIVE)
        with pytest.raises(ValueError, match="tolerance sample lacks beta"):
            _encode(model, batch, weak)
        with pytest.raises(ValueError, match="tolerance sample lacks beta"):
            reference_encode(model, batch, weak)
        for config in (replace(weak, fixed_beta=0.5), TrainConfig()):
            assert all(
                np.array_equal(a, b)
                for a, b in zip(
                    _encode(model, batch, config), reference_encode(model, batch, config)
                )
            )


class TestGradient:
    def test_has_the_model_shape(self, rng):
        batch = random_batch(rng)
        model = random_model([s.user_id for s in batch], [s.item_id for s in batch], 3, rng)
        grad = sample_gradient(model, batch, TrainConfig())
        assert grad.users == model.users and grad.items == model.items
        assert grad.dimension == model.dimension == 3
        assert grad.table.shape == model.table.shape
        assert grad.table is not model.table

    def test_single_positive_bias_gradient(self):
        model = RankingModel.initialize(["u1"], ["i1"], 2, np.random.default_rng(0))
        for arr in (model.user_factors, model.item_factors, model.user_bias, model.item_bias):
            arr[:] = 0
        model.global_bias = 0.0
        batch = [sample("u1", "i1", Label.POSITIVE)]
        grad = sample_gradient(model, batch, TrainConfig())
        assert grad.global_bias == pytest.approx(-0.5, abs=1e-12)

    def test_tolerance_gradient_is_beta_times_positive(self, rng):
        model = random_model(["u1"], ["i1"], 3, rng)
        config = TrainConfig(objective=Objective.TOLERANCE_AS_WEAK_POSITIVE)
        as_tolerance = sample_gradient(
            model, [sample("u1", "i1", Label.TOLERANCE, beta=0.3)], config
        )
        as_positive = sample_gradient(model, [sample("u1", "i1", Label.POSITIVE)], config)
        np.testing.assert_allclose(
            as_tolerance.user_factors, 0.3 * as_positive.user_factors, atol=1e-15
        )
        assert as_tolerance.global_bias == pytest.approx(
            0.3 * as_positive.global_bias, abs=1e-15
        )

    @pytest.mark.parametrize("objective", list(Objective))
    def test_matches_finite_differences(self, objective, rng):
        batch = random_batch(rng, n_users=4, n_items=6, n_samples=25)
        model = random_model(
            [s.user_id for s in batch], [s.item_id for s in batch], 3, rng
        )
        config = TrainConfig(objective=objective, l2=0.01, fixed_beta=None)
        analytic = sample_gradient(model, batch, config)
        numeric = finite_difference_gradient(model, batch, config)
        assert max_relative_gradient_error(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("objective", list(Objective))
    def test_bit_equal_to_add_at_reference(self, objective, rng):
        """The packed gather and ``np.bincount`` scatter against each
        parameter array scattered on its own with ``np.add.at``, on a batch
        that repeats users and items, with the L2 term."""
        batch = random_batch(rng, n_users=4, n_items=6, n_samples=60)
        assert len({s.user_id for s in batch}) < len(batch)
        assert len({s.item_id for s in batch}) < len(batch)
        model = random_model(
            [s.user_id for s in batch], [s.item_id for s in batch], 3, rng
        )
        config = TrainConfig(objective=objective, l2=0.01)
        got = sample_gradient(model, batch, config)
        want = reference_gradient(model, batch, config)
        for attr in ("user_factors", "item_factors", "user_bias", "item_bias"):
            assert np.array_equal(
                getattr(got, attr).view(np.int64), getattr(want, attr).view(np.int64)
            ), attr
        assert got.global_bias == want.global_bias


class TestTrainConfig:
    @pytest.mark.parametrize("objective", ["tol-neg", "standard", None])
    def test_rejects_objective_that_is_not_an_objective(self, objective):
        with pytest.raises(ValueError, match="objective"):
            TrainConfig(objective=objective)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", 0.0),
            ("l2", float("nan")),
            ("l2", -1e-4),
            ("fixed_beta", float("nan")),
        ],
    )
    def test_rejects_nan_and_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.0, "0", True, None])
    def test_rejects_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("field", ["learning_rate", "l2", "fixed_beta"])
    @pytest.mark.parametrize("value", [True, "0", [0.5]])
    def test_rejects_rate_that_is_not_a_number_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            TrainConfig(**{field: value})

    def test_accepts_numpy_floats_and_no_fixed_beta(self):
        config = TrainConfig(learning_rate=np.float64(0.1), l2=np.float64(0), fixed_beta=None)
        assert (config.learning_rate, config.l2, config.fixed_beta) == (0.1, 0.0, None)
        assert TrainConfig(fixed_beta=np.float64(0.5)).fixed_beta == 0.5

    @pytest.mark.parametrize("field", ["epochs", "dimension", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, True, None])
    def test_rejects_size_that_is_not_an_int_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})


@pytest.mark.parametrize(
    "call, message",
    [
        *(
            pytest.param(
                lambda field=field: TrainConfig(**{field: 0}),
                "epochs, dimension, and batch_size must be positive",
                id=f"{field}-0",
            )
            for field in ("epochs", "dimension", "batch_size")
        ),
        pytest.param(
            lambda: train(
                [sample("u1", "i1", Label.POSITIVE)],
                TrainConfig(dimension=4),
                init_model=RankingModel.initialize(["u1"], ["i1"], 8, np.random.default_rng(0)),
            ),
            "init_model dimension does not match config",
            id="init-model-dimension",
        ),
    ],
)
def test_bad_input_fails_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestTrain:
    def separable_batch(self):
        return [
            sample("u1", "i1", Label.POSITIVE),
            sample("u1", "i2", Label.NEGATIVE),
            sample("u2", "i1", Label.POSITIVE),
            sample("u2", "i2", Label.NEGATIVE),
        ]

    def test_separable_converges(self):
        config = TrainConfig(
            learning_rate=0.5, epochs=200, dimension=4, seed=3, batch_size=4
        )
        result = train(self.separable_batch(), config)
        assert result.history[-1] < 0.05

    def test_initial_loss_near_log2_on_balanced_labels(self, rng):
        batch = random_batch(rng, n_samples=400, tolerance=False)
        config = TrainConfig(epochs=1, seed=9)
        result = train(batch, config)
        assert result.history[0] == pytest.approx(math.log(2), abs=0.05)

    def test_same_seed_identical_history(self, rng):
        batch = random_batch(rng, n_samples=80)
        config = TrainConfig(
            objective=Objective.TOLERANCE_AS_WEAK_POSITIVE,
            epochs=15,
            seed=42,
            batch_size=16,
        )
        first = train(batch, config)
        second = train(batch, config)
        assert first.history == second.history

    def test_history_length_counts_every_epoch(self, rng):
        batch = random_batch(rng, n_samples=30)
        result = train(batch, TrainConfig(epochs=7, seed=1))
        assert len(result.history) == 8  # init + one per epoch

    def diverging_setup(self):
        # Contradictory labels for one pair: no finite optimum exists, so a
        # huge step size oscillates with growing magnitude until overflow.
        batch = [
            sample("u1", "i1", Label.POSITIVE),
            sample("u1", "i1", Label.NEGATIVE),
        ]
        return batch, TrainConfig(learning_rate=1e6, epochs=100, dimension=4, seed=0)

    def test_divergence_aborts_with_epoch(self):
        with pytest.raises(DivergenceError) as info:
            train(*self.diverging_setup())
        assert info.value.epoch >= 1

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="^sample collection must be nonempty$"):
            train([], TrainConfig())

    def test_calls_the_module_loss_and_gradient(self, rng, monkeypatch):
        """Each minibatch step runs ``trainer.gradient`` and each history
        entry ``trainer.loss``, looked up by those names, so a wrapper set
        on either (as the benchmark's spans are) sees every call."""
        calls = {"batches": [], "losses": 0}
        step, epoch_loss = trainer.gradient, trainer.loss

        def counting_gradient(model, pairs, *rest):
            calls["batches"].append(len(pairs))
            return step(model, pairs, *rest)

        def counting_loss(*args):
            calls["losses"] += 1
            return epoch_loss(*args)

        monkeypatch.setattr(trainer, "gradient", counting_gradient)
        monkeypatch.setattr(trainer, "loss", counting_loss)
        batch = random_batch(rng, n_samples=101)
        config = TrainConfig(epochs=3, batch_size=16)  # 101 = 6 * 16 + 5
        for history, losses in ((True, 3 + 1), (False, 0)):
            calls["batches"], calls["losses"] = [], 0
            train(batch, config, history=history)
            assert len(calls["batches"]) == 3 * 7
            assert sum(calls["batches"]) == 3 * 101
            assert calls["losses"] == losses

    def test_warm_start_keeps_known_parameters(self, rng):
        batch = random_batch(rng, n_samples=50)
        first = train(batch, TrainConfig(epochs=5, seed=7))
        warmed = train(batch, TrainConfig(epochs=1, seed=7), init_model=first.model)
        assert warmed.history[0] == pytest.approx(first.history[-1], abs=1e-9)

    def test_matches_reference_loop_bit_for_bit(self, rng):
        """Training on one packed table, with one gather and one bincount
        scatter per batch, equals the per-batch, per-array ``np.add.at``
        reference loop bit for bit."""
        batch = random_batch(rng, n_users=9, n_items=15, n_samples=101)
        head = batch[:30]
        warm = train(head, TrainConfig(epochs=2, seed=5, batch_size=8)).model
        assert {s.user_id for s in batch} - set(warm.users)
        assert {s.item_id for s in batch} - set(warm.items)
        # A warm model holding ids the batch lacks: its rows sit at other
        # offsets than the new model's.
        wide = random_batch(rng, n_users=14, n_items=22, n_samples=80)
        stranger = train(wide, TrainConfig(epochs=2, seed=6, batch_size=8)).model
        assert set(stranger.users) - {s.user_id for s in batch}
        assert set(stranger.items) - {s.item_id for s in batch}
        lone = [
            sample("u1", "i1", Label.POSITIVE),
            sample("u1", "i1", Label.TOLERANCE, beta=0.25),
            sample("u1", "i1", Label.NEGATIVE),
        ]
        weak = Objective.TOLERANCE_AS_WEAK_POSITIVE
        base = TrainConfig(epochs=4, seed=11, batch_size=16)  # 101 = 6 * 16 + 5
        cases = [
            (batch, replace(base, objective=objective, l2=0.01), None)
            for objective in Objective
        ] + [
            (batch, replace(base, objective=weak, fixed_beta=0.4), None),
            (batch, replace(base, objective=Objective.TOLERANCE_AS_NEGATIVE), warm),
            (batch, replace(base, objective=weak, l2=0.05), warm),
            (batch, replace(base, objective=weak, l2=0.01), stranger),
            (batch, replace(base, batch_size=500), None),
            (batch, replace(base, objective=weak, batch_size=1), None),
            (batch, replace(base, dimension=1, l2=0.01), None),
            (lone, replace(base, objective=weak, batch_size=2), None),
        ]
        # A table much larger than each batch: most rows get no sample in a
        # step, only the L2 decay or nothing.
        catalog = random_batch(rng, n_users=20, n_items=200, n_samples=400)
        assert len({s.item_id for s in catalog}) > 100
        cases += [
            (catalog, replace(base, objective=weak, batch_size=4, epochs=2), None),
            (catalog, replace(base, batch_size=4, epochs=2, l2=0.01), None),
        ]
        for samples, config, init_model in cases:
            got = train(samples, config, init_model=init_model)
            want = reference_train(samples, config, init_model=init_model)
            for attr in ("user_factors", "item_factors", "user_bias", "item_bias"):
                assert np.array_equal(
                    getattr(got.model, attr), getattr(want.model, attr)
                ), (config, attr)
            assert got.model.global_bias == want.model.global_bias, config
            assert got.history == want.history, config
            # Without the epoch loss the same SGD steps give the same model.
            bare = train(samples, config, init_model=init_model, history=False)
            assert np.array_equal(bare.model.table, got.model.table), config
            assert bare.model.global_bias == got.model.global_bias, config
            assert bare.history == [], config

    def test_divergence_epoch_pinned(self):
        """The epoch loss overflows at epoch 28, one epoch before the
        parameters do: a trainer that checked only the parameters, or
        skipped the epoch loss, would name epoch 29."""
        with pytest.raises(DivergenceError) as info:
            train(*self.diverging_setup())
        assert info.value.epoch == 28

    def test_divergence_epoch_pinned_without_history(self):
        """Without the epoch loss only the parameters are checked, and they
        overflow at epoch 29."""
        with pytest.raises(DivergenceError) as info:
            train(*self.diverging_setup(), history=False)
        assert info.value.epoch == 29

    def test_non_finite_start_diverges_at_epoch_zero_without_history(self, rng):
        batch = random_batch(rng, n_samples=20)
        warm = train(batch, TrainConfig(epochs=1, seed=2)).model
        warm.global_bias = float("nan")
        with pytest.raises(DivergenceError) as info:
            train(batch, TrainConfig(epochs=1, seed=2), init_model=warm, history=False)
        assert info.value.epoch == 0


class TestRank:
    def test_orders_by_score(self):
        model = RankingModel.initialize(["u1"], ["hi", "lo"], 2, np.random.default_rng(0))
        model.item_bias[model.items["hi"]] = 2.0
        model.item_bias[model.items["lo"]] = -2.0
        assert model.rank("u1", ["lo", "hi"]) == ["hi", "lo"]

    def test_full_tie_is_ascending_by_id(self):
        model = RankingModel.initialize(["u1"], ["b", "a", "c"], 2, np.random.default_rng(0))
        for arr in (model.user_factors, model.item_factors, model.user_bias, model.item_bias):
            arr[:] = 0
        model.global_bias = 0.0
        assert model.rank("u1", ["b", "c", "a"]) == ["a", "b", "c"]

    def test_agrees_with_independent_sort(self, rng):
        items = [f"i{k}" for k in range(30)]
        model = random_model(["u1"], items, 4, rng)
        got = model.rank("u1", items)
        scores = {item: model.raw_score("u1", item) for item in items}
        expected = sorted(items, key=lambda it: (-scores[it], it))
        assert got == expected

    def test_scores_match_reference_bit_for_bit(self, rng):
        """Each score the ranking sorts by, unknown ids included, equals the
        per-array reference; ranking by the reference gives the same order."""
        users = [f"u{k}" for k in range(4)]
        items = [f"i{k}" for k in range(25)]
        model = random_model(users, items, 5, rng)
        candidates = items + ["unknown"]
        for user_id in users + ["nobody"]:
            for item_id in candidates:
                assert model.raw_score(user_id, item_id) == reference_raw_score(
                    model, user_id, item_id
                )
            expected = sorted(
                candidates,
                key=lambda it: (-reference_raw_score(model, user_id, it), it),
            )
            assert model.rank(user_id, candidates) == expected

    def test_empty_candidates_rejected(self, rng):
        model = random_model(["u1"], ["i1"], 2, rng)
        with pytest.raises(ValueError):
            model.rank("u1", [])


#: Trains a small model, then prints every (user, item) raw score as hex
#: and each user's ranking of the whole catalog plus one unknown id.
_SCORE_SCRIPT = textwrap.dedent(
    """
    import json
    import numpy as np
    from tolrec.labeling import Label, LabeledSample
    from tolrec.trainer import TrainConfig, train

    rng = np.random.default_rng(7)
    labels = list(Label)
    samples = []
    for k in range(600):
        label = labels[int(rng.integers(3))]
        samples.append(LabeledSample(
            f"u{int(rng.integers(20))}", f"i{int(rng.integers(60))}", k, label,
            float(rng.random()) if label is Label.TOLERANCE else None,
        ))
    # Factors grown large enough that a dot product's last bits survive
    # being added to the biases.
    config = TrainConfig(learning_rate=1.0, epochs=30, dimension=8, batch_size=32)
    model = train(samples, config).model
    items = sorted(model.items) + ["unknown"]
    users = sorted(model.users) + ["nobody"]
    print(json.dumps({
        "scores": [[model.raw_score(u, it).hex() for it in items] for u in users],
        "ranks": [model.rank(u, items) for u in users],
    }))
    """
)


@x86_64_only
def test_scores_do_not_depend_on_blas_kernel():
    """Train and score under two BLAS kernels: every raw score and every
    ranking must agree to the bit."""
    unset, prescott = outputs_under_blas_kernels(_SCORE_SCRIPT)
    assert unset == prescott


class TestScoreOrdering:
    def test_positive_above_tolerance_above_negative(self):
        """Weak-positive training with a fixed half weight leaves the score
        hierarchy positive > tolerance > negative with clear margins."""
        samples = []
        for _ in range(3):
            for k in range(10):
                samples.append(sample("u1", f"p{k:02d}", Label.POSITIVE))
                samples.append(sample("u1", f"t{k:02d}", Label.TOLERANCE, beta=0.7))
            for k in range(30):
                samples.append(sample("u1", f"n{k:02d}", Label.NEGATIVE))
        config = TrainConfig(
            objective=Objective.TOLERANCE_AS_WEAK_POSITIVE,
            learning_rate=0.3,
            epochs=1000,
            dimension=2,
            l2=0.02,
            seed=0,
            fixed_beta=0.5,
            batch_size=len(samples),
        )
        model = train(samples, config).model

        def mean_probability(prefix: str, count: int) -> float:
            scores = [model.raw_score("u1", f"{prefix}{k:02d}") for k in range(count)]
            return float(np.mean([float(sigmoid(z)) for z in scores]))

        mean_p = mean_probability("p", 10)
        mean_t = mean_probability("t", 10)
        mean_n = mean_probability("n", 30)
        assert mean_p - mean_t > 0.05
        assert mean_t - mean_n > 0.05


def catalog_of(n_items: int) -> list[LabeledSample]:
    """Negative samples of another user that put items ``i0``.. in the
    candidates, and draw no negatives themselves."""
    return [sample("u2", f"i{k}", Label.NEGATIVE) for k in range(n_items)]


class TestNegativeSampling:
    def test_adds_requested_negatives(self):
        samples = [
            sample("u1", "i1", Label.POSITIVE),
            sample("u1", "i2", Label.TOLERANCE, beta=0.5),
        ] + catalog_of(10)
        augmented = augment_with_sampled_negatives(samples, 3, seed=1)
        added = augmented[len(samples):]
        assert augmented[: len(samples)] == samples
        assert len(added) == 3
        assert all(s.label is Label.NEGATIVE and s.user_id == "u1" for s in added)
        assert all(s.item_id not in {"i1", "i2"} for s in added)

    def test_deterministic(self):
        samples = [sample("u1", "i1", Label.POSITIVE)] + catalog_of(20)
        a = augment_with_sampled_negatives(samples, 5, seed=4)
        b = augment_with_sampled_negatives(samples, 5, seed=4)
        assert len(a) == len(samples) + 5
        assert a == b

    def test_user_who_saw_the_whole_catalog_draws_none(self):
        """A user whose samples cover every item has no candidate left: no
        negative is added for them, and the other users still draw theirs."""
        samples = [sample("u1", f"i{k}", Label.POSITIVE) for k in range(4)]
        samples += [sample("u3", "i0", Label.POSITIVE)] + catalog_of(4)
        augmented = augment_with_sampled_negatives(samples, 2, seed=3)
        added = augmented[len(samples):]
        assert augmented[: len(samples)] == samples
        assert [(s.user_id, s.label) for s in added] == [("u3", Label.NEGATIVE)] * 2
        assert "i0" not in {s.item_id for s in added}
        assert augmented == augment_with_sampled_negatives(samples, 2, seed=3)

    def test_rejects_negative_count(self):
        samples = [sample("u1", "i1", Label.POSITIVE)]
        with pytest.raises(ValueError, match="negatives_per_positive"):
            augment_with_sampled_negatives(samples, -1)


class TestSnapshot:
    def test_round_trip_exact(self, tmp_path, rng):
        """``write_model``'s format, read back by the reference parser,
        gives the model's ids, table bits and global bias."""
        batch = random_batch(rng, n_samples=40)
        model = train(batch, TrainConfig(epochs=3, seed=5)).model
        path = tmp_path / "model.txt"
        write_model(path, model)
        loaded = reference_read_model(path)
        assert (loaded.users, loaded.items, loaded.global_bias) == (
            model.users,
            model.items,
            model.global_bias,
        )
        assert loaded.table.shape == model.table.shape
        assert loaded.table.tobytes() == model.table.tobytes()
