import math

import numpy as np
import pytest

from metavit import trainer
from metavit.errors import ConfigError, TrainingDiverged
from metavit.model import build_variant, variant
from metavit.tensor import Tensor
from metavit.trainer import (
    MAX_SAMPLES,
    AdamWLite,
    NonFiniteWeights,
    SgdMomentum,
    TrainConfig,
    evaluate,
    history_csv,
    make_synth,
    train_toy,
)


def _refuse(*args, **kwargs):
    raise AssertionError("allocated before the sample count was checked")


def toy_model(seed=0, **overrides):
    return build_variant(variant("tiny-narrow", num_classes=3, **overrides), seed)


class TestMakeSynth:
    def test_noiseless_values_are_exactly_plus_minus_one(self):
        ds = make_synth(12, noise_sigma=0.0, seed=3)
        assert set(np.unique(ds.images)) == {-1.0, 1.0}

    def test_deterministic_under_seed(self):
        a = make_synth(30, 0.1, seed=7)
        b = make_synth(30, 0.1, seed=7)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_balanced_classes(self):
        ds = make_synth(300, 0.1, seed=0)
        counts = np.bincount(ds.labels)
        assert counts.tolist() == [100, 100, 100]
        ds2 = make_synth(10, 0.1, seed=0)
        counts2 = np.bincount(ds2.labels, minlength=3)
        assert counts2.max() - counts2.min() <= 1

    def test_stripe_period(self):
        ds = make_synth(3, 0.0, seed=0)
        horizontal = ds.images[0, 0]  # label 0: rows alternate with period 8
        col = horizontal[:, 0]
        changes = np.where(np.diff(col) != 0)[0]
        assert (np.diff(changes) == 4).all()  # half-period of 4 px

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            make_synth(2)

    @pytest.mark.filterwarnings("error")  # noise that overflows float32 must not warn either
    @pytest.mark.parametrize("sigma", [-1.0, -1e-9, math.nan, math.inf, 1e38, 1e300])
    def test_negative_or_non_finite_noise_rejected(self, sigma):
        with pytest.raises(ConfigError, match="noise_sigma"):
            make_synth(3, noise_sigma=sigma)

    def test_more_than_one_gib_of_images_rejected_before_allocating(self, monkeypatch):
        assert MAX_SAMPLES == 21845 and MAX_SAMPLES * 3 * 64 * 64 * 4 <= 1 << 30
        monkeypatch.setattr(np, "empty", _refuse)
        for n in (MAX_SAMPLES + 1, 100_000_000):
            with pytest.raises(ConfigError, match="samples"):
                make_synth(n)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("batch_size", -4), ("lr", math.nan), ("lr", math.inf),
        ("lr", -1e-3), ("weight_decay", math.nan), ("weight_decay", math.inf),
        ("weight_decay", -1.0), ("label_smoothing", 1.0), ("label_smoothing", 7.0),
        ("label_smoothing", -0.1), ("label_smoothing", math.nan),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_edges_accepted(self):
        TrainConfig(batch_size=1, lr=0.0, weight_decay=0.0, label_smoothing=0.0)
        TrainConfig(label_smoothing=0.999)


class TestOptimizers:
    def test_sgd_momentum_moves_toward_minimum(self):
        p = Tensor(np.array([4.0], dtype=np.float32), requires_grad=True)
        opt = SgdMomentum([p], lr=0.1)
        for _ in range(300):  # momentum oscillates before settling
            p.grad = 2.0 * p.data  # d/dp p^2
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_adamw_decoupled_decay_scales_with_lr(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = AdamWLite([p], lr=0.0, weight_decay=0.5)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        assert p.data[0] == 1.0  # lr 0 disables decay too

    @pytest.mark.filterwarnings("error")  # the overflowing update must not warn
    @pytest.mark.parametrize("optimizer", [SgdMomentum, AdamWLite])
    def test_non_finite_update_raises_before_writing(self, optimizer):
        params = [Tensor(np.array([1.0], dtype=np.float32), requires_grad=True) for _ in range(3)]
        for p in params[1:]:  # a parameter without a gradient is skipped
            p.grad = np.array([1.0], dtype=np.float32)
        with pytest.raises(NonFiniteWeights) as err:
            optimizer(params, lr=1e300).step()
        assert err.value.index == 1
        assert [p.data[0] for p in params] == [1.0, 1.0, 1.0]

    def test_non_finite_update_names_step_and_parameter(self):
        model = toy_model()
        cfg = TrainConfig(steps=2, batch_size=6, weight_decay=1e300)
        with pytest.raises(TrainingDiverged, match="^step 0 .* stem.conv1.w$"):
            train_toy(model, make_synth(6, 0.1, 0), cfg)

    def test_single_step_changes_some_parameter(self, rng):
        model = toy_model()
        ds = make_synth(6, 0.1, seed=0)
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        train_toy(model, ds, TrainConfig(steps=1, batch_size=6, seed=0))
        changed = any(
            not np.array_equal(before[k], v.data) for k, v in model.parameters().items()
        )
        assert changed


class TestTrainToy:
    def test_zero_steps_history_empty_model_unchanged(self):
        model = toy_model()
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        history = train_toy(model, make_synth(6, 0.1, 0), TrainConfig(steps=0, batch_size=6))
        assert history == []
        for k, v in model.parameters().items():
            assert np.array_equal(before[k], v.data)

    def test_zero_lr_leaves_parameters_unchanged(self):
        model = toy_model()
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        train_toy(model, make_synth(6, 0.1, 0), TrainConfig(steps=2, batch_size=6, lr=0.0))
        for k, v in model.parameters().items():
            assert np.array_equal(before[k], v.data)

    def test_initial_loss_near_ln3(self):
        model = toy_model(seed=4)
        history = train_toy(model, make_synth(30, 0.1, 0),
                            TrainConfig(steps=1, batch_size=30, seed=0))
        assert abs(history[0].loss - math.log(3.0)) < 0.2

    def test_wrong_head_width_rejected(self):
        model = build_variant(variant("tiny-narrow", num_classes=5), 0)
        with pytest.raises(ConfigError):
            train_toy(model, make_synth(6, 0.1, 0), TrainConfig(steps=1))

    def test_batch_larger_than_dataset_rejected_before_any_step(self):
        model = toy_model()
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        with pytest.raises(ConfigError, match="batch_size 5"):
            train_toy(model, make_synth(3, 0.1, 0), TrainConfig(steps=1, batch_size=5))
        for k, v in model.parameters().items():
            assert np.array_equal(before[k], v.data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_step(self):
        model = toy_model()
        # absurd learning rate forces non-finite loss quickly
        cfg = TrainConfig(steps=50, batch_size=6, lr=1e12, optimizer="sgd-momentum")
        with pytest.raises(TrainingDiverged) as err:
            train_toy(model, make_synth(6, 0.1, 0), cfg)
        assert "step" in str(err.value)

    def test_without_ca_stage_still_trains(self):
        model = toy_model(use_ca_stage=False)
        history = train_toy(model, make_synth(9, 0.1, 0),
                            TrainConfig(steps=2, batch_size=9, seed=0))
        assert len(history) == 2
        assert all(math.isfinite(r.loss) for r in history)

    def test_history_csv_shape(self):
        model = toy_model()
        history = train_toy(model, make_synth(6, 0.1, 0),
                            TrainConfig(steps=2, batch_size=6))
        text = history_csv(history)
        lines = text.strip().splitlines()
        assert lines[0] == "step,loss,accuracy"
        assert len(lines) == 3


class TestEvaluate:
    def test_perfect_logit_stub(self, monkeypatch):
        ds = make_synth(9, 0.1, seed=0)

        class Stub:
            def forward_classify(self, imgs):
                labels = ds.labels[: imgs.shape[0]]
                return Tensor(np.eye(3, dtype=np.float32)[labels] * 10)

        # batch slices line up with the dataset ordering
        monkeypatch.setattr(trainer, "EVAL_BATCH", 9)
        assert evaluate(Stub(), ds) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logits_raise(self, bad, monkeypatch):
        ds = make_synth(9, 0.1, seed=0)

        class Stub:
            calls = 0

            def forward_classify(self, imgs):
                logits = np.zeros((imgs.shape[0], 3), dtype=np.float32)
                self.calls += 1
                if self.calls == 2:  # one bad logit in the second batch only
                    logits[1, 2] = bad
                return Tensor(logits)

        monkeypatch.setattr(trainer, "EVAL_BATCH", 3)
        with pytest.raises(TrainingDiverged, match="samples 3..5"):
            evaluate(Stub(), ds)

    def test_untrained_accuracy_near_chance_over_seeds(self):
        # measured band for this init on 300 balanced samples: [0.18, 0.58]
        ds = make_synth(300, 0.1, seed=1)
        accs = [evaluate(toy_model(seed=s), ds) for s in range(10)]
        assert all(0.10 <= a <= 0.65 for a in accs), accs
        assert 0.25 <= float(np.mean(accs)) <= 0.45

    def test_side_effect_free(self):
        model = toy_model()
        ds = make_synth(6, 0.1, 0)
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        evaluate(model, ds)
        for k, v in model.parameters().items():
            assert np.array_equal(before[k], v.data)
