import json
from dataclasses import asdict
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dumpwatch.dataset import (
    Chip,
    DatasetSplit,
    extract_chips,
    fit_normalization,
    rasterize_mask,
    stack_bands,
)
from dumpwatch.numerics import Tensor
from dumpwatch.training import (
    AblationRow,
    Hyperparams,
    Metrics,
    PlateauStopper,
    TrainingDiverged,
    TrainReport,
    auto_pos_weight,
    evaluate,
    format_ablation_table,
    iou,
    save_ablation,
    train,
)
from dumpwatch.unet import UNetConfig, build_unet
from oracles import iou_oracle, load_ablation


def _chip(mask_values, bands=2, size=8, fill=0.5):
    mask = np.zeros((size, size), dtype=np.uint8)
    for r, c in mask_values:
        mask[r, c] = 1
    return Chip(
        samples=np.full((bands, size, size), fill, dtype=np.float32),
        mask=mask,
        origin=(0, 0),
    )


class TestIou:
    def test_hand_example(self):
        pred = np.array([[1, 1, 0]])
        target = np.array([[0, 1, 1]])
        assert iou(pred, target) == pytest.approx(1.0 / 3.0)

    def test_both_empty_is_one(self):
        z = np.zeros((4, 4), dtype=np.uint8)
        assert iou(z, z) == 1.0

    def test_one_empty_is_zero(self):
        z = np.zeros((4, 4), dtype=np.uint8)
        o = np.ones((4, 4), dtype=np.uint8)
        assert iou(z, o) == 0.0
        assert iou(o, z) == 0.0

    @given(seed=st.integers(0, 5000), p=st.floats(0.0, 1.0))
    def test_matches_oracle(self, seed, p):
        rng = np.random.default_rng(seed)
        a = (rng.uniform(size=(6, 6)) < p).astype(np.uint8)
        b = (rng.uniform(size=(6, 6)) < p).astype(np.uint8)
        assert iou(a, b) == pytest.approx(iou_oracle(a, b), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            iou(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="binary"):
            iou(np.full((2, 2), 0.5), np.zeros((2, 2)))


class TestAutoPosWeight:
    def test_ratio(self):
        # one positive pixel in a 10x10 chip: 99 negatives per positive
        chip = _chip([(0, 0)], size=10)
        assert auto_pos_weight([chip]) == pytest.approx(99.0)

    def test_clamped_high(self):
        chip = _chip([(0, 0)], size=64)  # ratio 4095, clamp to 100
        assert auto_pos_weight([chip]) == 100.0

    def test_clamped_low(self):
        chip = _chip([(r, c) for r in range(8) for c in range(8) if (r, c) != (0, 0)])
        assert auto_pos_weight([chip]) == 1.0  # 1/63 ratio clamps up to 1

    def test_errors(self):
        with pytest.raises(ValueError, match="at least one"):
            auto_pos_weight([])
        with pytest.raises(ValueError, match="no positive"):
            auto_pos_weight([_chip([])])
        all_on = [(r, c) for r in range(8) for c in range(8)]
        with pytest.raises(ValueError, match="no negative"):
            auto_pos_weight([_chip(all_on)])


class TestHyperparams:
    def test_defaults(self):
        h = Hyperparams()
        assert h.pos_weight == "auto"
        assert h.plateau_patience == 5

    def test_validation(self):
        for kwargs, pattern in [
            ({"batch_size": 0}, "batch_size"),
            ({"max_epochs": 0}, "max_epochs"),
            ({"learning_rate": 0.0}, "learning_rate"),
            ({"pos_weight": "bogus"}, "pos_weight"),
            ({"pos_weight": -1.0}, "pos_weight"),
            ({"plateau_patience": 0}, "plateau_patience"),
            ({"plateau_min_delta": -0.1}, "plateau_min_delta"),
        ]:
            with pytest.raises(ValueError, match=pattern):
                Hyperparams(**kwargs)


class TestPlateauStopper:
    def test_stops_after_consecutive_stale_epochs(self):
        s = PlateauStopper(patience=2, min_delta=0.0)
        assert not s.update(1.0)
        assert not s.update(1.0)  # stale 1
        assert s.update(1.0)  # stale 2 -> stop

    def test_improvement_resets(self):
        s = PlateauStopper(patience=2, min_delta=0.0)
        assert not s.update(1.0)
        assert not s.update(1.0)
        assert not s.update(0.5)  # reset
        assert not s.update(0.5)
        assert s.update(0.5)

    def test_min_delta_requires_real_improvement(self):
        s = PlateauStopper(patience=1, min_delta=0.1)
        assert not s.update(1.0)
        assert s.update(0.95)  # only 0.05 better: still stale


def _logit_only_net(bias_value: float):
    """depth-1 net rigged to output a constant logit: zero weights, head bias."""
    cfg = UNetConfig(in_channels=2, depth=1, base_filters=2)
    params = build_unet(cfg, seed=0)
    for name, p in params.items():
        p.data = np.zeros_like(p.data)
    params["head.bias"].data = np.full(1, bias_value, dtype=np.float32)
    return cfg, params


class TestEvaluate:
    def test_constant_negative_net(self):
        cfg, params = _logit_only_net(-4.0)
        chips = [_chip([]), _chip([])]
        m = evaluate(params, cfg, chips)
        assert m.mean_iou == 1.0  # empty prediction vs empty mask
        expected = math.log1p(math.exp(-4.0))  # softplus(z) at z=-4, y=0
        assert m.loss == pytest.approx(expected, rel=1e-6)
        assert len(m.per_chip_iou) == 2

    def test_constant_positive_net(self):
        cfg, params = _logit_only_net(4.0)
        full = [(r, c) for r in range(8) for c in range(8)]
        m = evaluate(params, cfg, [_chip(full)])
        assert m.mean_iou == 1.0
        m2 = evaluate(params, cfg, [_chip([])])
        assert m2.mean_iou == 0.0

    def test_pos_weight_scales_positive_cells(self):
        cfg, params = _logit_only_net(0.0)
        full = [(r, c) for r in range(8) for c in range(8)]
        base = evaluate(params, cfg, [_chip(full)], pos_weight=1.0)
        double = evaluate(params, cfg, [_chip(full)], pos_weight=2.0)
        assert double.loss == pytest.approx(2 * base.loss, rel=1e-6)

    def test_batch_size_invariance(self):
        cfg = UNetConfig(in_channels=2, depth=1, base_filters=4)
        params = build_unet(cfg, seed=3)
        rng = np.random.default_rng(4)
        chips = [
            Chip(
                samples=rng.normal(size=(2, 8, 8)).astype(np.float32),
                mask=(rng.uniform(size=(8, 8)) < 0.2).astype(np.uint8),
                origin=(0, 0),
            )
            for _ in range(5)
        ]
        a = evaluate(params, cfg, chips, batch_size=1)
        b = evaluate(params, cfg, chips, batch_size=16)
        assert a.loss == pytest.approx(b.loss, rel=1e-6)
        assert a.per_chip_iou == b.per_chip_iou

    def test_odd_chip_size_is_padded_then_cropped(self):
        cfg = UNetConfig(in_channels=2, depth=2, base_filters=2)
        params = build_unet(cfg, seed=0)
        chips = [_chip([(1, 1)], size=10)]  # 10 not divisible by 4
        m = evaluate(params, cfg, chips)
        assert math.isfinite(m.loss)
        assert 0.0 <= m.mean_iou <= 1.0

    def test_validation(self):
        cfg, params = _logit_only_net(0.0)
        with pytest.raises(ValueError, match="at least one"):
            evaluate(params, cfg, [])
        with pytest.raises(ValueError, match="threshold"):
            evaluate(params, cfg, [_chip([])], threshold=1.5)


def _training_split(seed=0, n_chips=12, size=16):
    rng = np.random.default_rng(seed)
    chips = []
    for i in range(n_chips):
        samples = rng.normal(size=(2, size, size)).astype(np.float32)
        mask = np.zeros((size, size), dtype=np.uint8)
        if i % 2 == 0:
            r, c = rng.integers(2, size - 6, size=2)
            mask[r : r + 4, c : c + 4] = 1
            samples[:, r : r + 4, c : c + 4] += 2.0  # signal in both bands
        chips.append(
            Chip(samples=samples, mask=mask, origin=(0, 0))
        )
    return DatasetSplit(train=chips[:8], val=chips[8:10], test=chips[10:], seed=seed)


class TestTrain:
    CFG = UNetConfig(in_channels=2, depth=1, base_filters=4)

    def test_loss_decreases_and_report_is_consistent(self):
        split = _training_split()
        params = build_unet(self.CFG, seed=1)
        hyper = Hyperparams(
            batch_size=4, max_epochs=8, learning_rate=3e-3, plateau_patience=8
        )
        best, report = train(params, self.CFG, split, hyper, seed=5)
        assert report.epochs[-1].train_loss < report.epochs[0].train_loss
        assert report.stopping_epoch == len(report.epochs)
        assert report.test is not None
        assert "wall_time_s" in report.metadata
        rates = report.metadata["chips_per_s"]
        assert len(rates) == len(report.epochs) and all(r > 0 for r in rates)

    def test_epoch_log_carries_throughput(self, caplog):
        hyper = Hyperparams(batch_size=4, max_epochs=2, learning_rate=1e-3)
        with caplog.at_level(logging.INFO, logger="dumpwatch.training"):
            train(build_unet(self.CFG, seed=1), self.CFG, _training_split(), hyper, seed=5)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch ")]
        assert len(lines) == 2 and all(" chips/s=" in line for line in lines)

    def test_best_val_snapshot_returned(self):
        split = _training_split()
        params = build_unet(self.CFG, seed=1)
        hyper = Hyperparams(batch_size=4, max_epochs=6, learning_rate=3e-3)
        best, report = train(params, self.CFG, split, hyper, seed=5)
        resolved = report.pos_weight
        re_eval = evaluate(
            best, self.CFG, split.val, pos_weight=resolved, batch_size=4
        )
        assert re_eval.loss == min(e.val_loss for e in report.epochs)

    def test_deterministic_runs(self):
        hyper = Hyperparams(batch_size=4, max_epochs=3, learning_rate=1e-3)
        outputs = []
        for _ in range(2):
            split = _training_split()
            params = build_unet(self.CFG, seed=2)
            best, report = train(params, self.CFG, split, hyper, seed=9)
            payload = b"".join(
                best[name].data.tobytes() for name in sorted(best)
            )
            d = asdict(report)
            d.pop("metadata")
            outputs.append((payload, json.dumps(d, sort_keys=True)))
        assert outputs[0] == outputs[1]

    def test_pos_weight_resolution(self):
        split = _training_split()
        params = build_unet(self.CFG, seed=1)
        hyper = Hyperparams(batch_size=4, max_epochs=1, pos_weight="auto")
        _, report = train(params, self.CFG, split, hyper)
        assert report.pos_weight == pytest.approx(auto_pos_weight(split.train))
        params = build_unet(self.CFG, seed=1)
        _, report2 = train(
            params, self.CFG, split, Hyperparams(batch_size=4, max_epochs=1, pos_weight=7.5)
        )
        assert report2.pos_weight == 7.5

    def test_plateau_stops_early(self):
        split = _training_split()
        params = build_unet(self.CFG, seed=1)
        hyper = Hyperparams(
            batch_size=4,
            max_epochs=30,
            learning_rate=1e-5,
            plateau_patience=2,
            plateau_min_delta=10.0,  # impossible improvement bar
        )
        _, report = train(params, self.CFG, split, hyper)
        assert report.stopping_epoch == 3  # first epoch beats inf, then 2 stale

    def test_divergence_raises(self):
        split = _training_split()
        params = build_unet(self.CFG, seed=1)
        params["head.bias"].data = np.array([np.nan], dtype=np.float32)
        with pytest.raises(TrainingDiverged):
            train(params, self.CFG, split, Hyperparams(batch_size=4, max_epochs=2))

    def test_empty_train_rejected(self):
        split = DatasetSplit(train=[], val=[], test=[])
        with pytest.raises(ValueError, match="empty"):
            train(build_unet(self.CFG, seed=0), self.CFG, split, Hyperparams())

    def test_empty_val_falls_back_to_train(self):
        base = _training_split()
        split = DatasetSplit(train=base.train, val=[], test=[], seed=0)
        params = build_unet(self.CFG, seed=1)
        _, report = train(
            params, self.CFG, split, Hyperparams(batch_size=4, max_epochs=2)
        )
        assert len(report.epochs) == 2
        assert report.test is None

    def test_report_round_trips_through_json(self, tmp_path):
        split = _training_split()
        params = build_unet(self.CFG, seed=1)
        _, report = train(
            params, self.CFG, split, Hyperparams(batch_size=4, max_epochs=2)
        )
        report.save(tmp_path / "report.json")
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["stopping_epoch"] == report.stopping_epoch
        assert loaded["test"]["mean_iou"] == report.test.mean_iou
        assert len(loaded["epochs"]) == len(report.epochs)


class TestAblation:
    def test_save_load_round_trip(self, tmp_path):
        rows = [
            AblationRow("RGB", 0.5, 0.21),
            AblationRow("RGB-NIR-SWIR-NDSW", 0.2, 0.74),
        ]
        save_ablation(rows, tmp_path / "ablation")
        assert load_ablation(tmp_path / "ablation") == rows
        table = (tmp_path / "ablation.txt").read_text()
        assert "RGB-NIR-SWIR-NDSW" in table
        assert "band set" in table

    def test_format_table_alignment(self):
        rows = [AblationRow("A", 1.0, 0.5), AblationRow("longer-label", 0.25, 0.75)]
        table = format_ablation_table(rows)
        lines = table.splitlines()
        assert len(lines) == 3
        assert len({len(line) for line in lines}) == 1  # fixed-width columns
