import json

import numpy as np
import pytest

from elmloc.dataset import load_csv, load_manifest, registry_lookup
from elmloc.synthetic import generate_synthetic


class TestGenerate:
    def test_sizes_match_registry(self, syn_full):
        train, test = syn_full
        desc = registry_lookup("SYN1")
        assert train.n_samples == desc.train_size
        assert test.n_samples == desc.test_size
        assert train.n_aps == desc.n_aps == test.n_aps

    def test_deterministic(self):
        a_train, a_test = generate_synthetic(seed=11, n_train=50, n_test=20, n_aps=24)
        b_train, b_test = generate_synthetic(seed=11, n_train=50, n_test=20, n_aps=24)
        assert (a_train.rss == b_train.rss).all()
        assert (a_test.rss == b_test.rss).all()
        c_train, _ = generate_synthetic(seed=12, n_train=50, n_test=20, n_aps=24)
        assert not (a_train.rss == c_train.rss).all()

    def test_groups_balanced(self, syn_full):
        train, _ = syn_full
        pairs = train.label_pairs()
        counts = np.unique(pairs, axis=0, return_counts=True)[1]
        assert len(counts) == 12  # 3 buildings x 4 floors
        assert counts.max() - counts.min() <= 1

    def test_no_cross_building_detections(self, syn_full):
        # the geometry guarantees silence across buildings, which is what
        # pins the nearest-neighbor building hit rate at exactly 100%
        train, test = syn_full
        for rmap in (train, test):
            detected = rmap.rss != 0.0
            for b in range(3):
                rows = rmap.building == b
                ap_cols = detected[rows].any(axis=0)
                other = detected[~rows].any(axis=0)
                assert not (ap_cols & other).any()

    def test_detected_fraction_plausible(self, syn_full):
        train, _ = syn_full
        frac = np.mean(train.rss != 0.0)
        assert 0.1 < frac < 0.4

    def test_readings_in_band(self, syn_full):
        train, _ = syn_full
        detected = train.rss[train.rss != 0.0]
        assert detected.min() >= -95.0
        assert detected.max() < 0.0

    def test_coords_attached(self, syn_full):
        train, _ = syn_full
        assert train.coords.shape == (train.n_samples, 2)


class TestWriteDataset:
    def test_layout(self, syn1_dir):
        d = syn1_dir / "SYN1"
        assert (d / "train.csv").exists()
        assert (d / "test.csv").exists()
        assert (d / "manifest.json").exists()
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["ap_columns"] == [0, 99]
        assert manifest["floor_col"] == 100
        assert manifest["building_col"] == 101
        assert manifest["sentinel"] == 100.0

    def test_csv_round_trips_bitwise(self, syn1_dir, syn_full):
        # repr() of a float round-trips exactly, so loading the CSV must
        # reproduce the generated arrays bit for bit
        train, _ = syn_full
        m = load_manifest(syn1_dir / "SYN1" / "manifest.json")
        loaded = load_csv(syn1_dir / "SYN1" / "train.csv", m.schema, m.sentinel)
        assert (loaded.rss == train.rss).all()
        assert (loaded.floor == train.floor).all()
        assert (loaded.building == train.building).all()

    def test_sentinel_written_as_100(self, syn1_dir):
        first = (syn1_dir / "SYN1" / "train.csv").read_text().splitlines()[1]
        assert "100" in first.split(",")
