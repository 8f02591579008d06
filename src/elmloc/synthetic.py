"""Deterministic synthetic radio map: 3 buildings x 4 floors, 100 APs.

A stand-in benchmark set for environments where the public fingerprint files
are not available. Geometry is simple but produces the qualitative structure
the classifiers rely on: buildings are separated by 600 m so no AP is ever
heard across buildings (building hit must be 100%), floors attenuate the
signal strongly but not perfectly, and log-distance path loss plus shadowing
noise and random dropout make floors overlap enough that nearest-neighbor
floor accuracy lands in the mid-90s rather than at 100%.

Per-reading model, in dBm:

    rss = -33 - 30 log10(max(d, 1)) - 14 |floor_ap - floor_rx| + noise

with noise ~ N(0, 6^2) truncated to +-12 dB, a -95 dBm detection threshold,
and 12% of otherwise-detected readings dropped. Everything is driven by one
seeded generator, so (seed, sizes) fixes the dataset bitwise.

AP columns are grouped so consecutive indices sit in the same building and
floor. Column order is meaningful to the convolutional featurizer (it mixes
adjacent columns), and grouping makes that mixing combine co-located APs
instead of unrelated ones.
"""

from __future__ import annotations

import numpy as np

from .dataset import RadioMap

#: Seed of the bundled benchmark instance (registry entry SYN1).
DEFAULT_SEED = 7

N_BUILDINGS = 3
N_FLOORS = 4
FOOTPRINT = (40.0, 25.0)  # building extent in metres
BUILDING_GAP = 600.0  # x offset between buildings
TX_POWER = -33.0  # dBm at 1 m
PATH_LOSS = 30.0  # dB per decade
FLOOR_LOSS = 14.0  # dB per floor of separation
NOISE_STD = 6.0
NOISE_CLIP = 12.0
DETECT_THRESHOLD = -95.0  # dBm
DROPOUT = 0.12


def _combo(i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Round-robin over the 12 (building, floor) groups keeps them balanced.
    c = i % (N_BUILDINGS * N_FLOORS)
    return c // N_FLOORS, c % N_FLOORS


def _ap_combo(j: np.ndarray, n_aps: int) -> tuple[np.ndarray, np.ndarray]:
    # Contiguous blocks: APs of one (building, floor) group occupy adjacent
    # columns, so a width-3 convolution mixes co-located transmitters.
    c = (j * N_BUILDINGS * N_FLOORS) // n_aps
    return c // N_FLOORS, c % N_FLOORS


def _sample_block(rng, n, ap_xy, ap_floor, ap_building, name) -> RadioMap:
    idx = np.arange(n)
    building, floor = _combo(idx)
    xy = rng.uniform((0.0, 0.0), FOOTPRINT, size=(n, 2))
    xy[:, 0] += building * BUILDING_GAP

    d = np.linalg.norm(xy[:, None, :] - ap_xy[None, :, :], axis=2)
    rss = (
        TX_POWER
        - PATH_LOSS * np.log10(np.maximum(d, 1.0))
        - FLOOR_LOSS * np.abs(floor[:, None] - ap_floor[None, :])
        + np.clip(rng.normal(0.0, NOISE_STD, size=d.shape), -NOISE_CLIP, NOISE_CLIP)
    )
    detected = (rss >= DETECT_THRESHOLD) & (rng.random(size=d.shape) >= DROPOUT)
    # cross-building readings sit ~20 dB under the threshold even at max noise
    assert not (detected & (building[:, None] != ap_building[None, :])).any()
    return RadioMap(
        rss=np.where(detected, rss, 0.0),
        floor=floor,
        building=building,
        name=name,
        coords=xy,
    )


def generate_synthetic(
    seed: int = DEFAULT_SEED,
    n_train: int = 6000,
    n_test: int = 1000,
    n_aps: int = 100,
) -> tuple[RadioMap, RadioMap]:
    """(train, test) radio maps of the synthetic environment."""
    rng = np.random.default_rng(seed)
    ap_idx = np.arange(n_aps)
    ap_building, ap_floor = _ap_combo(ap_idx, n_aps)
    ap_xy = rng.uniform((0.0, 0.0), FOOTPRINT, size=(n_aps, 2))
    ap_xy[:, 0] += ap_building * BUILDING_GAP

    train = _sample_block(rng, n_train, ap_xy, ap_floor, ap_building, "SYN1-train")
    test = _sample_block(rng, n_test, ap_xy, ap_floor, ap_building, "SYN1-test")
    return train, test

