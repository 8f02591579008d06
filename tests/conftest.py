"""Shared fixtures: synthetic radio maps at two sizes, and their files.

``syn_small`` is for unit/integration tests that only need plausible data;
``syn_full`` is the bundled benchmark instance (registry entry SYN1) whose
frozen reference numbers the acceptance tests check. ``write_synthetic_dataset``
and ``_write_csv`` write radio maps in the on-disk layout the CLI reads, and
``tst1_registered`` registers ``TST1``, a dataset the size of ``syn_small``.
``traced_peak`` measures what a call allocates at its peak, and
``loo_reference`` is the brute-force oracle of the hidden-size sweep.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from elmloc import dataset
from elmloc.dataset import DatasetDescriptor, RadioMap
from elmloc.synthetic import DEFAULT_SEED, generate_synthetic

SENTINEL_RAW = 100.0

TST1 = DatasetDescriptor(
    name="TST1", train_size=720, test_size=240, n_aps=40,
    L_default=60, c_default=1.0,
)


def write_synthetic_dataset(out_dir, seed: int = DEFAULT_SEED) -> Path:
    """Materialize SYN1 as CSV files + manifest under ``out_dir``/SYN1."""
    train, test = generate_synthetic(seed)
    root = Path(out_dir) / "SYN1"
    root.mkdir(parents=True, exist_ok=True)
    for split, rmap in (("train", train), ("test", test)):
        _write_csv(root / f"{split}.csv", rmap)
    manifest = {
        "name": "SYN1",
        "ap_columns": [0, train.n_aps - 1],
        "floor_col": train.n_aps,
        "building_col": train.n_aps + 1,
        "sentinel": SENTINEL_RAW,
    }
    with open(root / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return root


def _write_csv(path: Path, rmap: RadioMap) -> None:
    header = [f"AP{j:03d}" for j in range(rmap.n_aps)] + ["FLOOR", "BUILDINGID"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rmap.n_samples):
            row = rmap.rss[i]
            cells = [
                f"{SENTINEL_RAW:.0f}" if v == 0.0 else repr(float(v)) for v in row
            ]
            cells.append(str(int(rmap.floor[i])))
            cells.append(str(int(rmap.building[i])))
            fh.write(",".join(cells) + "\n")


def traced_peak(call):
    """``call()``'s result and the most bytes it had allocated at any one time.

    Counts what tracemalloc traces, numpy's data buffers included, beyond what
    was live when the call started.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def held_reference(pairs, seed):
    """The rows the sweep scores, drawn by a reference: for each distinct (building,
    floor) row in sorted order that labels two rows or more, ceil(0.1 * its rows)
    of them by ``choice`` without replacement from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    held = np.zeros(len(pairs), dtype=bool)
    for cls in sorted({(int(b), int(f)) for b, f in pairs}):
        rows = np.flatnonzero((pairs == cls).all(axis=1))
        if rows.size >= 2:
            held[rng.choice(rows, size=math.ceil(0.1 * rows.size), replace=False)] = True
    return np.flatnonzero(held)


def loo_reference(x, pairs, c, L_max, step, seed):
    """The sweep by brute force: at each grid size L, each held row is scored by
    ``elm.fit`` refitted on every other row, with the first L neurons of the
    L_max layer.

    Returns the sizes, the floor and building hit curves, the selected size and
    each size's score matrix (held rows x classes).
    """
    from elmloc.elm import fit, hidden_map, init_hidden

    classes = sorted({(int(b), int(f)) for b, f in pairs})
    t = np.array([[float(tuple(p) == cls) for cls in classes] for p in pairs.tolist()])
    held = held_reference(pairs, seed)
    sizes = np.arange(step, L_max + 1, step)
    w, b = init_hidden(seed, x.shape[1], L_max)
    floor_hits, building_hits, scores = [], [], []
    for L in sizes:
        h = hidden_map(x, w[:, :L], b[:L])
        rows = []
        for i in held:
            rest = np.arange(len(x)) != i
            rows.append(h[i] @ fit(h[rest], t[rest], c))
        scores.append(np.array(rows))
        pred = np.array(classes)[np.argmax(scores[-1], axis=1)]
        floor_hits.append(100.0 * float(np.mean(pred[:, 1] == pairs[held, 1])))
        building_hits.append(100.0 * float(np.mean(pred[:, 0] == pairs[held, 0])))
    best = int(sizes[int(np.argmax(floor_hits))])
    return sizes, np.array(floor_hits), np.array(building_hits), best, scores


@pytest.fixture(scope="module")
def tst1_registered():
    """``TST1`` in the dataset registry for the tests of one module."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(dataset._REGISTRY, TST1.name, TST1)
        yield TST1


@pytest.fixture(scope="session")
def syn_small():
    # small enough that an ELM fit is instant, large enough that every
    # (building, floor) group has a few dozen samples
    return generate_synthetic(seed=3, n_train=720, n_test=240, n_aps=40)


@pytest.fixture(scope="session")
def syn_full():
    return generate_synthetic()


@pytest.fixture(scope="session")
def syn1_dir(tmp_path_factory):
    """SYN1 materialized as CSV + manifest (the on-disk layout the CLI reads)."""
    root = tmp_path_factory.mktemp("data")
    write_synthetic_dataset(root)
    return root


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
