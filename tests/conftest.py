"""Shared fixtures: synthetic radio maps at two sizes, and their files.

``syn_small`` is for unit/integration tests that only need plausible data;
``syn_full`` is the bundled benchmark instance (registry entry SYN1) whose
frozen reference numbers the acceptance tests check. ``write_synthetic_dataset``
and ``_write_csv`` write radio maps in the on-disk layout the CLI reads, and
``tst1_registered`` registers ``TST1``, a dataset the size of ``syn_small``.
``traced_peak`` measures what a call allocates at its peak.
"""

import json
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
