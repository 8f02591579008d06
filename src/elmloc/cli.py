"""Command-line front end: ingest, train, predict, sweep, benchmark, report.

Dataset files live under a root directory (flag ``--data-root`` or env var
``ELMLOC_DATA_ROOT``, default "."), one subdirectory per dataset:

    <root>/<NAME>/train.csv
    <root>/<NAME>/test.csv
    <root>/<NAME>/manifest.json

SYN1 is generated in memory when its files are absent. Option precedence is
CLI flag > config file (``--config``) > registry > ``PipelineConfig``
defaults. Each command names the settings it reads (``_TRAIN_KEYS``, every
``PipelineConfig`` field, and ``_SWEEP_KEYS``); any other config-file key is an
error. File values go through ``dataset.check_setting``, the one rule table for
a setting, and flag text through ``dataset.parse_setting``, which converts it by
the kind that table gives and then checks it, so both are checked, not dropped,
before any data is read, and refused with the same message. The resolved
configuration and its digest are echoed so every run is reproducible.

Every file is decoded as UTF-8, whatever the locale. The model, the config
file, a manifest and a report pass ``dataset.load_json``: each must hold one
JSON object that names no key twice, and a file it refuses, one nested too
deep included, is a ``ParseError`` naming the file.

``predict`` reads its query file once: mapped by a ``manifest.json`` beside it,
whose labels are then scored, or else exactly the model's AP columns with 100
for an AP not heard. Its header is checked even when the file has no rows.

Exit codes: 0 success, 1 reserved for accuracy-gate failures in CI
wrappers, 2 I/O, configuration or usage errors. Every refusal, argparse's own
included, prints ``error: <message>`` on stderr and, under ``--error-json``, one
JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import evaluation
from .dataset import (
    DatasetDescriptor,
    ParseError,
    RadioMap,
    SchemaError,
    UnknownDatasetError,
    _read_map,
    _read_matrix,
    check_setting,
    class_index,
    load_csv,
    load_json,
    load_manifest,
    parse_setting,
    registry_lookup,
    registry_names,
    rss_matrix,
)
from .elm import check_grid, check_quantized
from .evaluation import config_digest, format_table, hit_rate, run_benchmark
from .pipeline import (
    PipelineConfig,
    fit_pipeline,
    load_model,
    predict_pipeline,
    save_model,
    sweep_pipeline,
)
from .synthetic import generate_synthetic

_DATA_ROOT_ENV = "ELMLOC_DATA_ROOT"


class CliError(Exception):
    """User-facing failure; message printed, exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals (an unknown flag or command, a missing
    one) raise ``CliError``, so ``main`` reports them as it reports any other."""

    def error(self, message):
        raise CliError(message)


def _data_root(args) -> Path:
    if args.data_root:
        return Path(args.data_root)
    return Path(os.environ.get(_DATA_ROOT_ENV, "."))


def _load_splits(name: str, root: Path, splits: tuple[str, ...]) -> list[RadioMap]:
    """The named splits of dataset ``name`` under ``root``; a missing file raises
    ``FileNotFoundError``, which ``run_benchmark`` records as that dataset's failure."""
    ds_dir = root / name
    manifest_path = ds_dir / "manifest.json"
    if not manifest_path.exists():
        if name == "SYN1":
            generated = dict(zip(("train", "test"), generate_synthetic()))
            return [generated[split] for split in splits]
        raise FileNotFoundError(f"missing file: {manifest_path}")
    manifest = load_manifest(manifest_path)
    maps = []
    for split in splits:
        path = ds_dir / f"{split}.csv"
        if not path.exists():
            raise FileNotFoundError(f"missing file: {path}")
        maps.append(load_csv(path, manifest.schema, manifest.sentinel, name=f"{name}-{split}"))
    return maps


def _load_pair(name: str, root: Path) -> tuple[RadioMap, RadioMap]:
    train, test = _load_splits(name, root, ("train", "test"))
    return train, test


def _load_train(name: str, root: Path) -> RadioMap:
    """The training split alone; train and sweep never read test.csv."""
    return _load_splits(name, root, ("train",))[0]


def _descriptor(name: str) -> DatasetDescriptor | None:
    try:
        return registry_lookup(name)
    except UnknownDatasetError:
        return None


# The PipelineConfig fields each command reads, from a flag or a config file.
# The sweep's hidden sizes come from --L-max and --step, and it saves no model.
_TRAIN_KEYS = tuple(f.name for f in fields(PipelineConfig))
_SWEEP_KEYS = tuple(key for key in _TRAIN_KEYS if key not in ("L", "quantize"))


def _resolve_run(args, keys: tuple[str, ...]) -> dict:
    """Merge flags, config file, and defaults of ``keys`` into one echoed mapping.

    CLI flag > config file > registry (L, c) > ``PipelineConfig`` default for
    every key. A file's L may also be "auto", as the --L flag may.
    """
    cfg_file = {} if args.config is None else load_json(args.config, "a valid config file")
    unknown = [key for key in cfg_file if key not in keys]
    if unknown:
        raise CliError(f"config file {args.config}: unknown key {', '.join(map(repr, unknown))}; "
                       f"accepted keys: {', '.join(keys)}")
    desc = _descriptor(args.dataset)
    defaults = {f.name: f.default for f in fields(PipelineConfig)}
    defaults.update(L=desc.L_default if desc else None, c=desc.c_default if desc else None)
    resolved = {"dataset": args.dataset}
    for key in keys:
        resolved[key] = defaults[key]
        if key in cfg_file:
            try:
                resolved[key] = _setting(key, cfg_file[key], check_setting)
            except ValueError as exc:
                raise CliError(f"config file {args.config}: {exc}") from None
        if getattr(args, key) is not None:
            resolved[key] = _setting(key, getattr(args, key), parse_setting)
    if resolved["c"] is None:
        raise CliError(f"dataset {args.dataset!r} is unregistered; pass --c")
    return resolved


def _setting(key: str, value, read):
    """``value`` read as the setting ``key`` by ``check_setting`` (a file's value)
    or ``parse_setting`` (a flag's text); L may also be "auto"."""
    return value if key == "L" and value == "auto" else read(key, value)


def _grid(args) -> tuple[int, int]:
    """--step and --L-max, each read as its setting on every run; their joint
    rule is ``check_grid``'s, which only a sweep applies."""
    return parse_setting("step", args.step), parse_setting("L_max", args.L_max)


def _config(resolved: dict, keys: tuple[str, ...], **override) -> PipelineConfig:
    """The ``PipelineConfig`` of a resolved run, with ``override`` taking precedence."""
    return PipelineConfig(**{**{key: resolved[key] for key in keys}, **override})


def _echo(resolved: dict) -> None:
    digest = config_digest(resolved)
    print(f"config: {json.dumps(resolved, sort_keys=True)}")
    print(f"config_digest: {digest}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args) -> int:
    root = _data_root(args)
    train, test = _load_pair(args.dataset, root)
    desc = _descriptor(args.dataset)
    classes = class_index(train.label_pairs())[0]
    summary = {
        "dataset": args.dataset,
        "train_samples": train.n_samples,
        "test_samples": test.n_samples,
        "n_aps": train.n_aps,
        "buildings": len(np.unique(classes[:, 0])),
        "floors": sorted(int(f) for f in np.unique(train.floor)),
        "classes": len(classes),
        "detected_fraction": round(float(np.mean(train.rss != 0.0)), 4),
    }
    if desc is not None:
        expected = (desc.train_size, desc.test_size, desc.n_aps)
        got = (train.n_samples, test.n_samples, train.n_aps)
        summary["matches_registry"] = got == expected
        if got != expected:
            print(
                f"warning: registry expects train/test/aps {expected}, files have {got}",
                file=sys.stderr,
            )
    print(json.dumps(summary, indent=2))
    return 0


def cmd_train(args) -> int:
    resolved = _resolve_run(args, _TRAIN_KEYS)
    step, L_max = _grid(args)
    if resolved["L"] is None:
        raise CliError(f"dataset {args.dataset!r} is unregistered; pass --L")
    if resolved["L"] == "auto":
        check_grid(step, L_max)
    root = _data_root(args)
    train = _load_train(args.dataset, root)
    if resolved["L"] == "auto":
        result = sweep_pipeline(train, _config(resolved, _TRAIN_KEYS, L=L_max), step)
        grid = ", ".join(str(s) for s in result.sizes.tolist())
        print(f"sweep grid: {{{grid}}}")
        print(f"selected L = {result.best_L} (leave-one-out floor hit "
              f"{result.floor_hits.max():.2f}%)")
        resolved["L"] = result.best_L
    _echo(resolved)
    config = _config(resolved, _TRAIN_KEYS)

    t0 = time.perf_counter()
    model = fit_pipeline(train, config, dataset=args.dataset)
    train_s = time.perf_counter() - t0
    out_path = Path(args.out) if args.out else Path(f"{args.dataset}.model.json")
    save_model(model, out_path)
    print(f"train time: {train_s:.3f} s")
    print(f"model written to {out_path}")
    return 0


def _read_queries(path: Path, model) -> RadioMap | np.ndarray:
    """The query file's rows: a RadioMap, labels included, when a manifest maps
    its columns, else the bare RSS matrix. Either may have no rows."""
    manifest_path = path.parent / "manifest.json"
    if manifest_path.exists():
        manifest = load_manifest(manifest_path)
        if manifest.schema.n_aps != model.n_aps:
            raise CliError(
                f"manifest maps {manifest.schema.n_aps} AP columns, "
                f"model expects {model.n_aps}"
            )
        return _read_map(path, manifest.schema, manifest.sentinel, path.stem)

    # No manifest: the file must be exactly the AP columns, UJI-style sentinel.
    def check_width(width):
        if width != model.n_aps:
            raise CliError(
                f"{path} has {width} columns but the model expects {model.n_aps} "
                "AP columns; place a manifest.json next to the file to map columns"
            )

    data = _read_matrix(path, check_width)
    data[data == 100.0] = 0.0
    try:
        return rss_matrix(data, "rss")
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def cmd_predict(args) -> int:
    model = load_model(args.model)
    if args.quantized:  # before the query file is read: an empty one answers no query
        check_quantized(model.elm)
    queries_path = Path(args.queries)
    if not queries_path.exists():
        raise CliError(f"missing file: {queries_path}")
    out_path = Path(args.out) if args.out else queries_path.with_suffix(".predictions.csv")
    queries = _read_queries(queries_path, model)
    labeled = isinstance(queries, RadioMap)
    if len(queries.rss if labeled else queries) == 0:
        out_path.write_text("building,floor\n", encoding="utf-8")
        print(f"0 queries; wrote {out_path}")
        return 0
    buildings, floors = predict_pipeline(queries, model, quantized=args.quantized)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("building,floor\n")
        for b, f in zip(buildings, floors):
            fh.write(f"{int(b)},{int(f)}\n")
    print(f"{len(floors)} predictions written to {out_path}")
    if labeled:
        pred = np.column_stack([buildings, floors])
        truth = queries.label_pairs()
        if queries.has_building:
            print(f"building hit: {hit_rate(pred, truth, 'building'):.2f}%")
        print(f"floor hit: {hit_rate(pred, truth, 'floor'):.2f}%")
    return 0


def cmd_sweep(args) -> int:
    resolved = _resolve_run(args, _SWEEP_KEYS)
    step, L_max = _grid(args)
    check_grid(step, L_max)
    config = _config(resolved, _SWEEP_KEYS, L=L_max)
    resolved.update(L_max=L_max, step=step)  # the grid the sweep fits
    root = _data_root(args)
    train = _load_train(args.dataset, root)
    _echo(resolved)
    result = sweep_pipeline(train, config, step)
    print(f"{'L':>6} {'floor_hit':>10} {'building_hit':>13}")
    for L, fh_, bh in zip(result.sizes, result.floor_hits, result.building_hits):
        marker = "  <- selected" if int(L) == result.best_L else ""
        print(f"{int(L):>6} {fh_:>9.2f}% {bh:>12.2f}%{marker}")
    print(f"selected L = {result.best_L}")
    return 0


def _print_table(rows) -> None:
    """The table of ``rows`` on stdout in UTF-8, as elmloc writes every file, whatever
    the locale's encoding: a dataset's name need not be ASCII."""
    sys.stdout.flush()
    sys.stdout.buffer.write(format_table(rows).encode("utf-8") + b"\n")


def cmd_benchmark(args) -> int:
    root = _data_root(args)
    datasets = args.datasets.split(",")
    approaches = args.approaches.split(",")
    seeds = [parse_setting("seed", seed) for seed in args.seeds.split(",")]
    out_dir = Path(args.out_dir)

    def loader(name):
        return _load_pair(name, root)

    rows, failures = run_benchmark(datasets, approaches, seeds, loader=loader, out_dir=out_dir)
    _print_table(rows)
    for name, err in failures.items():
        print(f"FAILED {name}: {err}", file=sys.stderr)
    print(f"report written to {out_dir}/report.csv and {out_dir}/report.json")
    if len(failures) == len(datasets):
        raise CliError("every requested dataset failed to load")
    return 0


def cmd_report(args) -> int:
    rows, payload = evaluation.read_json(args.json)
    _print_table(rows)
    print(f"config_digest: {payload.get('config_digest', '')}")
    failures = payload.get("failures") or {}
    for name, err in failures.items():
        print(f"FAILED {name}: {err}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    """The flags train and sweep share; train alone adds --L and --quantize."""
    p.add_argument("--dataset", required=True, help=f"one of {', '.join(registry_names())} or a user dataset")
    p.add_argument("--data-root", help=f"dataset root directory (default: ${_DATA_ROOT_ENV} or .)")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--approach")
    p.add_argument("--c", help="regularization term")
    p.add_argument("--seed")
    p.add_argument("--norm-mode")
    p.add_argument("--kernel-size")
    p.add_argument("--n-filters")
    p.add_argument("--L-max", default=500, help="sweep upper bound")
    p.add_argument("--step", default=5, help="sweep grid step")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="elmloc",
        description="Building/floor classification from Wi-Fi RSS fingerprints.",
    )
    parser.add_argument(
        "--error-json",
        action="store_true",
        help="on failure, also print a machine-readable error object to stdout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and describe a dataset's files")
    p.add_argument("--dataset", required=True)
    p.add_argument("--data-root")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="fit a model and write it to JSON")
    _add_common_train_flags(p)
    p.add_argument("--L", help="hidden neurons, or 'auto' to pick them as sweep does")
    p.add_argument("--quantize", action="store_true", default=None,
                   help="attach int8 weights to the model")
    p.add_argument("--out", help="model output path (default <dataset>.model.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify query fingerprints with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--queries", required=True, help="CSV of query fingerprints")
    p.add_argument("--out", help="output CSV (default <queries>.predictions.csv)")
    p.add_argument("--quantized", action="store_true", help="use the int8 weight path")
    p.set_defaults(func=cmd_predict)

    # no abbreviations: --L would otherwise be taken as --L-max
    about = "fit all rows; score each L by exact leave-one-out on a stratified tenth of them"
    p = sub.add_parser("sweep", help=about, description=about, allow_abbrev=False)
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("benchmark", help="run the dataset x approach x seed table")
    p.add_argument("--datasets", required=True, help="comma-separated registered names")
    p.add_argument("--approaches", default=",".join(evaluation.APPROACHES))
    p.add_argument("--seeds", default=",".join(map(str, evaluation.SEEDS)),
                   help="comma-separated integer seeds")
    p.add_argument("--data-root")
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("report", help="render a benchmark JSON report as a table")
    p.add_argument("--json", required=True, help="path to report.json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    # --error-json is read before the command's own flags, so a refusal of
    # those still finds it set
    args = argparse.Namespace(error_json=False)
    try:
        build_parser().parse_args(argv, namespace=args)
        return args.func(args)
    except (CliError, OSError, ParseError, SchemaError, UnknownDatasetError, ValueError) as exc:
        if args.error_json:
            print(json.dumps({"error": str(exc), "type": type(exc).__name__}))
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
