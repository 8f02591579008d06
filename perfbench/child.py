"""Processes that perfbench/run.py starts, one per mode.

    child.py cli   --stats-out F [--trace spans|mem] -- <elmloc CLI arguments>
    child.py serve --model M --data D --seconds S --offset K --out O --stats-out F [--trace ...]
    child.py eval  --model M --data D --seconds S --out O --stats-out F [--trace ...]
    child.py serve|eval --model M --data D --setup-only --stats-out F

``cli`` runs ``elmloc.cli.main`` as ``python -m elmloc.cli`` would. ``serve``
and ``eval`` set up, print ``READY <seconds>`` once they can answer (so the
parent can time set-up from process start; the seconds are the time the
process spent reading the benchmark's own ``--data`` file, which the parent
takes out of the set-up time), then run operations back to back for
``--seconds`` and write their latencies and answers to ``--out``. With
``--setup-only`` they exit right after ``READY``.

Every mode writes ``--stats-out``: the process's own peak RSS and, with
``--trace``, its span tables (perfbench/spans.py; ``mem`` adds tracemalloc
peaks). The peak is read from VmHWM because ``ru_maxrss`` of a child also
counts the parent's memory at the time it was spawned. Each process needs
``src`` on its ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def _peak_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _tracer(args) -> Tracer | None:
    return Tracer(mem=args.trace == "mem") if args.trace else None


def _finish(tracer: Tracer | None, args) -> None:
    stats = {"peak_mb": _peak_mb(), "trace": None if tracer is None else tracer.dump()}
    Path(args.stats_out).write_text(json.dumps(stats))


def _ready(data_s: float, tracer: Tracer | None, args) -> bool:
    """Report readiness and the data-file read time; True when the process should exit now."""
    print(f"READY {data_s!r}", flush=True)
    if args.setup_only:
        _finish(tracer, args)
    return args.setup_only


def run_cli(args, argv: list[str]) -> int:
    tracer = _tracer(args)
    if tracer is None:
        import elmloc.cli
    else:
        tracer.phase = "op"  # the whole process is the operation, import included
        with tracer.span("import.elmloc"):
            import elmloc.cli
        tracer.install()
    rc = elmloc.cli.main(argv)
    _finish(tracer, args)
    return rc


def run_serve(args) -> int:
    """Single-fingerprint queries through predict_pipeline(..., quantized=True)."""
    tracer = _tracer(args)
    if tracer is not None:
        with tracer.span("import.elmloc"):
            import elmloc.pipeline
        tracer.install()
    import numpy as np

    import elmloc.pipeline as pipeline

    model = pipeline.load_model(args.model)
    t0 = time.perf_counter()
    with np.load(args.data) as data:
        rss, stream = data["test_rss"], data["stream"]
    data_s = time.perf_counter() - t0
    pipeline.predict_pipeline(rss[stream[0] : stream[0] + 1], model, quantized=True)
    if _ready(data_s, tracer, args):
        return 0

    if tracer is not None:
        tracer.phase = "op"
    latency_ns, rows, answers = [], [], []
    clock = time.perf_counter_ns
    deadline = clock() + int(args.seconds * 1e9)
    i = args.offset
    loop_start = clock()
    while not latency_ns or clock() < deadline:
        q = int(stream[i % stream.shape[0]])
        t0 = clock()
        b, f = pipeline.predict_pipeline(rss[q : q + 1], model, quantized=True)
        latency_ns.append(clock() - t0)
        rows.append(q)
        answers.append((int(b[0]), int(f[0])))
        i += 1
    np.savez(
        args.out,
        latency_s=np.asarray(latency_ns, dtype=np.float64) / 1e9,
        rows=np.asarray(rows),
        answers=np.asarray(answers),
        loop_s=(clock() - loop_start) / 1e9,
    )
    _finish(tracer, args)
    return 0


def run_eval(args) -> int:
    """The test split scored from raw RSS by 1-NN over the map and by the float ELM."""
    tracer = _tracer(args)
    if tracer is not None:
        with tracer.span("import.elmloc"):
            import elmloc.pipeline
        tracer.install()
    import numpy as np

    import elmloc.knn as knn
    import elmloc.pipeline as pipeline
    import elmloc.preprocess as preprocess

    model = pipeline.load_model(args.model)
    t0 = time.perf_counter()
    with np.load(args.data) as data:
        train_rss, train_pairs, test = data["train_rss"], data["train_pairs"], data["test_rss"]
    data_s = time.perf_counter() - t0
    x_map = preprocess.apply_preprocess(train_rss, model.preprocess)
    del train_rss
    index = knn.build_index(x_map, train_pairs)
    knn.classify_all(preprocess.apply_preprocess(test[:1], model.preprocess), index)
    pipeline.predict_pipeline(test[:1], model)
    if _ready(data_s, tracer, args):
        return 0

    if tracer is not None:
        tracer.phase = "op"
    knn_s, elm_s, same = [], [], []
    first = None
    clock = time.perf_counter
    deadline = clock() + args.seconds
    while not knn_s or clock() < deadline:
        t0 = clock()
        kb, kf = knn.classify_all(preprocess.apply_preprocess(test, model.preprocess), index)
        t1 = clock()
        eb, ef = pipeline.predict_pipeline(test, model)
        t2 = clock()
        knn_s.append(t1 - t0)
        elm_s.append(t2 - t1)
        answers = np.stack([kb, kf, eb, ef])
        if first is None:
            first = answers
        same.append(bool(np.array_equal(answers, first)))
    np.savez(
        args.out,
        knn_s=np.asarray(knn_s),
        elm_s=np.asarray(elm_s),
        same_as_first=np.asarray(same),
        first_answers=first,
    )
    _finish(tracer, args)
    return 0


def main(argv: list[str]) -> int:
    cli_args: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_args = argv[:cut], argv[cut + 1 :]
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["cli", "serve", "eval"])
    parser.add_argument("--model")
    parser.add_argument("--data")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--offset", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace", choices=["spans", "mem"])
    args = parser.parse_args(argv)
    if args.mode == "cli":
        return run_cli(args, cli_args)
    if args.mode == "serve":
        return run_serve(args)
    return run_eval(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
