"""Work the benchmark runs in a fresh interpreter.

``setup <kind> [model] [warm-up file]`` times the program's own set-up,
from before its first import to after warm-up, and prints the wall time
with the calibration kernel's time measured right after it. Only the
standard library is loaded before the clock starts. Kinds: ``serve``
(import, ``load_model`` and warm-up predictions), ``train`` (the imports
of the training pipeline) and ``silver`` (the import of silverlabel).

``train <train.jsonl> <valid.jsonl> <model> <heldout.json|-> <spans.json|->``
runs the training pipeline once, the way a training job runs: in a
fresh process, so the token cache starts empty and the first
featurization pass is cold. It prints the pipeline's wall time, the
calibration kernel's times right before, inside (untraced only) and
right after it, and the process's peak memory up to the saved model. Given a held-out file (a
JSON list of texts), it then saves ``forward`` of the in-memory model on
those texts next to the model file, for the caller's reload check.
Given a spans path, the pipeline is traced and its spans are written
there. The served models of the serving workloads are made this way
too, so the serving process's peak memory never includes training.

The caller puts the program's source directory first on PYTHONPATH.
"""

import json
import sys
import time

SAMPLE_EVERY = 0.1  # seconds between kernel samples inside a training run


def setup(kind: str, args: list[str]) -> None:
    t0 = time.perf_counter()
    if kind == "serve":
        from scandilid.model import load_model, predict
        from scandilid.normalize import normalize_text

        model = load_model(args[0])
        with open(args[1], encoding="utf-8") as f:
            for text in json.load(f):
                predict(model, normalize_text(text))
    elif kind == "train":
        import scandilid.augment  # noqa: F401
        import scandilid.ingest  # noqa: F401
        import scandilid.model  # noqa: F401
        import scandilid.normalize  # noqa: F401
    elif kind == "silver":
        import scandilid.silverlabel  # noqa: F401
    else:
        raise SystemExit(f"unknown set-up kind {kind!r}")
    wall = time.perf_counter() - t0

    import statistics

    from calib import time_kernel

    kernel = statistics.median(time_kernel() for _ in range(3))
    print(json.dumps({"wall": wall, "kernel": kernel}))


def train(args: list[str]) -> None:
    import resource
    from contextlib import nullcontext
    from pathlib import Path

    import numpy as np

    from calib import Sampler, time_kernel
    from scandilid.model import forward
    from tracing import Tracer
    from workloads import count_train_grams, train_pipeline

    train_path, valid_path, model_path, heldout_path, spans_path = args
    tracer = Tracer() if spans_path != "-" else None
    # Untraced, the kernel also runs inside the pipeline (see calib.Sampler)
    # and its time is taken out of the wall time; traced, it does not, so
    # that spans hold the program's time alone.
    sampler = Sampler(SAMPLE_EVERY)
    time_kernel()  # the first call in a process pays one-off costs
    k0 = time_kernel()
    t0 = time.perf_counter()
    with sampler if tracer is None else nullcontext():
        result, train_set = train_pipeline(Path(train_path), Path(valid_path), Path(model_path), tracer)
    wall = time.perf_counter() - t0 - sum(sampler.samples)
    k1 = time_kernel()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if heldout_path != "-":
        with open(heldout_path, encoding="utf-8") as f:
            texts = json.load(f)
        np.save(model_path + ".forward.npy", np.stack([forward(result.model, t) for t in texts]))
    if tracer is not None:
        count_train_grams(tracer, train_set)
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps({"wall": wall, "kernels": [k0, *sampler.samples, k1], "peak_rss_mb": peak_mb}))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3:])
    elif sys.argv[1] == "train":
        train(sys.argv[2:])
    else:
        raise SystemExit(f"unknown command {sys.argv[1]!r}")
