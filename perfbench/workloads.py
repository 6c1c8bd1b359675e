"""The four workloads, their checks and the traced layer probes.

Each workload makes its inputs from the seed with ``corpus``, drives the
program only through its public functions, scales every timed unit to
reference speed with ``calib``, and checks every output against
``reference`` or against a property the method must have.
"""

from __future__ import annotations

import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus
import reference
from calib import KERNEL_REFERENCE_S, Calibrated, scale
from fake_translator import keeps_text, translate
from scandilid.augment import PunctConfig, punctuation_augment
from scandilid.core import SCANDINAVIAN, Dataset, LabeledSentence, LabelSet
from scandilid.features import FeaturizerConfig, featurize
from scandilid.ingest import read_dataset
from scandilid.model import TrainConfig, forward, load_model, predict, save_model, train
from scandilid.normalize import normalize_text
from scandilid.silverlabel import extend_labels, generate_translations, translate_command
from tracing import Tracer

HERE = Path(__file__).resolve().parent

# The default featurizer at embed_dim 8, trained for 8 epochs: at the
# default width of 32, training on this corpus stays on its base-rate
# plateau for most of six epochs, and at width 8 six epochs left one
# seed of 27 short of the held-out floor below.
FEATURIZER = FeaturizerConfig(embed_dim=8)
TRAINING = TrainConfig(epochs=8, eval_interval=50)
PUNCT = PunctConfig(seed=7)
N_TRAIN, N_VALID, N_HELDOUT = 3000, 600, 1000
EXACT_MATCH_FLOOR = 0.85  # held-out exact match on 27 seeds tried: 0.927 to 0.962
ORDER = corpus.LANGS  # output order of the model format: da, nb, nn, sv

SETUP_REPEATS = 21
WARMUP_SENTENCES = 50
SERVE_CHUNK = 200  # sentences per timed unit on serve-zipf
TAG_CHUNK = 40  # sentences per timed unit on tag-longtail
FILL_TOKENS = 280_000  # > 2**18, the token cache's capacity
FILL_WORDS_PER_CALL = 10  # sentence-sized calls, so the fill's own arrays stay small
FORWARD_CHECKS_PER_CHUNK = 4
PROBE_SENTENCES = 300
PROBE_TRANSLATIONS = 12
RECORDS_PER_UNIT = 14  # translations a silver unit asks for; see silver_units


@dataclass
class Run:
    workload: str
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    tracer: Tracer = field(default_factory=Tracer)
    cal: Calibrated = field(default_factory=Calibrated)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)

    def fail(self, count: int, error: Exception) -> None:
        """Count failed operations; they do not make the run incorrect."""
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(f"{type(error).__name__}: {error}")

    @contextmanager
    def checking(self):
        """A check that raises fails the run's correctness, like one that
        finds a wrong output."""
        try:
            yield
        except Exception as e:
            self.check(False, f"{type(e).__name__} while checking: {e}")

    def span(self, name: str, traced: bool = True, **counts):
        return self.tracer.span(name, **counts) if self.trace and traced else nullcontext(counts)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def timing_loop(self):
        """Yield unit indices until the run's seconds are spent: at least
        two, and three when tracing (odd units traced, unit 0 left out of
        the overhead because it may find caches cold)."""
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < 2 + self.trace or time.perf_counter() < deadline:
            yield i
            i += 1


def timed(run: Run, fn):
    """Run one unit between two kernel timings; return (result, wall, scaled)."""
    k0 = run.cal.tick()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    k1 = run.cal.tick()
    return out, wall, scale(wall, k0, k1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_kernel(run: Run) -> None:
    med, q1, q3 = run.cal.spread()
    run.info.append(f"calibration kernel: median {med * 1e3:.3f} ms, quartiles {q1 * 1e3:.3f}-{q3 * 1e3:.3f} ms "
                    f"over {len(run.cal.kernels)} timings (reference {KERNEL_REFERENCE_S * 1e3:.3f} ms)")


def overhead(run: Run, traced: list[float], untraced: list[float]) -> None:
    """trace.overhead_pct from per-operation scaled times of alternating units."""
    pct = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    run.metric("trace.overhead_pct", pct, "%")


# ----------------------------------------------------------------------
# Inputs and children


def write_training_files(run: Run) -> tuple[Path, Path]:
    source = corpus.SentenceSource(run.seed, "train")
    train_path, valid_path = run.work / "train.jsonl", run.work / "valid.jsonl"
    corpus.write_jsonl(source.take(N_TRAIN), train_path)
    corpus.write_jsonl(source.take(N_VALID), valid_path)
    return train_path, valid_path


def child_env(run: Run) -> dict[str, str]:
    paths = [str(run.root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def run_child(run: Run, *args: str) -> str:
    done = subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=child_env(run),
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed: {done.stderr.strip()[-2000:]}")
    return done.stdout


def measure_setup(run: Run, kind: str, *args: str) -> None:
    """setup_s: median over fresh processes of the program's set-up time."""
    if run.trace:
        return
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = json.loads(run_child(run, "setup", kind, *args).strip().splitlines()[-1])
        walls.append(out["wall"])
        scaled.append(scale(out["wall"], out["kernel"], out["kernel"]))
    run.metric("setup_s", statistics.median(scaled), "s")
    run.info.append(f"setup_s: {statistics.median(scaled):.4f} s scaled, {statistics.median(walls):.4f} s raw "
                    f"(median of {SETUP_REPEATS} processes)")


def train_child(run: Run, train_path: Path, valid_path: Path, model_path: Path,
                heldout_path: Path | None, traced: bool) -> dict:
    """One run of the training pipeline in a fresh process (see child.py);
    adopt its spans when traced."""
    spans_path = run.work / "train-spans.json"
    out = json.loads(run_child(run, "train", str(train_path), str(valid_path), str(model_path),
                               str(heldout_path) if heldout_path else "-",
                               str(spans_path) if traced else "-").strip().splitlines()[-1])
    if traced:
        run.tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8")))
    return out


def prepare_model(run: Run) -> Path:
    """Train the served model in a child process."""
    train_path, valid_path = write_training_files(run)
    model_path = run.work / "served.bin"
    train_child(run, train_path, valid_path, model_path, None, run.trace)
    return model_path


# ----------------------------------------------------------------------
# The training pipeline (the `train` workload's unit, and how served
# models are made)


def normalized(dataset: Dataset) -> Dataset:
    return dataset.with_items([LabeledSentence(normalize_text(item.text), item.labels, item.source)
                               for item in dataset])


def train_pipeline(train_path: Path, valid_path: Path, model_path: Path, tracer: Tracer | None):
    """JSONL file to saved model: read_dataset, punctuation_augment,
    normalize_text, train, save_model."""
    span = tracer.span if tracer is not None else (lambda name, **c: nullcontext(c))
    with span("train_pipeline"):
        return _train_pipeline(span, train_path, valid_path, model_path)


def _train_pipeline(span, train_path: Path, valid_path: Path, model_path: Path):
    with span("ingest.read_dataset") as s:
        train_set = read_dataset(train_path, split="train")
        valid_set = read_dataset(valid_path, split="validation")
        s["records"] = len(train_set) + len(valid_set)
    with span("augment.punctuation_augment", records=len(train_set)):
        train_set = punctuation_augment(train_set, PUNCT)
    with span("normalize.normalize_text", calls=len(train_set) + len(valid_set)):
        train_set, valid_set = normalized(train_set), normalized(valid_set)
    with span("model.train") as s:
        result = train(train_set, valid_set, FEATURIZER, TRAINING)
    s.update(steps=result.history[-1].step, epochs=len(result.epoch_losses), valid_exact_match=result.best_metric)
    with span("model.save_model") as s:
        save_model(result.model, model_path)
    s["bytes"] = model_path.stat().st_size
    return result, train_set


def count_train_grams(tracer: Tracer, train_set: Dataset) -> None:
    """Grams the last traced training run consumed, by the reference
    featurizer, and how many of its training tokens repeat an earlier one."""
    ids, _ = reference.gram_ids([item.text for item in train_set], FEATURIZER)
    span = tracer.named("model.train")[-1]
    span["grams"] = span["epochs"] * len(ids)
    seen: set[str] = set()
    span["tokens"] = span["repeated_tokens"] = 0
    for item in train_set:
        for tok in item.text.split():
            span["repeated_tokens"] += tok in seen
            span["tokens"] += 1
            seen.add(tok)


# ----------------------------------------------------------------------
# Serving checks


def check_served(run: Run, model, chunk: list[corpus.Sentence], normals: list, outputs: list) -> None:
    """normalize_text against the generator's text; predict against the
    thresholded reference; forward against the reference for a few."""
    probs = reference.probabilities(model, [s.normalized for s in chunk])
    for s, norm, labels, p in zip(chunk, normals, outputs, probs):
        if labels is None:
            continue
        tags = labels.tags()
        run.check(norm == s.normalized, f"normalize_text({s.text!r}) gave {norm!r}, want {s.normalized!r}")
        run.check(reference.label_set_ok(tags), f"bad label set {tags} for {s.text!r}")
        run.check(reference.decoded_matches(tags, p, model.threshold, ORDER),
                  f"predict({s.normalized!r}) gave {tags}, reference probabilities {p}")
    for s, p in list(zip(chunk, probs))[:FORWARD_CHECKS_PER_CHUNK]:
        got = forward(model, s.normalized)
        run.check(bool(np.abs(got - p).max() <= reference.FORWARD_TOLERANCE),
                  f"forward({s.normalized!r}) = {got}, reference {p}")


def answer(run: Run, model, chunk: list[corpus.Sentence], traced: bool):
    """normalize_text then predict, one sentence at a time. Returns the
    normalised texts, the label sets and a clock reading before the first
    sentence and after each one."""
    normals, outputs = [], []
    stamps = [time.perf_counter()]
    for s in chunk:
        try:
            if traced:
                with run.tracer.span("normalize.normalize_text", calls=1):
                    norm = normalize_text(s.text)
                with run.tracer.span("model.predict", calls=1):
                    labels = predict(model, norm)
            else:
                norm = normalize_text(s.text)
                labels = predict(model, norm)
        except Exception as e:  # a failed operation is counted, not fatal
            run.fail(1, e)
            norm, labels = None, None
        stamps.append(time.perf_counter())
        normals.append(norm)
        outputs.append(labels)
    return normals, outputs, stamps


def serve(run: Run, longtail: bool) -> None:
    model_path = prepare_model(run)
    warm = corpus.SentenceSource(run.seed, "warmup").take(WARMUP_SENTENCES)
    warm_path = run.work / "warmup.json"
    warm_path.write_text(json.dumps([s.text for s in warm], ensure_ascii=False), encoding="utf-8")
    measure_setup(run, "serve", str(model_path), str(warm_path))

    with run.span("model.load_model"):
        model = load_model(model_path)
    for s in warm:
        predict(model, normalize_text(s.text))
    source = corpus.SentenceSource(run.seed, "longtail" if longtail else "serve", longtail=longtail)
    chunk_size = TAG_CHUNK if longtail else SERVE_CHUNK
    # Tokens featurized before the timed units; the long-tail fill is left
    # out because its words never recur.
    seen: set[str] = {tok for s in warm for tok in s.normalized.split()}
    # Fill the token cache before timing, so the timed units see its
    # steady state: on serve-zipf it holds the whole vocabulary; on
    # tag-longtail it is full, past its capacity, of words that never recur.
    if longtail:
        tokens = 0
        while tokens < FILL_TOKENS:
            for s in source.take(chunk_size):
                featurize(s.normalized, model.featurizer)
                tokens += len(s.normalized.split())
    else:
        vocabulary = [w for words, _ in corpus.zipf_vocabularies(run.seed).values() for w in words]
        vocabulary.append(corpus.NUM_TOKEN)
        for start in range(0, len(vocabulary), FILL_WORDS_PER_CALL):
            featurize(" ".join(vocabulary[start : start + FILL_WORDS_PER_CALL]), model.featurizer)
        seen.update(vocabulary)
        tokens = len(vocabulary)
    run.info.append(f"cache fill: featurize on {tokens} distinct tokens before timing")

    rates, raw_rates, latencies, traced_t, untraced_t = [], [], [], [], []
    repeated = total_tokens = 0
    for i in run.timing_loop():
        chunk = source.take(chunk_size)
        traced = run.trace and i % 2 == 1

        def unit():
            with run.span("unit", traced, sentences=len(chunk)):
                return answer(run, model, chunk, traced)

        (normals, outputs, stamps), wall, scaled = timed(run, unit)
        with run.checking():
            check_served(run, model, chunk, normals, outputs)
        run.attempted += len(chunk)
        if i:
            (traced_t if traced else untraced_t).append(scaled / len(chunk))
        if not traced:
            rates.append(len(chunk) / scaled)
            raw_rates.append(len(chunk) / wall)
            latencies.append(np.diff(stamps) * (scaled / wall))
        if run.trace:
            for s in chunk:
                for tok in s.normalized.split():
                    repeated += tok in seen
                    total_tokens += 1
                    seen.add(tok)

    latency = np.concatenate(latencies)
    q = 99.0 if len(latency) >= 1000 else 100.0 * (1.0 - 10.0 / len(latency))
    median_us, tail_us = np.percentile(latency, [50.0, q]) * 1e6
    run.info.append(f"sentences_per_s: {statistics.median(rates):.1f} 1/s scaled, {statistics.median(raw_rates):.1f} "
                    f"1/s raw (median of {len(rates)} units of {chunk_size} sentences)")
    run.info.append(f"latency_p{q:g}_us: {tail_us:.1f} us scaled (median {median_us:.1f} us; "
                    f"{len(latency)} samples, {int(len(latency) * (1 - q / 100))} beyond)")
    if run.trace:
        overhead(run, traced_t, untraced_t)
        run.metric("input.repeated_token_share", repeated / max(total_tokens, 1), "ratio")
        serving_probe(run, model_path, source if longtail else None)
        silver_probe(run)
    else:
        run.metric("sentences_per_s", statistics.median(rates), "1/s")


# ----------------------------------------------------------------------
# Training


def train_workload(run: Run) -> None:
    train_path, valid_path = write_training_files(run)
    heldout = corpus.SentenceSource(run.seed, "heldout").take(N_HELDOUT)
    heldout_path = run.work / "heldout.json"
    heldout_path.write_text(json.dumps([s.normalized for s in heldout], ensure_ascii=False), encoding="utf-8")
    measure_setup(run, "train")
    model_path = run.work / "trained.bin"
    n_sentences = N_TRAIN + N_VALID
    times, raw, peaks, traced_t, untraced_t, sizes, exacts = [], [], [], [], [], [], []
    for i in run.timing_loop():
        traced = run.trace and i % 2 == 1
        run.attempted += 1
        try:
            out = train_child(run, train_path, valid_path, model_path, heldout_path, traced)
        except Exception as e:
            run.fail(1, e)
            continue
        run.cal.kernels += out["kernels"]
        kernel = statistics.fmean(out["kernels"])
        scaled = scale(out["wall"], kernel, kernel)
        if i:  # raw: traced units run without the in-run kernel samples
            (traced_t if traced else untraced_t).append(out["wall"])
        if not traced:
            times.append(scaled)
            raw.append(out["wall"])
            peaks.append(out["peak_rss_mb"])
        with run.checking():
            size, exact = check_trained(run, model_path, heldout)
            sizes.append(size)
            exacts.append(exact)

    if not times:
        raise RuntimeError("no training run completed: " + "; ".join(run.errors[:3]))
    run.info.append(f"train_s: {statistics.median(times):.4f} s scaled, {statistics.median(raw):.4f} s raw "
                    f"(median of {len(times)} training runs of {N_TRAIN}+{N_VALID} sentences, "
                    f"each in a fresh process)")
    if sizes:
        run.info.append(f"model_bytes: {sizes[-1]} B")
        run.info.append(f"held-out exact match: {min(exacts):.3f} lowest over {len(exacts)} runs "
                        f"(floor {EXACT_MATCH_FLOOR}, {N_HELDOUT} sentences)")
    if run.trace:
        overhead(run, traced_t, untraced_t)
        spans = run.tracer.named("model.train")
        run.metric("input.repeated_token_share",
                   sum(s["repeated_tokens"] for s in spans) / sum(s["tokens"] for s in spans), "ratio")
        serving_probe(run, model_path, None)
        silver_probe(run)
    else:
        run.metric("sentences_per_s", n_sentences / statistics.median(times), "1/s")
        run.metric("peak_rss_mb", statistics.median(peaks), "MB")


def check_trained(run: Run, model_path: Path, heldout: list[corpus.Sentence]) -> tuple[int, float]:
    """Size formula, bit-identical reload against the training process's
    own forward outputs, held-out exact match floor."""
    data = model_path.read_bytes()
    header_len = int.from_bytes(data[6:10], "little")
    want = reference.model_file_bytes(FEATURIZER, header_len)
    run.check(len(data) == want, f"model file is {len(data)} B, formula gives {want} B")
    trained = np.load(str(model_path) + ".forward.npy")
    loaded = load_model(model_path)
    hits = 0
    for s, before in zip(heldout, trained, strict=True):
        run.check(np.array_equal(forward(loaded, s.normalized), before),
                  f"reloaded model differs on {s.normalized!r}")
        tags = predict(loaded, s.normalized).tags()
        run.check(reference.label_set_ok(tags), f"bad label set {tags}")
        hits += tags == s.labels
    exact = hits / len(heldout)
    run.check(exact >= EXACT_MATCH_FLOOR, f"held-out exact match {exact:.3f} < floor {EXACT_MATCH_FLOOR}")
    return len(data), exact


# ----------------------------------------------------------------------
# Silver labelling


def translator_command() -> str:
    # -S -I: the fake translator needs only sys, so skip site setup.
    return shlex.join([sys.executable, "-S", "-I", str(HERE / "fake_translator.py")])


def silver_units(seed: int, count: int) -> list[list[LabeledSentence]]:
    """Units of six items: one `other`, one mixed, four single-language,
    so every unit asks for the same number of translations (0 + 2 + 4*3)."""
    source = corpus.SentenceSource(seed, "silver")
    units = []
    for _ in range(count):
        want = {"other": 1, "mixed": 1, "single": 4}
        unit = []
        while len(unit) < 6:
            s = source.next()
            kind = "other" if s.labels == ("other",) else "mixed" if len(s.labels) > 1 else "single"
            if want[kind]:
                want[kind] -= 1
                unit.append(LabeledSentence(s.text, LabelSet.of(*s.labels)))
        units.append(unit)
    return units


def silver_unit(run: Run, items: list[LabeledSentence], traced: bool):
    dataset = Dataset("unsplit", tuple(items))
    command = translator_command()

    def work():
        with run.span("unit", traced, sentences=len(items)):
            with run.span("silverlabel.generate_translations", traced) as s:
                records, failures = generate_translations(dataset, SCANDINAVIAN, command)
                s.update(records=len(records), invocations=len(records) + failures)
            with run.span("silverlabel.extend_labels", traced) as s:
                extended, summary = extend_labels(dataset, records)
                s.update(records=summary.records_seen, matches=summary.matches)
        return records, failures, extended, summary

    return timed(run, work)


def check_silver(run: Run, items, records, failures: int, extended, summary) -> None:
    """Records, labels and summary against the translator's rule."""
    run.failed += failures
    want_records = [(i, t.value, translate(t.value, item.text))
                    for i, item in enumerate(items) if not item.labels.is_other
                    for t in SCANDINAVIAN if t not in item.labels]
    got_records = [(r.item_index, r.target.value, r.translation) for r in records]
    run.check(got_records == want_records, f"translation records differ: {got_records[:3]} vs {want_records[:3]}")
    added = {t.value: 0 for t in SCANDINAVIAN}
    for i, item in enumerate(items):
        labels = set(item.labels.tags())
        if not item.labels.is_other:
            for t in SCANDINAVIAN:
                if t.value not in labels and keeps_text(t.value, item.text):
                    labels.add(t.value)
                    added[t.value] += 1
        got = extended[i]
        run.check(got.text == item.text, f"extend_labels changed text {item.text!r}")
        run.check(set(got.labels.tags()) == labels, f"labels {got.labels.tags()} for {item.text!r}, want {labels}")
        run.check(reference.label_set_ok(got.labels.tags()), f"bad label set {got.labels.tags()}")
    matches = sum(keeps_text(t, items[i].text) for i, t, _ in want_records)
    run.check(summary.records_seen == len(want_records) and summary.matches == matches
              and summary.skipped_other == 0 and summary.to_dict()["added"] == added,
              f"ExtendSummary {summary.to_dict()} (want {len(want_records)} records, {matches} matches, added {added})")


def silver(run: Run) -> None:
    measure_setup(run, "silver")
    units = silver_units(run.seed, 512)
    rates, raw_rates, record_rates, traced_t, untraced_t = [], [], [], [], []
    seen: set[str] = set()
    repeated = total_tokens = 0
    for i in run.timing_loop():
        items = units[i % len(units)]
        traced = run.trace and i % 2 == 1
        run.attempted += RECORDS_PER_UNIT
        try:
            (records, failures, extended, summary), wall, scaled = silver_unit(run, items, traced)
        except Exception as e:
            run.fail(RECORDS_PER_UNIT, e)
            continue
        with run.checking():
            check_silver(run, items, records, failures, extended, summary)
        if i:
            (traced_t if traced else untraced_t).append(scaled)
        if not traced:
            rates.append(len(items) / scaled)
            raw_rates.append(len(items) / wall)
            record_rates.append(len(records) / scaled)
        if run.trace:
            for item in items:
                for tok in normalize_text(item.text).split():
                    repeated += tok in seen
                    total_tokens += 1
                    seen.add(tok)

    run.info.append(f"sentences_per_s: {statistics.median(rates):.2f} 1/s scaled, {statistics.median(raw_rates):.2f} "
                    f"1/s raw (median of {len(rates)} units of 6 sentences)")
    run.info.append(f"records_per_s: {statistics.median(record_rates):.2f} 1/s scaled "
                    f"({RECORDS_PER_UNIT} translation records per unit)")
    if run.trace:
        overhead(run, traced_t, untraced_t)
        run.metric("input.repeated_token_share", repeated / max(total_tokens, 1), "ratio")
        model_path = prepare_model(run)
        serving_probe(run, model_path, None)
        translate_probe(run, units[0])
    else:
        run.metric("sentences_per_s", statistics.median(rates), "1/s")


# ----------------------------------------------------------------------
# Layer probes (traced runs only)


def serving_probe(run: Run, model_path: Path, fresh: corpus.SentenceSource | None) -> None:
    """Per-call layer times on sentences of words new to the process:
    featurize cold, then featurize warm, forward and predict on the same
    text once its embedding rows are in cache."""
    for _ in range(3):
        with run.span("model.load_model"):
            model = load_model(model_path)
    fresh = fresh or corpus.SentenceSource(run.seed, "probe", longtail=True)
    chunk = fresh.take(PROBE_SENTENCES)
    normals, outputs = [], []
    for s in chunk:
        with run.span("normalize.normalize_text", calls=1):
            norm = normalize_text(s.text)
        with run.span("probe.featurize.cold", calls=1):
            featurize(norm, model.featurizer)
        forward(model, norm)  # brings the text's embedding rows into cache
        with run.span("probe.featurize.warm", calls=1):
            featurize(norm, model.featurizer)
        with run.span("probe.forward", calls=1):
            forward(model, norm)
        with run.span("probe.predict", calls=1):
            labels = predict(model, norm)
        normals.append(norm)
        outputs.append(labels)
    check_served(run, model, chunk, normals, outputs)


def silver_probe(run: Run) -> None:
    units = silver_units(run.seed, 1)
    (records, failures, extended, summary), _, _ = silver_unit(run, units[0], True)
    check_silver(run, units[0], records, failures, extended, summary)
    translate_probe(run, units[0])


def translate_probe(run: Run, items: list[LabeledSentence]) -> None:
    command = translator_command()
    for k in range(PROBE_TRANSLATIONS):
        item = items[1 + k % 5]  # skip the `other` item
        target = SCANDINAVIAN[k % 4]
        with run.span("silverlabel.translate_command", calls=1):
            got = translate_command(command, target, item.text)
        run.check(got == translate(target.value, item.text), f"translate_command gave {got!r}")


def layer_metrics(run: Run) -> None:
    """Per-layer metrics from the run's spans."""
    t = run.tracer

    def per_call(name: str) -> float:
        spans = t.named(name)
        return sum(s["end"] - s["start"] for s in spans) / sum(s["calls"] for s in spans)

    def per_s(name: str, count: str) -> float:
        spans = t.named(name)
        return sum(s[count] for s in spans) / sum(s["end"] - s["start"] for s in spans)

    def total(name: str, count: str) -> float:
        return sum(s[count] for s in t.named(name))

    run.metric("normalize.normalize_text.us", per_call("normalize.normalize_text") * 1e6, "us")
    cold, warm = per_call("probe.featurize.cold"), per_call("probe.featurize.warm")
    fwd, pred = per_call("probe.forward"), per_call("probe.predict")
    run.metric("features.featurize.cold_us", cold * 1e6, "us")
    run.metric("features.featurize.warm_us", warm * 1e6, "us")
    run.metric("model.pool_head.us", (fwd - warm) * 1e6, "us")
    run.metric("model.decode.us", (pred - fwd) * 1e6, "us")
    run.metric("model.load_model.s", t.median_s("model.load_model"), "s")
    run.metric("model.save_model.s", t.median_s("model.save_model"), "s")
    run.metric("model.save_model.bytes", t.named("model.save_model")[-1]["bytes"], "B")
    run.metric("model.train.steps_per_s", per_s("model.train", "steps"), "1/s")
    run.metric("model.train.grams_per_s", per_s("model.train", "grams"), "1/s")
    run.metric("model.train.valid_exact_match", t.named("model.train")[-1]["valid_exact_match"], "ratio")
    run.metric("ingest.read_dataset.records_per_s", per_s("ingest.read_dataset", "records"), "1/s")
    run.metric("augment.punctuation_augment.records_per_s", per_s("augment.punctuation_augment", "records"), "1/s")
    run.metric("silverlabel.translate_command.ms", per_call("silverlabel.translate_command") * 1e3, "ms")
    run.metric("silverlabel.generate_translations.records_per_s",
               per_s("silverlabel.generate_translations", "records"), "1/s")
    run.metric("silverlabel.extend_labels.records_per_s", per_s("silverlabel.extend_labels", "records"), "1/s")
    run.metric("silverlabel.match_ratio",
               total("silverlabel.extend_labels", "matches") / total("silverlabel.extend_labels", "records"), "ratio")


WORKLOADS = {
    "serve-zipf": lambda run: serve(run, longtail=False),
    "tag-longtail": lambda run: serve(run, longtail=True),
    "train": train_workload,
    "silver": silver,
}


def execute(run: Run) -> None:
    reference.check_fnv_vectors()
    WORKLOADS[run.workload](run)
    if run.trace:
        layer_metrics(run)
    elif "peak_rss_mb" not in run.metrics:  # train reports its training processes' peak
        run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    report_kernel(run)
    run.info.append(f"operations: {run.attempted} attempted, {run.failed} failed")
