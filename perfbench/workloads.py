"""The three benchmark workloads.

Each workload generates its inputs from the benchmark seed with
``rvqtok.synth`` and NumPy before anything is timed, names the CLI
commands one closed-loop pass runs, checks every pass's outputs
against in-process references, and adds the probes the traced run
reports beside its spans.

- ``encode-long``: long-audio inference (mel, encode, decode) with the
  default 8192/4096/2048/1024x5 stack. Layer-0 distances and the
  float64 (T, K) temporaries dominate; streams, datapipe and scorers
  are idle.
- ``train-steps``: 200 small training steps with Gumbel selection,
  dropout and restarts. The same cascade runs at small T and K with a
  codebook write every step; mel and the K=8192 layer are idle.
- ``pack-eval``: the token side (ATK1 read, stream assembly, masks,
  JSON, the stdio scorer protocol); rvq and mel are idle.
"""

from __future__ import annotations

import json
import shlex
import struct
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from rvqtok import cli
from rvqtok import fileformats as ff
from rvqtok import scorers
from rvqtok.datapipe import corpus_stats
from rvqtok.mel import FeatureSequence, compute_mel, stack_frames
from rvqtok.metrics import accuracy, codebook_utilization
from rvqtok.rvq import (
    DEFAULT_LAYER_SIZES,
    INACTIVE,
    DropoutConfig,
    GumbelConfig,
    RvqStack,
    TrainingSchedule,
    decode_frames,
    ema_update,
    encode_frames,
    init_rvq_stack,
    mean_commitment_loss,
    quantize_batch,
    restart_dead_entries,
    vq_replacement_gate,
)
from rvqtok.seeding import derive_seed, make_rng
from rvqtok.streams import deserialize, serialize
from rvqtok.synth import make_bigram_world, make_feature_corpus, make_sine_noise_audio

FRAME_RATE = 12.5  # stacked vectors per second of audio


class Ops:
    """Counts attempted operations (CLI commands, output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def atk1_bytes(indices: np.ndarray, layer_sizes) -> bytes:
    """ATK1 bytes for a (T, L) index array, written from the format spec."""
    sizes = tuple(int(k) for k in layer_sizes)
    return (
        struct.pack("<4sI", b"ATK1", len(sizes))
        + struct.pack(f"<{len(sizes)}I", *sizes)
        + struct.pack("<I", indices.shape[0])
        + np.ascontiguousarray(indices, dtype="<u4").tobytes()
    )


def dist_counts(rows_and_sizes, dim: int) -> dict[str, float]:
    """Computed distance-kernel work: sum of 2*T*K*D and the largest T*K*8 B."""
    pairs = list(rows_and_sizes)
    return {
        "rvq.dist_gflop.computed": sum(2.0 * t * k * dim for t, k in pairs) / 1e9,
        "rvq.dist_temp_mb_max.computed": max(t * k * 8 for t, k in pairs) / 1e6,
    }


class Workload:
    name = ""
    setup_code = "import rvqtok.cli"

    def __init__(self, seed: int, ops: Ops):
        self.seed = seed
        self.ops = ops

    def prepare(self) -> None:
        """Write inputs and in-process references into the working directory."""

    def commands(self) -> list[tuple[str, list[str]]]:
        """(label, argv) of each CLI command in one pass, in order."""
        raise NotImplementedError

    def check_pass(self, stdout: dict[str, str]) -> None:
        """Check one pass's outputs; ``stdout`` maps label to command stdout."""

    def final_check(self) -> None:
        """Slower checks of the last pass's outputs, run once after timing."""

    def summary(self, walls: list[dict[str, float]]) -> dict[str, tuple[float, str]]:
        """Workload metrics from the per-pass command wall times."""
        return {}

    def probes(self, traced: dict[str, float]) -> dict[str, float]:
        """Per-layer measurements beside the spans; ``traced`` holds span medians."""
        return {}


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


class EncodeLong(Workload):
    name = "encode-long"
    audio_s = 600.0
    setup_code = "import rvqtok.cli as c; c.ff.read_rvq1('books.rvq')"

    def prepare(self):
        ff.write_wav("clip.wav", make_sine_noise_audio(duration_s=self.audio_s, seed=self.seed))
        feats = stack_frames(compute_mel(ff.read_wav("clip.wav")), 8)
        ff.write_afv1("ref.afv", feats.vectors, feats.frame_rate)
        self.ref_afv = Path("ref.afv").read_bytes()
        self.x, _ = ff.read_afv1("ref.afv")
        ff.write_rvq1("books.rvq", init_rvq_stack(DEFAULT_LAYER_SIZES, self.x, seed=self.seed))
        self.stack = ff.read_rvq1("books.rvq")
        self.ref_idx = encode_frames(self.stack, self.x)
        self.ref_atk = atk1_bytes(self.ref_idx, self.stack.layer_sizes)
        self.ref_dec = decode_frames(self.stack, self.ref_idx).astype(np.float32)
        self.maes: list[float] = []

    def commands(self):
        return [
            ("mel", ["mel", "clip.wav", "out.afv"]),
            ("encode", ["encode", "out.afv", "books.rvq", "out.atk"]),
            ("decode", ["decode", "out.atk", "books.rvq", "dec.afv", "--unstack", "1"]),
        ]

    def check_pass(self, stdout):
        check = self.ops.check
        check(Path("out.afv").read_bytes() == self.ref_afv, "mel AFV1 != in-process compute_mel")
        check(Path("out.atk").read_bytes() == self.ref_atk, "ATK1 != in-process encode_frames")
        dec, _ = ff.read_afv1("dec.afv")
        if check(np.array_equal(dec, self.ref_dec), "decode AFV1 != decode_frames"):
            self.maes.append(float(np.mean(np.abs(self.x - dec))))

    def summary(self, walls):
        per_h = 3600.0 / self.audio_s
        return {
            "tokenize_s_per_audio_h": (median(w["mel"] + w["encode"] for w in walls) * per_h, "s"),
            "decode_s_per_audio_h": (median(w["decode"] for w in walls) * per_h, "s"),
            "feature_mae": (median(self.maes) if self.maes else float("nan"), "mae"),
        }

    def probes(self, traced):
        out = {}
        residual = self.x.copy()
        for layer, book in enumerate(self.stack.layers):
            one = RvqStack([book])
            t0 = time.perf_counter()
            col = encode_frames(one, residual)[:, 0]
            out[f"rvq.encode_layer{layer}_s"] = time.perf_counter() - t0
            residual = residual - book.vectors[col]
        out["rvq.encode_layer_sum_s"] = sum(
            out[f"rvq.encode_layer{l}_s"] for l in range(self.stack.n_layers)
        )
        if traced.get("rvq.encode_frames_s"):
            out["rvq.encode_layer_sum_share"] = (
                out["rvq.encode_layer_sum_s"] / traced["rvq.encode_frames_s"]
            )
        for depth in range(1, self.stack.n_layers + 1):
            prefix = RvqStack(self.stack.layers[:depth])
            recon = decode_frames(prefix, self.ref_idx[:, :depth])
            out[f"rvq.mae_depth{depth}"] = float(np.mean(np.abs(self.x - recon)))
        t = self.x.shape[0]
        out.update(dist_counts(((t, k) for k in self.stack.layer_sizes), self.stack.dim))
        return out


class TrainSteps(Workload):
    name = "train-steps"
    n_clips = 40
    epochs = 5
    layer_sizes = (1024, 512, 256, 256)
    config = {
        "layer_sizes": list(layer_sizes),
        "schedule": {"replace_start": 1.0, "replace_end": 1.0, "total_steps": 200},
        "gumbel": {"enabled": True, "temperature": 1.0},
        "dropout": {"keep_prob_per_layer": 0.5, "mode": "independent"},
        "dead_threshold": 8,
        "restart": True,
        "mode": "standard_ema",
    }

    def prepare(self):
        corpus = make_feature_corpus(n_clips=self.n_clips, clip_seconds=8.0, seed=self.seed)
        names = [f"clip{i:02d}.afv" for i in range(len(corpus))]
        for name, seq in zip(names, corpus):
            ff.write_afv1(name, seq.vectors, seq.frame_rate)
        Path("corpus.txt").write_text("".join(n + "\n" for n in names))
        Path("train.json").write_text(json.dumps(self.config))
        self.corpus = [
            FeatureSequence(vectors=v, frame_rate=r, stack_factor=1)
            for v, r in map(ff.read_afv1, names)
        ]
        self.x = np.concatenate([seq.vectors for seq in self.corpus])
        self.steps = self.epochs * len(self.corpus)
        self.first_rvq: bytes | None = None
        self.trained_mae = float("nan")

    def commands(self):
        return [
            (
                "train-rvq",
                ["train-rvq", "corpus.txt", "books.rvq", "--epochs", str(self.epochs),
                 "--config", "train.json", "--report", "report.jsonl"],
            )
        ]

    def check_pass(self, stdout):
        check = self.ops.check
        rows = [json.loads(line) for line in Path("report.jsonl").read_text().splitlines()]
        check(
            len(rows) == self.steps
            and all(np.isfinite([r["commit_loss"], r["feature_mae"]]).all() for r in rows),
            f"training report is not {self.steps} finite steps",
        )
        rvq1 = Path("books.rvq").read_bytes()
        if self.first_rvq is None:
            self.first_rvq = rvq1
        check(rvq1 == self.first_rvq, "RVQ1 bytes differ between repeats")

    def final_check(self):
        stack = ff.read_rvq1("books.rvq")
        recon = decode_frames(stack, encode_frames(stack, self.x))
        self.trained_mae = float(np.mean(np.abs(self.x - recon)))

    def summary(self, walls):
        vectors = self.epochs * self.x.shape[0]
        return {
            "train_vectors_per_s": (median(vectors / w["train-rvq"] for w in walls), "1/s"),
            "trained_mae": (self.trained_mae, "mae"),
        }

    def probes(self, traced):
        """Replay the CLI's training steps through exported functions, timing
        each phase; the replayed stack should equal the CLI's RVQ1."""
        cfg = self.config
        seed = 0  # the CLI's default --seed
        schedule = TrainingSchedule(**cfg["schedule"])
        gumbel = GumbelConfig(**cfg["gumbel"])
        dropout = DropoutConfig(**cfg["dropout"])
        gumbel_rng = make_rng(seed, "gumbel")
        dropout_rng = make_rng(seed, "dropout")
        work = init_rvq_stack(self.layer_sizes, self.x, ema_decay=0.99, seed=seed)
        phases = dict.fromkeys(("assign", "ema", "restart", "report"), 0.0)
        restarts = 0
        kernel = [(self.x.shape[0], k) for k in self.layer_sizes]  # init's distances

        step = 0
        for _epoch in range(self.epochs):
            for seq in self.corpus:
                x = seq.vectors
                routed = bool(vq_replacement_gate(
                    schedule, min(step, schedule.total_steps),
                    derive_seed(seed, f"gate:{step}"), 1,
                )[0])
                t0 = time.perf_counter()
                indices, quantized = quantize_batch(
                    work, x, gumbel, dropout, gumbel_rng=gumbel_rng, dropout_rng=dropout_rng
                )
                phases["assign"] += time.perf_counter() - t0
                active = indices != INACTIVE
                inputs, residual = [], x.copy()
                for layer, book in enumerate(work.layers):
                    inputs.append(residual.copy())
                    rows = active[:, layer]
                    kernel.append((int(rows.sum()), book.size))
                    residual[rows] -= book.vectors[indices[rows, layer]]

                t0 = time.perf_counter()
                mean_commitment_loss(x, quantized)
                for layer, book in enumerate(work.layers):
                    used = indices[active[:, layer], layer]
                    codebook_utilization(used[:, None], 0, book.size)
                phases["report"] += time.perf_counter() - t0

                if routed:
                    for layer in range(work.n_layers):
                        rows = np.flatnonzero(active[:, layer])
                        assignments: dict[int, list] = {}
                        for r in rows:
                            assignments.setdefault(int(indices[r, layer]), []).append(inputs[layer][r])
                        t0 = time.perf_counter()
                        book = ema_update(work.layers[layer], assignments, cfg["mode"])
                        phases["ema"] += time.perf_counter() - t0
                        if rows.size:
                            t0 = time.perf_counter()
                            book, replaced = restart_dead_entries(
                                book, inputs[layer][rows], cfg["dead_threshold"],
                                derive_seed(seed, f"restart:{step}:{layer}"),
                            )
                            phases["restart"] += time.perf_counter() - t0
                            restarts += len(replaced)
                        work.layers[layer] = book
                step += 1

        out = {f"rvq.train.{k}_ms": 1e3 * v / self.steps for k, v in phases.items()}
        out["rvq.restarts_per_step"] = restarts / self.steps
        out["rvq.trained_mae"] = self.trained_mae
        if traced.get("rvq.train_rvq_s"):
            step_ms = 1e3 * traced["rvq.train_rvq_s"] / self.steps
            out["rvq.train_step_ms"] = step_ms
            out["rvq.train.phase_coverage"] = sum(
                out[f"rvq.train.{k}_ms"] for k in phases
            ) / step_ms
        cli_books = ff.read_rvq1("books.rvq")
        matches = all(
            np.array_equal(a.vectors.astype(np.float32), b.vectors.astype(np.float32))
            for a, b in zip(work.layers, cli_books.layers)
        )
        self.ops.check(matches, "phase replay != CLI RVQ1")
        out.update(dist_counts(kernel, self.x.shape[1]))
        return out


class PackEval(Workload):
    name = "pack-eval"
    n_pairs = 20000  # a multiple of the pack group size, so no group is folded
    group_size = 4
    vocab_size = 16
    n_records = 10000
    packed = (("pack-itts", "itts.jsonl"), ("pack-intlv", "intlv.jsonl"))

    def prepare(self):
        rng = make_rng(self.seed, "bench-pack")
        lengths = rng.integers(3, 18, size=self.n_pairs)
        ends = np.cumsum(lengths)
        n_frames = int(ends[-1])
        sizes = DEFAULT_LAYER_SIZES
        idx = np.stack([rng.integers(0, k, size=n_frames) for k in sizes], axis=1)
        Path("tokens.atk").write_bytes(atk1_bytes(idx, sizes))
        provenance = rng.integers(0, 2, size=self.n_pairs)
        with open("manifest.jsonl", "w") as fh:
            for i, (end, n) in enumerate(zip(ends.tolist(), lengths.tolist())):
                row = {
                    "text": f"Utterance number {i}.",
                    "atk1_path": "tokens.atk",
                    "frame_range": [end - n, end],
                    "duration_s": n / FRAME_RATE,
                    "provenance": ("synthetic", "crawl")[provenance[i]],
                }
                fh.write(json.dumps(row) + "\n")
        self.manifest_frames = n_frames
        durations = [n / FRAME_RATE for n in lengths.tolist()]
        self.group_durations = [
            sum(durations[g : g + self.group_size])
            for g in range(0, self.n_pairs, self.group_size)
        ]
        self.frames, self.sizes = ff.read_atk1("tokens.atk")

        corpus, self.records = make_bigram_world(
            vocab_size=self.vocab_size, n_records=self.n_records, seed=self.seed
        )
        Path("corpus.jsonl").write_text("".join(json.dumps(s) + "\n" for s in corpus))
        ff.write_eval_records("records.jsonl", self.records)
        self.scorer = scorers.BigramScorer(vocab_size=self.vocab_size).fit(corpus)
        self.ref_accuracy = accuracy(self.records, self.scorer)
        self.first_out: dict[str, bytes] = {}
        self.printed: dict[str, dict] = {}
        self.codec: dict[str, float] = {}

    def commands(self):
        plugin = shlex.join([
            sys.executable, "-m", "rvqtok.cli", "scorer-plugin", "--name", "bigram",
            "--bigram-corpus", "corpus.jsonl", "--vocab-size", str(self.vocab_size),
        ])
        return [
            ("pack-itts", ["pack", "manifest.jsonl", "itts.jsonl", "--format-tag", "ITTS"]),
            ("pack-intlv", ["pack", "manifest.jsonl", "intlv.jsonl", "--format-tag", "INTLV"]),
            ("eval", ["eval", "records.jsonl", "--plugin", plugin]),
        ]

    def check_pass(self, stdout):
        check = self.ops.check
        check(
            _last_json(stdout["eval"])["accuracy"] == self.ref_accuracy,
            "eval --plugin accuracy != in-process accuracy()",
        )
        for label, path in self.packed:
            out = Path(path).read_bytes() + Path(path + ".stats.json").read_bytes()
            self.first_out.setdefault(label, out)
            check(out == self.first_out[label], f"{label} output differs between repeats")
            self.printed[label] = _last_json(stdout[label])

    def final_check(self):
        for label, path in self.packed:
            self._check_records(path, self.printed[label])

    def _check_records(self, path: str, printed: dict) -> None:
        """Rebuild the packed streams, compare stats, and round-trip the codec."""
        check = self.ops.check
        frames_by_path = {"tokens.atk": self.frames}
        with open(path) as fh:
            rebuilt = [ff.load_stream_record(json.loads(line), frames_by_path)[0] for line in fh]
        stats = corpus_stats(list(zip(rebuilt, self.group_durations))).to_dict()
        check(
            len(rebuilt) == len(self.group_durations) == printed["records"]
            and stats == json.loads(Path(path + ".stats.json").read_text()),
            f"{path}: record count or stats != corpus_stats over rebuilt streams",
        )
        special = cli.DEFAULT_SPECIAL
        t_ser = t_de = 0.0
        exact = True
        for stream in rebuilt:
            t0 = time.perf_counter()
            wire = serialize(stream, special, self.sizes)
            t1 = time.perf_counter()
            back = deserialize(wire, stream.format_tag, special, self.sizes)
            t2 = time.perf_counter()
            t_ser += t1 - t0
            t_de += t2 - t1
            exact = exact and back == stream
        check(exact, f"{path}: serialize -> deserialize is not exact")
        self.codec["frames"] = self.codec.get("frames", 0) + sum(
            s.n_audio_frames() for s in rebuilt
        )
        self.codec["streams.serialize_s"] = self.codec.get("streams.serialize_s", 0.0) + t_ser
        self.codec["streams.deserialize_s"] = self.codec.get("streams.deserialize_s", 0.0) + t_de

    def summary(self, walls):
        codec_s = self.codec.get("streams.serialize_s", 0.0) + self.codec.get(
            "streams.deserialize_s", 0.0
        )
        return {
            "pack_frames_per_s": (
                median(self.manifest_frames / (w["pack-itts"] + w["pack-intlv"]) for w in walls),
                "1/s",
            ),
            "eval_records_per_s": (median(self.n_records / w["eval"] for w in walls), "1/s"),
            "codec_frames_per_s": (
                self.codec["frames"] / codec_s if codec_s else float("nan"), "1/s"
            ),
        }

    def probes(self, traced):
        t0 = time.perf_counter()
        accuracy(self.records, self.scorer)
        out = {"metrics.perplexity_compare_s": time.perf_counter() - t0}
        for key in ("streams.serialize_s", "streams.deserialize_s"):
            out[key] = self.codec.get(key, 0.0)
        return out


WORKLOADS = {w.name: w for w in (EncodeLong, TrainSteps, PackEval)}

# Names rvqtok.cli resolves at call time: (owner, attribute, span, path_arg).
TRACE_TARGETS = [
    (cli, "cmd_mel", "cli.mel", False),
    (cli, "cmd_encode", "cli.encode", False),
    (cli, "cmd_decode", "cli.decode", False),
    (cli, "cmd_train_rvq", "cli.train-rvq", False),
    (cli, "cmd_pack", "cli.pack", False),
    (cli, "cmd_eval", "cli.eval", False),
    (cli, "compute_mel", "mel.compute_mel", False),
    (cli, "stack_frames", "mel.stack_frames", False),
    (cli, "encode_frames", "rvq.encode_frames", False),
    (cli, "decode_frames", "rvq.decode_frames", False),
    (cli, "init_rvq_stack", "rvq.init_rvq_stack", False),
    (cli, "train_rvq", "rvq.train_rvq", False),
    (cli, "build_itts", "datapipe.build_itts", False),
    (cli, "build_intlv", "datapipe.build_intlv", False),
    (cli, "corpus_stats", "datapipe.corpus_stats", False),
    (cli, "build_loss_mask", "streams.build_loss_mask", False),
    (cli, "accuracy", "metrics.accuracy", False),
    (cli.ff, "stream_record", "fileformats.stream_record", False),
] + [
    (cli.ff, fn, f"fileformats.{fn}", True)
    for fn in (
        "read_wav", "write_afv1", "read_afv1", "read_rvq1", "write_rvq1",
        "write_atk1", "read_atk1", "read_manifest", "read_eval_records",
    )
]


def traced_scorer_class(tracer):
    """A SubprocessScorer subclass whose start-up and calls record spans;
    a subclass keeps ``isinstance`` checks in the CLI working."""
    base = scorers.SubprocessScorer
    return type(
        "TracedSubprocessScorer",
        (base,),
        {
            "__init__": tracer.wrap("scorers.plugin_spawn", base.__init__),
            "__call__": tracer.wrap("scorers.plugin_call", base.__call__),
        },
    )
