"""Batch command-line surface.

Subcommands: mel, train-rvq, encode, decode, pack, eval, scorer-plugin.
Every command takes --seed and --threads; mel and train-rvq also take
--config, and eval --format. Beyond these two, each command takes only
the options it reads, so an option it does not take is an argparse
usage error (exit 2). --threads sets how many whole blocks mel and
encode work on at once, never more than the usable CPUs; at 2 or more,
train-rvq runs each layer's codebook update on a second thread while
the cascade moves on to the next layer. decode, pack, eval and
scorer-plugin take --threads but run in order and ignore it. It
defaults to the usable CPUs // the BLAS threads, which are read from
OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS, and count as every usable
CPU when neither is set: so with an unpinned BLAS, one block at a time
and no update thread. A block is never split, and artifacts are
byte-identical at any --threads value; acceptance criterion 10 checks
this.

Exit codes: 0 success, 2 I/O, 3 shape or config, 4 data format,
5 scorer-plugin protocol. Running out of memory exits 3 as well: the
inputs that can reach it are configs whose arrays are too large to
allocate (a huge n_fft or layer size).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import shlex
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import fileformats as ff
from .datapipe import CorpusStats, record_layout
from .errors import (
    EmptyInput,
    IndexOutOfRange,
    InsufficientData,
    InvalidConfig,
    InvalidSample,
    InvalidStream,
    MalformedWire,
    ScorerError,
    ShapeMismatch,
)
from .mel import FeatureSequence, MelConfig, check_stack_factor, mel_blocks

# Not called here since `mel` streams through mel_blocks, and pack writes
# records from datapipe.record_layout; perfbench's traced run still
# resolves these names on this module.
from .datapipe import build_intlv, build_itts, corpus_stats  # noqa: F401
from .mel import compute_mel, stack_frames  # noqa: F401
from .metrics import accuracy, perplexity_compare_all
from .parallel import default_threads
from .rvq import (
    DropoutConfig,
    GumbelConfig,
    TrainingSchedule,
    check_dead_threshold,
    check_ema_decay,
    check_epochs,
    check_layer_sizes,
    check_mode,
    check_norm_beta,
    decode_frames,
    encode_rows,
    init_rvq_stack,
    train_rvq,
)

# Not called here since `encode` streams through encode_rows; perfbench's
# traced run still resolves this name on this module.
from .rvq import encode_frames  # noqa: F401
from .scorers import BigramScorer, RandomScorer, SubprocessScorer, perfect_scorer, run_plugin_loop
from .streams import SpecialTokens, frame_faults

# Not called since pack stores no mask; perfbench's traced run resolves it here.
from .streams import build_loss_mask  # noqa: F401

# Unused by pack (records hold no switch ids); perfbench serializes with it.
DEFAULT_SPECIAL = SpecialTokens(switch_ta=256, switch_at=257)

# decode and pack read ATK1 frames in blocks of _ATK1_BLOCK; pack reads
# each from a multiple of it, and holds the masks of the _ATK1_HELD //
# _ATK1_BLOCK (256) blocks it used last: 2^18 frames of full blocks
# (5.8 audio-hours at 12.5 Hz), one bool each, about 256 KB. Both bound
# memory and change no byte.
_ATK1_BLOCK = 1024
_ATK1_HELD = 1 << 18


def _emit(obj: dict) -> None:
    # json and jsonl coincide for single-document summaries
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _config(doc, types: dict[str, str], what: str) -> dict:
    """doc, once ff.check_fields passes it and it holds no key outside
    types; anything else is InvalidConfig."""
    unknown = ff.check_fields(doc, types, what).keys() - types
    if unknown:
        raise InvalidConfig(f"unknown key {min(unknown)!r} in {what}")
    return doc


def _field_types(cls) -> dict[str, str]:
    """A config dataclass's {field: type name}; its modules postpone
    annotation evaluation, so each type is a name such as "float"."""
    return {f.name: f.type for f in fields(cls)}


def _load_json(path, types: dict[str, str], what: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, or arrays nested too deep
        raise InvalidConfig(f"{what} is not JSON: {exc}") from exc
    return _config(doc, types, what)


def _open_audio(path: str, raw_rate: int | None):
    if path.lower().endswith(".wav"):
        if raw_rate is not None:
            raise InvalidConfig("--raw-rate is for raw float32 input; a WAV header gives the rate")
        return ff.open_wav(path)
    if raw_rate is None:
        raise InvalidConfig("raw float32 input needs --raw-rate")
    return ff.open_raw_f32(path, raw_rate)


def cmd_mel(args) -> int:
    check_stack_factor(args.stack)
    doc = _load_json(args.config, _field_types(MelConfig), "mel config") if args.config else {}
    cfg = MelConfig(**doc)

    with _open_audio(args.input, args.raw_rate) as source:
        n_frames, blocks = mel_blocks(source, cfg, args.stack, args.threads)
        n_vectors = n_frames // args.stack
        if n_vectors == 0:
            raise EmptyInput(f"{n_frames} mel frames, too few to stack {args.stack}")
        dim = args.stack * cfg.n_mels
        frame_rate = cfg.frame_rate / args.stack
        with ff.afv1_writer(args.output, dim, frame_rate, [args.input]) as write:
            for block in blocks:
                # blocks start on stack groups; only the last can end inside one
                whole = len(block) // args.stack * args.stack
                write(block[:whole].reshape(-1, dim))
    _emit({"frames": n_vectors, "frame_rate": frame_rate, "seed": args.seed})
    return 0


def _read_afv1_manifest(path) -> tuple[list[str], np.ndarray, list[FeatureSequence]]:
    """The AFV1 paths a manifest lists, their rows as one float64 matrix,
    and each file's FeatureSequence, a view of that matrix; a line that is
    not UTF-8 or holds a NUL is MalformedWire naming it."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise MalformedWire(f"train-rvq manifest line {line_no}: not UTF-8") from exc
    paths = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if "\0" in line:
            raise MalformedWire(f"train-rvq manifest line {line_no}: NUL in path")
        line = line.strip()
        if line and not line.startswith("#"):
            paths.append(line)
    if not paths:
        raise EmptyInput("manifest lists no feature files")
    files = [ff.read_afv1(afv1) for afv1 in paths]
    for afv1, (vectors, _) in zip(paths, files):
        if not len(vectors):
            raise EmptyInput(f"{afv1} holds no feature rows")
    dims = {vectors.shape[1] for vectors, _ in files}
    if len(dims) != 1:
        raise ShapeMismatch(f"corpus dimensions disagree: {sorted(dims)}")
    features = np.concatenate([vectors for vectors, _ in files])
    features.flags.writeable = False  # each sequence is a view of it
    views = np.split(features, np.cumsum([len(vectors) for vectors, _ in files])[:-1])
    corpus = [FeatureSequence(view, frame_rate, 1) for view, (_, frame_rate) in zip(views, files)]
    return paths, features, corpus


# train-rvq --config keys; init_rvq_stack and train_rvq hold the defaults
# of those the config leaves out
_TRAIN_KEYS = {
    "layer_sizes": "list of int",
    "schedule": "object",
    "gumbel": "object or null",
    "dropout": "object or null",
    "ema_decay": "float",
    "norm_beta": "float",
    "mode": "str",
    "dead_threshold": "int",
    "restart": "bool",
}
# the library's check of each flat key's range, run before any file is read
_TRAIN_CHECKS = {
    "layer_sizes": check_layer_sizes,
    "ema_decay": check_ema_decay,
    "norm_beta": check_norm_beta,
    "mode": check_mode,
    "dead_threshold": check_dead_threshold,
}


def _train_configs(doc: dict):
    # train_rvq draws Gumbel noise and dropout from --seed, so the seed
    # fields of these configs are not keys here
    def config(cls, key):
        types = {k: v for k, v in _field_types(cls).items() if k != "seed"}
        return cls(**_config(doc.get(key) or {}, types, key))

    # only null or an absent key turns dropout off; {} takes its defaults
    dropout = config(DropoutConfig, "dropout") if doc.get("dropout") is not None else None
    return config(TrainingSchedule, "schedule"), config(GumbelConfig, "gumbel"), dropout


def cmd_train_rvq(args) -> int:
    check_epochs(args.epochs)
    doc = _load_json(args.config, _TRAIN_KEYS, "train-rvq config") if args.config else {}
    for key, check in _TRAIN_CHECKS.items():
        if key in doc:
            check(doc[key])
    layer_sizes = doc.get("layer_sizes", [64, 64])
    schedule, gumbel, dropout = _train_configs(doc)
    init_kwargs = {k: doc[k] for k in ("ema_decay", "norm_beta") if k in doc}
    train_kwargs = {k: doc[k] for k in ("mode", "dead_threshold", "restart") if k in doc}

    afv1_paths, features, corpus = _read_afv1_manifest(args.manifest)
    stack = init_rvq_stack(layer_sizes, features, seed=args.seed, **init_kwargs)
    stack, report = train_rvq(
        stack, corpus, schedule, gumbel, dropout, args.epochs,
        seed=args.seed, threads=args.threads, **train_kwargs,
    )
    report_path = args.report or args.output + ".report.jsonl"
    inputs = [args.manifest, *afv1_paths]
    with ff.staged(args.output, report_path, inputs=inputs) as (books_tmp, report_tmp):
        ff.write_rvq1(books_tmp, stack)
        ff.write_lines(report_tmp, (rec.to_json() for rec in report.steps))
    _emit(
        {
            "layers": stack.n_layers,
            "steps": len(report.steps),
            "final_feature_mae": report.steps[-1].feature_mae if report.steps else None,
            "seed": args.seed,
        },
    )
    return 0


def cmd_encode(args) -> int:
    with ff.open_afv1(args.features) as (_, _, rows):
        stack = ff.read_rvq1(args.codebooks)
        inputs = [args.features, args.codebooks]
        with ff.atk1_writer(args.output, stack.layer_sizes, inputs) as write:
            for indices in encode_rows(stack, rows.n_rows, rows.read, args.threads):
                write(indices)
    _emit({"frames": rows.n_rows, "seed": args.seed})
    return 0


def cmd_decode(args) -> int:
    if args.unstack < 1:
        raise InvalidConfig(f"unstack factor must be >= 1, got {args.unstack}")
    rate = args.frame_rate * args.unstack
    try:
        ff.check_frame_rate(rate)
    except InvalidConfig as exc:
        raise InvalidConfig(
            f"--frame-rate {args.frame_rate} x --unstack {args.unstack}: {exc}"
        ) from exc
    with ff.open_atk1(args.tokens) as (sizes, frames):
        stack = ff.read_rvq1(args.codebooks)
        if sizes != stack.layer_sizes:
            raise ShapeMismatch(f"token layer sizes {sizes} != codebook sizes {stack.layer_sizes}")
        if stack.dim % args.unstack:
            raise ShapeMismatch(f"dim {stack.dim} not divisible by unstack factor {args.unstack}")
        dim = stack.dim // args.unstack
        n_eoa = 0
        with ff.afv1_writer(args.output, dim, rate, [args.tokens, args.codebooks]) as write:
            for start in range(0, frames.n_rows, _ATK1_BLOCK):
                block = frames.read(start, min(start + _ATK1_BLOCK, frames.n_rows))
                eoa, bad = frame_faults(block, sizes)
                if bad.any():
                    raise MalformedWire(
                        f"frame {start + bad.argmax()} of {args.tokens} holds an index "
                        f"past its layer sizes {sizes}"
                    )
                # only an end-of-audio frame is skipped
                n_eoa += int(eoa.sum())
                block = block[~eoa]
                write(decode_frames(stack, block).reshape(-1, dim))
    if n_eoa:
        print(f"skipped {n_eoa} end-of-audio frames", file=sys.stderr)
    _emit({"frames": (frames.n_rows - n_eoa) * args.unstack, "seed": args.seed})
    return 0


def _pack_pairs(rows, outputs):
    """Yield (text, duration, frames ref, manifest line) for each manifest
    row once its frames are checked; datapipe.record_layout, not this,
    says which pair gives text and which audio. A block is read with its
    ATK1's header in one open, checked once, and only its mask of bad
    frames is held. Rows that go back, or move between ATK1 files, read
    again only the blocks no longer held. An ATK1 that cannot seek, such
    as a pipe, is read whole as one block, held to the end. An ATK1 that
    is one of ``outputs`` is refused when opened."""
    pipes = {}  # path -> the one block of an ATK1 that cannot seek

    @functools.lru_cache(max(_ATK1_HELD // _ATK1_BLOCK, 1))
    def block(path, first):
        """(layer sizes, frame count, first, stop, mask) of the block
        [first, stop) that starts at first, or at the frame count if first
        is past it; a pipe's one block is all its frames. The mask joins
        frame_faults' two, and is None for a clean block."""
        with ff.open_atk1(path) as (sizes, atk1):
            ff.check_not_inputs(outputs, [path])
            n = atk1.n_rows
            first, stop = (min(first, n), min(first + _ATK1_BLOCK, n)) if atk1.seekable else (0, n)
            mask = np.logical_or(*frame_faults(atk1.read(first, stop), sizes))
            got = sizes, n, first, stop, mask if mask.any() else None
        if not atk1.seekable:
            pipes[path] = got
        return got

    sizes = None
    for row in rows:
        path, where = row["atk1_path"], f"manifest line {row['line_no']}"
        start, end = row["frame_range"]
        at = max(start, 0) // _ATK1_BLOCK * _ATK1_BLOCK
        atk1_sizes, n_frames, first, stop, mask = pipes.get(path) or block(path, at)
        sizes = sizes or atk1_sizes
        if atk1_sizes != sizes:
            raise MalformedWire(f"{where}: ATK1 {path} has layer sizes {atk1_sizes}, not {sizes}")
        if not 0 <= start < end <= n_frames:
            raise MalformedWire(
                f"{where}: frame range [{start}, {end}) outside ATK1 of {n_frames}"
            )
        while True:
            lo, hi = max(start - first, 0), end - first
            if mask is not None and mask[lo:hi].any():
                raise MalformedWire(
                    f"{where}: frame {first + lo + mask[lo:hi].argmax()} of {path} holds "
                    f"an index past its layer sizes {sizes}"
                )
            if stop >= end:
                break
            *_, first, stop, mask = block(path, stop)
        ref = {"path": path, "start": start, "end": end}
        yield row["text"], float(row["duration_s"]), ref, row["line_no"]


def _pack_groups(pairs, tag: str, group_size: int):
    """Yield the pairs group_size at a time. An INTLV record needs two
    pairs, so a last pair on its own folds into the group before it: INTLV
    reads two pairs past a group before it yields the group."""
    ahead = 2 if tag == "INTLV" else 0
    held = []
    for pair in pairs:
        held.append(pair)
        if len(held) == group_size + ahead:
            yield held[:group_size]
            held = held[group_size:]
    if held:
        yield held


def cmd_pack(args) -> int:
    tag = args.format_tag
    # an INTLV record needs two pairs, so a group of one could never pack
    least = 2 if tag == "INTLV" else 1
    if args.group_size < least:
        raise InvalidConfig(f"group size must be >= {least} for {tag}, got {args.group_size}")
    stats_path = args.stats or args.output + ".stats.json"
    outputs = (args.output, stats_path)
    stats = CorpusStats()

    def write_records(pairs, write):
        """Write each group's record, laid out by record_layout, and count it."""
        for group in _pack_groups(pairs, tag, args.group_size):
            texts, durations, refs, line_nos = zip(*group)
            first, last = line_nos[0], line_nos[-1]
            lines = f"line {first}" if first == last else f"lines {first}-{last}"
            segments, n_tokens, n_frames = [], 0, 0
            try:
                for i, ids in record_layout(tag, texts):
                    if ids is None:
                        segments.append({"kind": "audio", "frames_ref": refs[i]})
                        n_frames += refs[i]["end"] - refs[i]["start"]
                    else:
                        segments.append({"kind": "text", "tokens": ids})
                        n_tokens += len(ids)
            except (InsufficientData, InvalidStream) as exc:
                raise type(exc)(f"manifest {lines}: {exc}") from exc
            duration = sum(durations)
            if not math.isfinite(duration):
                raise MalformedWire(f"manifest {lines}: durations sum past the float64 range")
            write(json.dumps({"format": tag, "segments": segments}, sort_keys=True))
            stats.add(tag, duration, n_tokens, n_frames)

    with ff.staged(*outputs, inputs=[args.manifest]) as (records_tmp, stats_tmp):
        pairs = _pack_pairs(ff.read_manifest(args.manifest), outputs)
        # closing the pairs ends the manifest rows they read, which closes it
        with contextlib.closing(pairs), ff.line_writer(records_tmp) as write:
            write_records(pairs, write)
        ff.write_lines(stats_tmp, [json.dumps(stats.to_dict(), sort_keys=True)])
    n_records = sum(stats.records_per_format.values())
    _emit({"records": n_records, "seed": args.seed, **stats.to_dict()})
    return 0


def _builtin_scorer(name: str | None, args):
    """The built-in scorer named, or None for a plugin (name None), which
    only refuses the bigram options. Only bigram takes --bigram-corpus and
    --vocab-size, and it needs both: its vocab size is checked, then it is
    fit on the corpus (JSONL), whose ids must lie in [0, --vocab-size)."""
    if name != "bigram":
        if (args.bigram_corpus, args.vocab_size) != (None, None):
            raise InvalidConfig("--bigram-corpus and --vocab-size are for the bigram scorer only")
        return {"perfect": perfect_scorer, "random": RandomScorer(seed=args.seed)}.get(name)
    if args.bigram_corpus is None or args.vocab_size is None:
        raise InvalidConfig("bigram scorer needs a corpus and vocab size")
    scorer = BigramScorer(vocab_size=args.vocab_size)
    return scorer.fit(ff.read_token_lists(args.bigram_corpus, args.vocab_size))


def _plugin_argv(command: str) -> list[str]:
    try:
        return shlex.split(command)
    except ValueError as exc:  # such as an unclosed quote
        raise InvalidConfig(f"--plugin: {exc}") from exc


def cmd_eval(args) -> int:
    # a built-in scorer, its bigram corpus read, is ready before the records
    scorer = _builtin_scorer(args.scorer if args.plugin is None else None, args)
    # a plugin starts first, so its interpreter loads while the records do
    if args.plugin is not None:
        scorer = SubprocessScorer(_plugin_argv(args.plugin))
    try:
        records = ff.read_eval_records(args.records)
        if args.format == "jsonl":
            correct = 0
            for i, ok in enumerate(perplexity_compare_all(records, scorer)):
                correct += ok
                sys.stdout.write(json.dumps({"record": i, "correct": ok}) + "\n")
            acc = correct / len(records)
        else:
            acc = accuracy(records, scorer)
    finally:
        if isinstance(scorer, SubprocessScorer):
            scorer.close()
    _emit({"accuracy": acc, "n": len(records), "seed": args.seed})
    return 0


def cmd_scorer_plugin(args) -> int:
    return run_plugin_loop(_builtin_scorer(args.name, args))


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: every option answers only to the spelling it declares
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--seed", type=int, default=0, help="global RNG seed")
    common.add_argument(
        "--threads",
        type=int,
        default=default_threads(),
        help="blocks mel and encode work on at once; at 2 or more, train-rvq overlaps "
        "layer updates with the cascade (default: usable CPUs // BLAS threads); "
        "outputs are byte-identical at any value",
    )

    parser = argparse.ArgumentParser(
        prog="rvqtok", description="speech tokenizer toolkit", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, *parents) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common, *parents], help=help, allow_abbrev=False)

    # the built-in scorers of eval and scorer-plugin, and the bigram one's options
    scorers = ("perfect", "random", "bigram")
    bigram = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    bigram.add_argument("--bigram-corpus", default=None, help="JSONL of token-id lists")
    bigram.add_argument("--vocab-size", type=int, default=None)

    p = command("mel", "extract stacked mel features")
    p.add_argument("input", help="WAV or raw float32 path")
    p.add_argument("output", help="AFV1 output path")
    p.add_argument("--config", default=None, help="mel config JSON")
    p.add_argument("--raw-rate", type=int, default=None)
    p.add_argument("--stack", type=int, default=8, help="frame stacking factor")
    p.set_defaults(fn=cmd_mel)

    p = command("train-rvq", "train codebooks")
    p.add_argument("manifest", help="text file of AFV1 paths, one per line")
    p.add_argument("output", help="RVQ1 output path")
    p.add_argument("--config", default=None, help="training config JSON")
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--report", default=None, help="training report JSONL path")
    p.set_defaults(fn=cmd_train_rvq)

    p = command("encode", "features to tokens")
    p.add_argument("features", help="AFV1 input path")
    p.add_argument("codebooks", help="RVQ1 path")
    p.add_argument("output", help="ATK1 output path")
    p.set_defaults(fn=cmd_encode)

    p = command("decode", "tokens to features")
    p.add_argument("tokens", help="ATK1 input path")
    p.add_argument("codebooks", help="RVQ1 path")
    p.add_argument("output", help="AFV1 output path")
    p.add_argument(
        "--unstack", type=int, default=8, help="unstack factor; 1 keeps stacked rows"
    )
    p.add_argument("--frame-rate", type=float, default=12.5)
    p.set_defaults(fn=cmd_decode)

    p = command("pack", "assemble interleaved records")
    p.add_argument("manifest", help="JSONL manifest path")
    p.add_argument("output", help="records JSONL output path")
    p.add_argument("--format-tag", choices=("INTLV", "ITTS"), default="ITTS")
    p.add_argument("--group-size", type=int, default=4, help="pairs per record")
    p.add_argument("--stats", default=None, help="stats JSON path")
    p.set_defaults(fn=cmd_pack)

    p = command("eval", "perplexity-comparison accuracy", bigram)
    p.add_argument("records", help="eval records JSONL path")
    p.add_argument("--format", choices=("json", "jsonl"), default="json")
    scorer = p.add_mutually_exclusive_group()
    scorer.add_argument("--scorer", choices=scorers, default="perfect")
    scorer.add_argument("--plugin", default=None, help="external scorer command line")
    p.set_defaults(fn=cmd_eval)

    p = command("scorer-plugin", "serve a built-in scorer over stdio", bigram)
    p.add_argument("--name", choices=scorers, default="perfect")
    p.set_defaults(fn=cmd_scorer_plugin)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def fail(message, code: int) -> int:
        # every error line names its command, also when a pool worker raised it
        print(f"error: {args.command}: {message}", file=sys.stderr)
        return code

    if args.threads < 1:
        return fail("--threads must be >= 1", 3)
    try:
        return args.fn(args)
    except OSError as exc:
        return fail(exc, 2)
    except (InvalidConfig, ShapeMismatch, IndexOutOfRange) as exc:
        return fail(exc, 3)
    except MemoryError as exc:
        return fail(f"out of memory: {exc}", 3)
    except (MalformedWire, InvalidStream, InsufficientData, EmptyInput, InvalidSample) as exc:
        return fail(exc, 4)
    except ScorerError as exc:
        return fail(exc, 5)


if __name__ == "__main__":
    sys.exit(main())
