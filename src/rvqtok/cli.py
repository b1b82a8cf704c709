"""Batch command-line surface.

Subcommands: mel, train-rvq, encode, decode, pack, eval, scorer-plugin.
Every command takes --seed, --threads, and --format. --threads is
accepted for interface stability and ignored: nothing here starts
threads, though the BLAS library behind NumPy may use its own unless
OPENBLAS_NUM_THREADS (or its equivalent) is set. Artifacts are
byte-identical at any --threads value; acceptance criterion 10 checks
this.

Exit codes: 0 success, 2 I/O, 3 shape or config, 4 data format,
5 scorer-plugin protocol.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from pathlib import Path

import numpy as np

from . import fileformats as ff
from .datapipe import AlignedPair, build_intlv, build_itts, byte_tokenizer, corpus_stats
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
from .mel import FeatureSequence, MelConfig, mel_blocks

# Not called here since `mel` streams through mel_blocks; perfbench's
# traced run still resolves these names on this module.
from .mel import compute_mel, stack_frames  # noqa: F401
from .metrics import accuracy, perplexity_compare
from .rvq import (
    DropoutConfig,
    GumbelConfig,
    GUMBEL_OFF,
    RvqStack,
    TrainingSchedule,
    decode_frames,
    encode_frames,
    init_rvq_stack,
    train_rvq,
)
from .scorers import SubprocessScorer, builtin_scorer, run_plugin_loop
from .streams import SpecialTokens, build_loss_mask

DEFAULT_SPECIAL = SpecialTokens(switch_ta=256, switch_at=257)


def _emit(obj: dict) -> None:
    # json and jsonl coincide for single-document summaries
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def _open_audio(path: str, raw_rate: int | None):
    if path.endswith(".wav"):
        return ff.open_wav(path)
    if raw_rate is None:
        raise InvalidConfig("raw float32 input needs --raw-rate")
    return ff.open_raw_f32(path, raw_rate)


def cmd_mel(args) -> int:
    cfg_kwargs: dict = {}
    stack_factor = args.stack
    if args.config:
        doc = _load_json(args.config)
        stack_factor = doc.pop("stack_factor", stack_factor)
        cfg_kwargs = doc
    try:
        cfg = MelConfig(**cfg_kwargs)
    except TypeError as exc:
        raise InvalidConfig(f"bad mel config: {exc}") from exc

    with _open_audio(args.input, args.raw_rate) as source:
        n_frames, blocks = mel_blocks(source, cfg, stack_factor)
        n_vectors = n_frames // stack_factor
        if n_vectors == 0:
            raise EmptyInput(f"{n_frames} mel frames, too few to stack {stack_factor}")
        dim = stack_factor * cfg.n_mels
        frame_rate = cfg.frame_rate / stack_factor
        with ff.afv1_writer(args.output, n_vectors, dim, frame_rate) as write:
            for block in blocks:
                # blocks start on stack groups; only the last can end inside one
                whole = len(block) // stack_factor * stack_factor
                write(block[:whole].reshape(-1, dim))
    _emit({"frames": n_vectors, "frame_rate": frame_rate, "seed": args.seed})
    return 0


def _read_afv1_manifest(path) -> list[FeatureSequence]:
    corpus = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        vectors, frame_rate = ff.read_afv1(line)
        corpus.append(
            FeatureSequence(vectors=vectors, frame_rate=frame_rate, stack_factor=1)
        )
    return corpus


def _train_configs(doc: dict):
    try:
        schedule = TrainingSchedule(**doc.get("schedule", {}))
        gum = doc.get("gumbel")
        gumbel = GumbelConfig(**gum) if gum else GUMBEL_OFF
        drop = doc.get("dropout")
        dropout = DropoutConfig(**drop) if drop else None
    except TypeError as exc:
        raise InvalidConfig(f"bad training config: {exc}") from exc
    return schedule, gumbel, dropout


def cmd_train_rvq(args) -> int:
    doc = _load_json(args.config) if args.config else {}
    layer_sizes = doc.get("layer_sizes", [64, 64])
    epochs = doc.get("epochs", args.epochs)
    schedule, gumbel, dropout = _train_configs(doc)

    corpus = _read_afv1_manifest(args.manifest)
    if not corpus:
        raise EmptyInput("manifest lists no feature files")
    dims = {seq.dim for seq in corpus}
    if len(dims) != 1:
        raise ShapeMismatch(f"corpus dimensions disagree: {sorted(dims)}")

    features = np.concatenate([seq.vectors for seq in corpus], axis=0)
    stack = init_rvq_stack(
        layer_sizes,
        features,
        ema_decay=doc.get("ema_decay", 0.99),
        norm_beta=doc.get("norm_beta", 0.0),
        seed=args.seed,
        method=doc.get("init_method", "sample"),
    )
    stack, report = train_rvq(
        stack,
        corpus,
        schedule,
        gumbel,
        dropout,
        epochs=epochs,
        mode=doc.get("mode", "paper_literal"),
        dead_threshold=doc.get("dead_threshold", 256),
        restart=doc.get("restart", True),
        seed=args.seed,
    )
    ff.write_rvq1(args.output, stack)
    report_path = args.report or args.output + ".report.jsonl"
    Path(report_path).write_text(report.to_jsonl())
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
    vectors, _ = ff.read_afv1(args.features)
    stack = ff.read_rvq1(args.codebooks)
    if vectors.shape[1] != stack.dim:
        raise ShapeMismatch(
            f"feature dim {vectors.shape[1]} != codebook dim {stack.dim}"
        )
    indices = encode_frames(stack, vectors)
    ff.write_atk1(args.output, indices, stack.layer_sizes)
    _emit({"frames": len(indices), "seed": args.seed})
    return 0


def cmd_decode(args) -> int:
    frames, sizes = ff.read_atk1(args.tokens)
    stack = ff.read_rvq1(args.codebooks)
    if sizes != stack.layer_sizes:
        raise ShapeMismatch(
            f"token layer sizes {sizes} != codebook sizes {stack.layer_sizes}"
        )
    eoa = (frames == sizes).all(axis=1)
    n_eoa = int(eoa.sum())
    if n_eoa:
        print(f"skipped {n_eoa} end-of-audio frames", file=sys.stderr)
    vectors = decode_frames(stack, frames[~eoa])
    if args.unstack > 1:
        if stack.dim % args.unstack:
            raise ShapeMismatch(
                f"dim {stack.dim} not divisible by unstack factor {args.unstack}"
            )
        vectors = vectors.reshape(-1, stack.dim // args.unstack)
    ff.write_afv1(args.output, vectors, args.frame_rate * args.unstack)
    _emit({"frames": vectors.shape[0], "seed": args.seed})
    return 0


def _pack_groups(rows: list[dict], tag: str, group_size: int):
    groups = [rows[i : i + group_size] for i in range(0, len(rows), group_size)]
    if tag == "INTLV" and len(groups) > 1 and len(groups[-1]) < 2:
        # an INTLV record needs two pairs; fold the leftover back
        groups[-2].extend(groups.pop())
    return groups


def cmd_pack(args) -> int:
    special = (
        ff.read_special_tokens(args.special) if args.special else DEFAULT_SPECIAL
    )
    rows = ff.read_manifest(args.manifest)

    atk1_cache: dict[str, np.ndarray] = {}
    pairs = []
    for row in rows:
        path = row["atk1_path"]
        if path not in atk1_cache:
            atk1_cache[path], _ = ff.read_atk1(path)
        start, end = (int(v) for v in row["frame_range"])
        frames = atk1_cache[path]
        if not 0 <= start < end <= len(frames):
            raise MalformedWire(
                f"manifest line {row['line_no']}: frame range [{start}, {end}) "
                f"outside ATK1 of {len(frames)}"
            )
        try:
            pair = AlignedPair(
                text=row["text"],
                frames=frames[start:end],
                duration_s=float(row["duration_s"]),
                provenance=row["provenance"],
            )
        except InvalidConfig as exc:
            raise MalformedWire(f"manifest line {row['line_no']}: {exc}") from exc
        pairs.append((pair, {"path": path, "start": start, "end": end}))

    records = []
    stats_input = []
    for group in _pack_groups(pairs, args.format_tag, args.group_size):
        group_pairs = [p for p, _ in group]
        if args.format_tag == "ITTS":
            stream = build_itts(group_pairs, tokenize=byte_tokenizer)
        else:
            stream = build_intlv(group_pairs, args.seed, tokenize=byte_tokenizer)
        mask = build_loss_mask(stream)
        # INTLV takes its audio from every other pair, starting with the first
        refs = [ref for _, ref in group]
        audio_refs = refs if args.format_tag == "ITTS" else refs[::2]
        records.append(ff.stream_record(stream, mask, audio_refs))
        stats_input.append((stream, sum(p.duration_s for p in group_pairs)))

    with open(args.output, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    stats = corpus_stats(stats_input)
    stats_path = args.stats or args.output + ".stats.json"
    Path(stats_path).write_text(json.dumps(stats.to_dict(), sort_keys=True) + "\n")
    _emit({"records": len(records), "seed": args.seed, **stats.to_dict()})
    return 0


def _builtin_scorer(name: str, args):
    """The named built-in scorer; bigram is fit on --bigram-corpus (JSONL)."""
    corpus = None
    if name == "bigram" and args.bigram_corpus:
        corpus = [
            json.loads(line)
            for line in Path(args.bigram_corpus).read_text().splitlines()
            if line.strip()
        ]
    return builtin_scorer(
        name, seed=args.seed, corpus=corpus, vocab_size=args.vocab_size
    )


def cmd_eval(args) -> int:
    records = ff.read_eval_records(args.records)
    if args.plugin:
        scorer = SubprocessScorer(shlex.split(args.plugin))
    else:
        scorer = _builtin_scorer(args.scorer, args)
    try:
        if args.format == "jsonl":
            correct = 0
            for i, rec in enumerate(records):
                ok = perplexity_compare(rec, scorer)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="global RNG seed")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and ignored; outputs are byte-identical at any value",
    )
    common.add_argument("--format", choices=("json", "jsonl"), default="json")
    common.add_argument("--config", default=None, help="JSON config file")

    parser = argparse.ArgumentParser(
        prog="rvqtok", description="speech tokenizer toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mel", parents=[common], help="extract stacked mel features")
    p.add_argument("input", help="WAV or raw float32 path")
    p.add_argument("output", help="AFV1 output path")
    p.add_argument("--raw-rate", type=int, default=None)
    p.add_argument("--stack", type=int, default=8, help="frame stacking factor")
    p.set_defaults(fn=cmd_mel)

    p = sub.add_parser("train-rvq", parents=[common], help="train codebooks")
    p.add_argument("manifest", help="text file of AFV1 paths, one per line")
    p.add_argument("output", help="RVQ1 output path")
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--report", default=None, help="training report JSONL path")
    p.set_defaults(fn=cmd_train_rvq)

    p = sub.add_parser("encode", parents=[common], help="features to tokens")
    p.add_argument("features", help="AFV1 input path")
    p.add_argument("codebooks", help="RVQ1 path")
    p.add_argument("output", help="ATK1 output path")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", parents=[common], help="tokens to features")
    p.add_argument("tokens", help="ATK1 input path")
    p.add_argument("codebooks", help="RVQ1 path")
    p.add_argument("output", help="AFV1 output path")
    p.add_argument(
        "--unstack", type=int, default=8, help="unstack factor; 1 keeps stacked rows"
    )
    p.add_argument("--frame-rate", type=float, default=12.5)
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("pack", parents=[common], help="assemble interleaved records")
    p.add_argument("manifest", help="JSONL manifest path")
    p.add_argument("output", help="records JSONL output path")
    p.add_argument("--format-tag", choices=("INTLV", "ITTS"), default="ITTS")
    p.add_argument("--group-size", type=int, default=4, help="pairs per record")
    p.add_argument("--special", default=None, help="special-token table JSON")
    p.add_argument("--stats", default=None, help="stats JSON path")
    p.set_defaults(fn=cmd_pack)

    p = sub.add_parser("eval", parents=[common], help="perplexity-comparison accuracy")
    p.add_argument("records", help="eval records JSONL path")
    p.add_argument("--scorer", choices=("perfect", "random", "bigram"), default="perfect")
    p.add_argument("--plugin", default=None, help="external scorer command line")
    p.add_argument("--bigram-corpus", default=None, help="JSONL of token-id lists")
    p.add_argument("--vocab-size", type=int, default=0)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser(
        "scorer-plugin", parents=[common], help="serve a built-in scorer over stdio"
    )
    p.add_argument("--name", choices=("perfect", "random", "bigram"), default="perfect")
    p.add_argument("--bigram-corpus", default=None)
    p.add_argument("--vocab-size", type=int, default=0)
    p.set_defaults(fn=cmd_scorer_plugin)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 3
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidConfig, ShapeMismatch, IndexOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MalformedWire, InvalidStream, InsufficientData, EmptyInput, InvalidSample) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ScorerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
