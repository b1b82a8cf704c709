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
import math
import shlex
import sys
from dataclasses import fields
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
from . import rvq
from .rvq import (
    DropoutConfig,
    GumbelConfig,
    GUMBEL_OFF,
    RvqStack,
    TrainingSchedule,
    decode_frames,
    encode_blocks,
    init_rvq_stack,
    train_rvq,
)

# Not called here since `encode` streams through encode_blocks; perfbench's
# traced run still resolves this name on this module.
from .rvq import encode_frames  # noqa: F401
from .scorers import SubprocessScorer, builtin_scorer, run_plugin_loop
from .streams import SpecialTokens, build_loss_mask

DEFAULT_SPECIAL = SpecialTokens(switch_ta=256, switch_at=257)


def _emit(obj: dict) -> None:
    # json and jsonl coincide for single-document summaries
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


# JSON value types a config field of each annotated type accepts: a bool
# is not a number, and an int passes where a float is wanted.
_JSON_TYPES = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
    "object": (dict,),
    "object or null": (dict, type(None)),
}


def _checked(doc, types: dict[str, str], what: str) -> dict:
    """doc, once it is a JSON object whose keys are all in types and whose
    values have the named types; anything else is InvalidConfig."""
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{what} must be a JSON object")
    for key, value in doc.items():
        if key not in types:
            raise InvalidConfig(f"unknown {what} key {key!r}")
        want = types[key]
        if want == "list of int":
            ok = ff._is_int_list(value)
        else:
            ok = type(value) in _JSON_TYPES[want]
        if not ok:
            raise InvalidConfig(f"{what} key {key!r} must be {want}, got {value!r}")
        if type(value) is float and not math.isfinite(value):
            raise InvalidConfig(f"{what} key {key!r} must be finite, got {value!r}")
    return doc


def _field_types(cls) -> dict[str, str]:
    """A config dataclass's {field: type name}; its modules postpone
    annotation evaluation, so each type is a name such as "float"."""
    return {f.name: f.type for f in fields(cls)}


def _load_json(path, types: dict[str, str], what: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise InvalidConfig(f"{what} is not JSON: {exc}") from exc
    return _checked(doc, types, what)


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
        types = {**_field_types(MelConfig), "stack_factor": "int"}
        cfg_kwargs = _load_json(args.config, types, "mel config")
        stack_factor = cfg_kwargs.pop("stack_factor", stack_factor)
    cfg = MelConfig(**cfg_kwargs)

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


# train-rvq --config keys; init_rvq_stack and train_rvq hold the defaults
# of those the config leaves out
_TRAIN_KEYS = {
    "layer_sizes": "list of int",
    "epochs": "int",
    "schedule": "object",
    "gumbel": "object or null",
    "dropout": "object or null",
    "ema_decay": "float",
    "norm_beta": "float",
    "init_method": "str",
    "mode": "str",
    "dead_threshold": "int",
    "restart": "bool",
}


def _train_configs(doc: dict):
    def config(cls, key):
        return cls(**_checked(doc.get(key) or {}, _field_types(cls), key))

    schedule = config(TrainingSchedule, "schedule")
    gumbel = config(GumbelConfig, "gumbel") if doc.get("gumbel") else GUMBEL_OFF
    dropout = config(DropoutConfig, "dropout") if doc.get("dropout") else None
    return schedule, gumbel, dropout


def cmd_train_rvq(args) -> int:
    doc = _load_json(args.config, _TRAIN_KEYS, "train-rvq config") if args.config else {}
    layer_sizes = doc.get("layer_sizes", [64, 64])
    epochs = doc.get("epochs", args.epochs)
    schedule, gumbel, dropout = _train_configs(doc)
    init_kwargs = {k: doc[k] for k in ("ema_decay", "norm_beta") if k in doc}
    if "init_method" in doc:
        init_kwargs["method"] = doc["init_method"]
    train_kwargs = {k: doc[k] for k in ("mode", "dead_threshold", "restart") if k in doc}

    corpus = _read_afv1_manifest(args.manifest)
    if not corpus:
        raise EmptyInput("manifest lists no feature files")
    dims = {seq.dim for seq in corpus}
    if len(dims) != 1:
        raise ShapeMismatch(f"corpus dimensions disagree: {sorted(dims)}")

    features = np.concatenate([seq.vectors for seq in corpus], axis=0)
    stack = init_rvq_stack(layer_sizes, features, seed=args.seed, **init_kwargs)
    stack, report = train_rvq(
        stack, corpus, schedule, gumbel, dropout, epochs=epochs, seed=args.seed, **train_kwargs
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


def _row_blocks(rows: ff.Afv1Rows):
    """rows in blocks of rvq._ROW_CHUNK, as encode_blocks wants them; a
    0-row file still gives one (empty) block."""
    chunk = rvq._ROW_CHUNK
    for start in range(0, max(rows.n_rows, 1), chunk):
        yield rows.read(min(chunk, rows.n_rows - start))


def cmd_encode(args) -> int:
    with ff.open_afv1(args.features) as rows:
        stack = ff.read_rvq1(args.codebooks)
        if rows.dim != stack.dim:
            raise ShapeMismatch(f"feature dim {rows.dim} != codebook dim {stack.dim}")
        with ff.atk1_writer(args.output, rows.n_rows, stack.layer_sizes) as write:
            for indices in encode_blocks(stack, _row_blocks(rows)):
                write(indices)
    _emit({"frames": rows.n_rows, "seed": args.seed})
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
        frames = frames[~eoa]
    if args.unstack < 1:
        raise InvalidConfig(f"unstack factor must be >= 1, got {args.unstack}")
    if stack.dim % args.unstack:
        raise ShapeMismatch(
            f"dim {stack.dim} not divisible by unstack factor {args.unstack}"
        )
    dim = stack.dim // args.unstack
    n_rows = len(frames) * args.unstack
    chunk = rvq._ROW_CHUNK
    with ff.afv1_writer(args.output, n_rows, dim, args.frame_rate * args.unstack) as write:
        for start in range(0, len(frames), chunk):
            write(decode_frames(stack, frames[start : start + chunk]).reshape(-1, dim))
    _emit({"frames": n_rows, "seed": args.seed})
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
        start, end = row["frame_range"]
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
    """The named built-in scorer; bigram is fit on --bigram-corpus (JSONL),
    whose ids must lie in [0, --vocab-size)."""
    corpus = None
    # without a vocab size, builtin_scorer refuses the bigram config (exit 3)
    if name == "bigram" and args.bigram_corpus and args.vocab_size >= 1:
        corpus = ff._read_token_lists(args.bigram_corpus, args.vocab_size)
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
