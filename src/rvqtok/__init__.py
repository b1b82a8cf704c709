"""rvqtok: a multi-codebook speech tokenizer toolkit.

Mel feature extraction, residual vector quantization with EMA codebook
learning, interleaved text/audio token streams, and an evaluation
harness, all deterministic from a single seed.
"""

from .errors import (
    EmptyInput,
    IndexOutOfRange,
    InsufficientData,
    InvalidConfig,
    InvalidSample,
    InvalidStream,
    MalformedWire,
    RvqtokError,
    ScorerError,
    ShapeMismatch,
)
from .mel import (
    DEFAULT_MEL,
    MULTISCALE_DEFAULTS,
    AudioBuffer,
    FeatureSequence,
    MelConfig,
    MelSpectrogram,
    compute_mel,
    mel_filterbank,
    mel_mae,
    multiscale_mel_loss,
    reconstruction_loss,
    stack_frames,
    unstack_frames,
)
from .rvq import (
    DEFAULT_LAYER_SIZES,
    INACTIVE,
    Codebook,
    DropoutConfig,
    GumbelConfig,
    QuantizeResult,
    RvqStack,
    TrainingReport,
    TrainingSchedule,
    StepRecord,
    commitment_loss,
    decode_frames,
    ema_update,
    encode_frames,
    init_rvq_stack,
    mean_commitment_loss,
    quantize,
    quantize_batch,
    restart_dead_entries,
    total_loss,
    train_rvq,
    vq_replacement_gate,
)
from .seeding import derive_seed, make_rng
from .streams import (
    FORMAT_TAGS,
    EmbeddingSpec,
    InterleavedStream,
    LossMask,
    Segment,
    SegmentKind,
    SpecialTokens,
    audio_segment,
    build_loss_mask,
    deserialize,
    eoa_frame,
    is_eoa,
    serialize,
    sum_embeddings,
    text_segment,
)
from .datapipe import (
    DEFAULT_PUNCTUATION,
    AlignedPair,
    CorpusStats,
    build_intlv,
    build_itts,
    byte_tokenizer,
    corpus_stats,
    segment_text,
)
from .metrics import (
    EvalRecord,
    accuracy,
    codebook_utilization,
    interlayer_mi,
    perplexity,
    perplexity_compare,
    token_entropy,
    wer,
)
from .scorers import BigramScorer, RandomScorer, SubprocessScorer, perfect_scorer

__version__ = "0.1.0"
