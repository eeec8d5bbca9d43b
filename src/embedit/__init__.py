"""Embedding-only editing of a CLIP-style text encoder.

Edit a word's token-embedding rows so a source prompt's final hidden states
match a destination prompt's, with exact revert, sequential editing, a
gender-bias balancing variant, a WTE probe, and hidden-state evaluation
metrics.
"""

from .autodiff import Tape, Tensor, backward
from .balance import (
    BalanceMode,
    BalancerParams,
    BiasEditRequest,
    alpha_weight,
    balanced_loss,
    bias_rate_delta,
    edit_balance,
    init_profession_embedding,
)
from .editor import (
    EditHyperparams,
    EditLedger,
    EditRequest,
    LedgerEntry,
    LossPositions,
    OptimizerKind,
    budget_report,
    edit_multi_encoder,
    edit_sequential,
    edit_single,
    mse_hidden,
    revert,
    target_token_ids,
)
from .encoder import (
    EncoderBundle,
    EncoderConfig,
    EncoderWeights,
    HiddenStates,
    TokenSequence,
    Vocab,
    WteTable,
    encode,
    encode_pooled,
    encode_reads,
    init_random_weights,
    tokenize,
)
from .archive import load_config, load_vocab, load_weights, save_vocab, save_weights
from .evaluation import (
    EditEntry,
    GenderEntry,
    MetricReport,
    aggregate_reports,
    classify,
    evaluate_edit,
    female_percentage,
    filter_sequential_dataset,
    gender_delta,
    load_edit_entries,
    load_gender_entries,
)
from .probe import (
    ProbeDataset,
    ProbeModel,
    ProbeParams,
    accuracy_over_seeds,
    extract_features,
    split,
    train_logreg,
)

__version__ = "0.1.0"
