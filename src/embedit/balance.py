"""Gender-bias balancing of a profession's embedding rows.

Manual mode is an ordinary edit whose destination names the
counter-stereotypical gender, with a per-profession stopping ratio. Auto
mode starts the profession rows at the average of the profession, "female",
and "male" embeddings, then minimizes a reward-penalty loss that pulls
toward the counter-stereotypical prompt with weight alpha^2 and holds the
stereotypical side with weight 1/alpha^2. Alpha grows with the measured bias
rate and is fixed once, at the initialized state. Like an ordinary edit, it
writes the table once, after its loop, so a failure leaves it unchanged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .autodiff import Tape, Tensor, add, backward, scale
from .editor import (
    EditHyperparams,
    EditLedger,
    EditRequest,
    EditResult,
    LedgerEntry,
    LossPositions,
    OptimizerKind,
    _scored_rows,
    _taped_mse,
    edit_single,
    mse_hidden,
    target_token_ids,
)
from .encoder import EncoderBundle, encode, tokenize
from .errors import DegenerateInputError, DimensionError, DivergenceError, UnknownTokenError
from .optim import make_optimizer

GRAD_NORM_STOP = 1e-10


class BalanceMode(str, Enum):
    MANUAL = "manual"
    AUTO = "auto"


@dataclass(frozen=True)
class BiasEditRequest:
    profession: str
    stereotypical_prompt: str
    counter_prompt: str
    mode: BalanceMode = BalanceMode.MANUAL
    lambda_manual: float | None = None

    def __post_init__(self):
        if self.mode is BalanceMode.MANUAL:
            if self.lambda_manual is None:
                raise ValueError("manual mode requires lambda_manual")
            if not 0.0 <= self.lambda_manual <= 1.0:
                raise ValueError("lambda_manual must be in [0, 1]")


@dataclass(frozen=True)
class BalancerParams:
    alpha_min: float = 2.0
    delta_normalizer: float = 2.0
    learning_rate: float = 0.001
    max_iters: int = 100
    optimizer: OptimizerKind = OptimizerKind.ADAM
    loss_positions: LossPositions = LossPositions.FULL_SEQUENCE

    def __post_init__(self):
        if self.alpha_min < 1.0:
            raise ValueError("alpha_min must be >= 1")
        if self.delta_normalizer <= 0.0:
            raise ValueError("delta_normalizer must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


def init_profession_embedding(wte_p: Tensor, wte_female: Tensor, wte_male: Tensor) -> Tensor:
    """Elementwise average of the three embedding rows."""
    if not (wte_p.shape == wte_female.shape == wte_male.shape):
        raise DimensionError(
            f"row widths differ: {wte_p.shape}, {wte_female.shape}, {wte_male.shape}"
        )
    return Tensor((wte_p.array + wte_female.array + wte_male.array) / 3.0)


def bias_rate_delta(mse_sp: float, mse_csp: float, normalizer: float = 2.0) -> float:
    """Normalized gap between the two representation distances.

    The raw ratio |sp - csp| / (0.5 * (sp + csp)) lies in [0, 2]; dividing by
    the normalizer (default 2) maps it to [0, 1].
    """
    if mse_sp < 0 or mse_csp < 0:
        raise ValueError("MSE distances must be nonnegative")
    if mse_sp == 0 and mse_csp == 0:
        raise DegenerateInputError(
            "profession representation is already gender-neutral (both distances are 0)"
        )
    return abs(mse_sp - mse_csp) / (0.5 * (mse_sp + mse_csp)) / normalizer


def alpha_weight(delta: float, params: BalancerParams) -> float:
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    return max(params.alpha_min, 10.0 * delta)


def balanced_loss(h_p, h_csp, h_sp, alpha: float, positions: LossPositions) -> float:
    """alpha^2 * MSE(p, csp) + (1/alpha)^2 * MSE(p, sp)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return (
        alpha ** 2 * mse_hidden(h_p, h_csp, positions)
        + (1.0 / alpha) ** 2 * mse_hidden(h_p, h_sp, positions)
    )


def edit_balance(
    bundle: EncoderBundle,
    request: BiasEditRequest,
    params: BalancerParams,
    ledger: EditLedger,
) -> EditResult:
    """Balance one profession. Manual mode delegates to the ordinary editor
    with destination = counter prompt; its threshold law holds unchanged.

    Auto mode has no loss threshold: it runs until max_iters or until the
    gradient norm drops below 1e-10. Its result records threshold_tau = 0
    (a stopping ratio of zero), so converged is only set by an exactly zero
    loss.
    """
    if request.mode is BalanceMode.MANUAL:
        return edit_single(
            bundle,
            EditRequest(
                source_prompt=request.profession,
                destination_prompt=request.counter_prompt,
                target_word=request.profession,
            ),
            EditHyperparams(
                stop_ratio=request.lambda_manual,
                max_iters=params.max_iters,
                learning_rate=params.learning_rate,
                optimizer=params.optimizer,
                loss_positions=params.loss_positions,
            ),
            ledger,
        )
    return _edit_balance_auto(bundle, request, params, ledger)


def _gendered_row(bundle: EncoderBundle, word: str) -> Tensor:
    ids = bundle.vocab.word_token_ids(word)
    if len(ids) != 1:
        raise UnknownTokenError(f"{word!r} must map to a single token for averaging")
    return bundle.weights.wte_row(ids[0])


def _edit_balance_auto(
    bundle: EncoderBundle,
    request: BiasEditRequest,
    params: BalancerParams,
    ledger: EditLedger,
) -> EditResult:
    config, weights, vocab = bundle.config, bundle.weights, bundle.vocab
    edit_request = EditRequest(
        source_prompt=request.profession,
        destination_prompt=request.counter_prompt,
        target_word=request.profession,
    )
    ids = sorted(target_token_ids(edit_request, vocab))
    original_rows = {i: weights.wte_row(i) for i in ids}

    female = _gendered_row(bundle, "female")
    male = _gendered_row(bundle, "male")
    row_params = np.stack([
        init_profession_embedding(original_rows[i], female, male).array for i in ids
    ])
    init = (ids, Tensor(row_params))

    p_tokens = tokenize(request.profession, vocab, config)
    sp_tokens = tokenize(request.stereotypical_prompt, vocab, config)
    csp_tokens = tokenize(request.counter_prompt, vocab, config)
    h_sp = encode(sp_tokens, weights, config, edit_rows=init)
    h_csp = encode(csp_tokens, weights, config, edit_rows=init)
    h_p0 = encode(p_tokens, weights, config, edit_rows=init)

    mse_sp = mse_hidden(h_p0, h_sp, params.loss_positions)
    mse_csp = mse_hidden(h_p0, h_csp, params.loss_positions)
    if mse_sp == 0.0 and mse_csp == 0.0:
        warnings.warn(
            f"profession {request.profession!r} is representationally gender-neutral; "
            f"using alpha_min",
            stacklevel=2,
        )
        alpha = params.alpha_min
    else:
        delta = bias_rate_delta(mse_sp, mse_csp, params.delta_normalizer)
        alpha = alpha_weight(delta, params)

    rows_csp = _scored_rows(h_p0, h_csp, params.loss_positions)
    rows_sp = _scored_rows(h_p0, h_sp, params.loss_positions)
    initial_loss = balanced_loss(h_p0, h_csp, h_sp, alpha, params.loss_positions)

    opt = make_optimizer(params.optimizer.value, (len(ids), config.d_model),
                         params.learning_rate)
    iterations = 0
    steps = 0
    for i in range(1, params.max_iters + 1):
        iterations = i
        tape = Tape()
        leaf = Tensor(row_params)
        h_i = encode(p_tokens, weights, config, tape, edit_rows=(ids, leaf))
        loss_t = add(
            scale(_taped_mse(h_i, h_csp, rows_csp, tape), alpha ** 2, tape),
            scale(_taped_mse(h_i, h_sp, rows_sp, tape), (1.0 / alpha) ** 2, tape),
            tape,
        )
        loss = loss_t.item()
        if not math.isfinite(loss):
            raise DivergenceError("balanced loss became non-finite", iteration=i)
        g = backward(tape, loss_t)[leaf].array
        if float(np.linalg.norm(g)) < GRAD_NORM_STOP:
            break
        row_params = opt.step(row_params, g)
        if not np.all(np.isfinite(row_params)):
            raise DivergenceError("embedding rows became non-finite", iteration=i)
        steps += 1

    h_final = encode(p_tokens, weights, config, edit_rows=(ids, Tensor(row_params)))
    final_loss = balanced_loss(h_final, h_csp, h_sp, alpha, params.loss_positions)
    weights.set_wte_rows(ids, row_params)
    result = EditResult(
        initial_loss=initial_loss,
        threshold_tau=0.0,
        final_loss=final_loss,
        iterations_run=iterations,
        optimizer_steps=steps,
        converged=final_loss <= 0.0,
        edited_token_ids=tuple(ids),
    )
    ledger.append(LedgerEntry(
        source_prompt=request.profession,
        destination_prompt=request.counter_prompt,
        target_word=request.profession,
        edited_token_ids=tuple(ids),
        original_rows=original_rows,
        new_rows={i: weights.wte_row(i) for i in ids},
        result=result,
    ))
    return result
