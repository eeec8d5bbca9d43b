"""Gender-bias balancing of a profession's embedding rows.

Manual mode is an ordinary edit whose destination names the
counter-stereotypical gender, with a per-profession stopping ratio. Auto
mode starts the profession rows at the average of the profession, "female",
and "male" embeddings, then minimizes a reward-penalty loss that pulls
toward the counter-stereotypical prompt with weight alpha^2 and holds the
stereotypical side with weight 1/alpha^2. Alpha grows with the measured bias
rate and is fixed once, at the initialized state. Both modes run the
editor's one optimization loop (Adam, full-sequence loss), so either writes
the table once, after the loop, and a failure leaves it unchanged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .autodiff import Tape, Tensor, add, scale
# backward is not called here; perfbench's tracer wraps embedit.balance.backward.
from .autodiff import backward  # noqa: F401
from .editor import (
    EditHyperparams,
    EditLedger,
    EditRequest,
    LedgerEntry,
    LossPositions,
    _hidden_mse,
    _optimize_rows,
    check_request,
    edit_single,
)
from .encoder import EncoderBundle, Vocab, encode
from .errors import DegenerateInputError, DimensionError, UnknownTokenError, check_number


class BalanceMode(str, Enum):
    MANUAL = "manual"
    AUTO = "auto"


@dataclass(frozen=True)
class BiasEditRequest:
    """What to balance: the profession and its two gendered prompts."""

    profession: str
    stereotypical_prompt: str
    counter_prompt: str


@dataclass(frozen=True)
class BalancerParams:
    """The mode, a BalanceMode or the string that names one; alpha's floor;
    and the edit loop's settings, which hyper() makes an EditHyperparams."""

    mode: BalanceMode = BalanceMode.MANUAL
    alpha_min: float = 2.0
    learning_rate: float = EditHyperparams.learning_rate
    max_iters: int = EditHyperparams.max_iters
    stop_ratio: float = EditHyperparams.stop_ratio

    def __post_init__(self):
        object.__setattr__(self, "mode", BalanceMode(self.mode))
        check_number("alpha_min", self.alpha_min, 1)
        self.hyper()

    def hyper(self) -> EditHyperparams:
        """The loop's settings: stop_ratio in manual mode, 0 in auto. They are
        made with stop_ratio first, so that it is checked in either mode."""
        hyper = EditHyperparams(stop_ratio=self.stop_ratio, max_iters=self.max_iters,
                                learning_rate=self.learning_rate)
        return hyper if self.mode is BalanceMode.MANUAL else replace(hyper, stop_ratio=0.0)


def init_profession_embedding(rows: np.ndarray, female: np.ndarray,
                              male: np.ndarray) -> np.ndarray:
    """Elementwise average of each of the profession's k-by-d rows with the
    female and male d-rows."""
    if not (rows.shape[-1:] == female.shape == male.shape):
        raise DimensionError(
            f"row widths differ: {rows.shape}, {female.shape}, {male.shape}"
        )
    return (rows + female + male) / 3.0


def bias_rate_delta(mse_sp: float, mse_csp: float) -> float:
    """Normalized gap between the two representation distances: the ratio
    |sp - csp| / (0.5 * (sp + csp)), which lies in [0, 2], halved into [0, 1]."""
    check_number("mse_sp", mse_sp, 0)
    check_number("mse_csp", mse_csp, 0)
    if mse_sp == 0 and mse_csp == 0:
        raise DegenerateInputError(
            "profession representation is already gender-neutral (both distances are 0)"
        )
    return abs(mse_sp - mse_csp) / (0.5 * (mse_sp + mse_csp)) / 2.0


def alpha_weight(delta: float, params: BalancerParams) -> float:
    check_number("delta", delta, 0, 1)
    return max(params.alpha_min, 10.0 * delta)


def balanced_loss(h_p, h_csp, h_sp, alpha: float) -> float:
    """alpha^2 * MSE(p, csp) + (1/alpha)^2 * MSE(p, sp), over the full
    sequence."""
    check_number("alpha", alpha, 0, open_low=True)
    full = LossPositions.FULL_SEQUENCE
    return _reward_penalty(_hidden_mse(h_p, h_csp, full), _hidden_mse(h_p, h_sp, full),
                           alpha).item()


def _reward_penalty(to_csp: Tensor, to_sp: Tensor, alpha: float,
                    tape: Tape | None = None) -> Tensor:
    """balanced_loss of the two distances as a Tensor, recorded on `tape`
    when one is given."""
    return add(scale(to_csp, alpha ** 2, tape), scale(to_sp, (1.0 / alpha) ** 2, tape), tape)


def edit_balance(
    bundle: EncoderBundle,
    request: BiasEditRequest,
    params: BalancerParams,
    ledger: EditLedger,
) -> LedgerEntry:
    """Balance one profession in params.mode. Manual mode delegates to the
    ordinary editor with destination = counter prompt and stop_ratio =
    params.stop_ratio; its threshold law holds unchanged.

    Auto mode is the same loop run from the averaged rows on the
    reward-penalty loss, with stop_ratio = 0, so tau = 0: it stops at
    max_iters or at an exactly zero loss, the only way it sets converged.
    Its initial loss is the loop's first score, at the averaged rows, and
    alpha is fixed from that score's two distances. The averaged initial
    rows are written even when no step is taken. Either mode returns the
    ledger entry it appended.
    """
    edit_request = EditRequest(
        source_prompt=request.profession,
        destination_prompt=request.counter_prompt,
        target_word=request.profession,
    )
    hyper = params.hyper()
    if params.mode is BalanceMode.MANUAL:
        return edit_single(bundle, edit_request, hyper, ledger)
    config, weights = bundle.config, bundle.weights
    ids, p_tokens, csp_tokens = check_request(bundle, edit_request)
    sp_tokens = bundle.tokenize(request.stereotypical_prompt)
    init_rows = init_profession_embedding(weights.wte.rows(ids),
                                          *weights.wte.rows(gendered_token_ids(bundle.vocab)))
    init = (ids, Tensor(init_rows))
    h_sp = encode(sp_tokens, weights, config, edit_rows=init)
    h_csp = encode(csp_tokens, weights, config, edit_rows=init)
    full = LossPositions.FULL_SEQUENCE
    alpha = None

    def loss_fn(h_p, tape):
        # Alpha is fixed once, from the two distances of the loop's first
        # score: the profession encoded at the averaged rows.
        nonlocal alpha
        to_csp = _hidden_mse(h_p, h_csp, full, tape)
        to_sp = _hidden_mse(h_p, h_sp, full, tape)
        if alpha is None and to_sp.item() == to_csp.item() == 0.0:
            warnings.warn(f"profession {request.profession!r} is representationally "
                          "gender-neutral; using alpha_min")
            alpha = params.alpha_min
        elif alpha is None:
            alpha = alpha_weight(bias_rate_delta(to_sp.item(), to_csp.item()), params)
        return _reward_penalty(to_csp, to_sp, alpha, tape)

    return _optimize_rows(bundle, edit_request, ids, init_rows, p_tokens, loss_fn, hyper, ledger)


def gendered_token_ids(vocab: Vocab) -> list[int]:
    """The ids of "female" and "male", whose rows auto mode averages into the
    profession's; a word that is not one token raises UnknownTokenError."""
    ids = []
    for word in ("female", "male"):
        word_ids = vocab.word_token_ids(word)
        if len(word_ids) != 1:
            raise UnknownTokenError(f"{word!r} must map to a single token for averaging")
        ids += word_ids
    return ids
