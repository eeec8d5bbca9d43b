"""The one rule for a number handed in (errors.check_number), at every field
and argument that follows it: each rejects a string, None, a bool and a
value just outside its interval with ValueError; a real field also rejects
NaN, infinity and an int past float range, an integer field a float. numpy
integers and floats stay accepted."""

import numpy as np
import pytest

from embedit.autodiff import Tensor, finite_difference_grad, layer_norm
from embedit.balance import BalancerParams, alpha_weight, balanced_loss, bias_rate_delta
from embedit.editor import EditHyperparams, EditLedger, revert
from embedit.encoder import EncoderConfig, HiddenStates, Vocab, init_random_weights
from embedit.errors import LedgerRangeError, check_number
from embedit.probe import ProbeParams

from conftest import make_bundle

_SIZES = dict(vocab_size=8, d_model=4, n_layers=1, n_heads=2, d_ff=8, context_length=5)
_X = Tensor([[1.0, 2.0, 4.0], [0.0, 1.0, 3.0]])
_H = HiddenStates(Tensor(np.ones((3, 4))), eos_position=2)


def _config(**kw):
    return EncoderConfig(**{**_SIZES, **kw})


def _layer_norm(eps):
    layer_norm(_X, Tensor(np.ones(3)), Tensor(np.zeros(3)), eps)


def _fd_grad(h):
    finite_difference_grad(lambda t: float(t.array.sum()), Tensor([1.0]), h)


# (field, call with the value, integer?, a value just outside, a valid value)
_FIELDS = [
    ("stop_ratio", lambda v: EditHyperparams(stop_ratio=v), False, 1.01, 0.5),
    ("max_iters", lambda v: EditHyperparams(max_iters=v), True, 0, 3),
    ("learning_rate", lambda v: EditHyperparams(learning_rate=v), False, 0.0, 0.1),
    ("alpha_min", lambda v: BalancerParams(alpha_min=v), False, 0.99, 2.0),
    ("delta_normalizer", lambda v: BalancerParams(delta_normalizer=v), False, 1.99, 2.0),
    ("train_fraction", lambda v: ProbeParams(train_fraction=v), False, 1.0, 0.5),
    ("probe_lr", lambda v: ProbeParams(lr=v), False, 0.0, 0.1),
    ("l2", lambda v: ProbeParams(l2=v), False, -0.01, 0.0),
    ("epochs", lambda v: ProbeParams(epochs=v), True, 0, 5),
    ("seed", lambda v: ProbeParams(seeds=(0, v)), True, -1, 1),
    *[(name, lambda v, name=name: _config(**{name: v}), True, 0, _SIZES[name])
      for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff")],
    ("context_length", lambda v: _config(context_length=v), True, 2, 5),
    ("eps", lambda v: _config(eps=v), False, -0.01, 1e-5),
    ("word_id", lambda v: Vocab(tokens={"a": v}), True, -1, 3),
    *[(name, lambda v, name=name: Vocab(tokens={"a": 3}, **{name: v}), True, -1, i)
      for i, name in enumerate(("bos", "eos", "pad"))],
    ("init_seed", lambda v: init_random_weights(_config(), v), True, -1, 7),
    ("delta", lambda v: alpha_weight(v, BalancerParams()), False, 1.01, 0.5),
    ("alpha", lambda v: balanced_loss(_H, _H, _H, v), False, 0.0, 2.0),
    ("mse_sp", lambda v: bias_rate_delta(v, 1.0), False, -0.01, 0.5),
    ("mse_csp", lambda v: bias_rate_delta(1.0, v), False, -0.01, 0.5),
    ("layer_norm_eps", _layer_norm, False, -0.01, 1e-5),
    ("fd_h", _fd_grad, False, 0.0, 1e-3),
    # Its interval is the ledger's depth, a LedgerRangeError (below).
    ("n_last", lambda v: revert(None, EditLedger(), v), True, None, 0),
]
_IDS = [f[0] for f in _FIELDS]
_COMMON = [("string", "3"), ("none", None), ("bool", True)]
_REAL = [("nan", float("nan")), ("inf", float("inf")), ("huge_int", 10 ** 400)]


def _bad_values(integer, outside):
    kind = [("float", 2.5)] if integer else _REAL
    return _COMMON + kind + ([] if outside is None else [("outside", outside)])


@pytest.mark.parametrize("call,value", [
    pytest.param(call, value, id=f"{field}-{case}")
    for field, call, integer, outside, _ in _FIELDS
    for case, value in _bad_values(integer, outside)
])
def test_a_bad_number_raises_value_error(call, value):
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("field,call,integer,outside,valid", _FIELDS, ids=_IDS)
def test_numpy_numbers_are_accepted(field, call, integer, outside, valid):
    call(np.int64(valid) if integer else np.float64(valid))


def test_a_negative_revert_depth_is_a_range_error():
    with pytest.raises(LedgerRangeError):
        revert(make_bundle().weights, EditLedger(), -1)


def test_the_message_names_field_interval_and_value():
    with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\), got 1$"):
        check_number("alpha", 1, 0, 1, open_low=True, open_high=True)
    with pytest.raises(ValueError, match=r"^k must be an integer in \[1, inf\), got 2\.5$"):
        check_number("k", 2.5, 1, integer=True)
    assert check_number("eps", np.float64(0.5), 0, 1) == 0.5


def test_the_constructor_stores_eps_as_a_float():
    config = _config(eps=0)
    assert type(config.eps) is float and config.to_json()["eps"] == 0.0
