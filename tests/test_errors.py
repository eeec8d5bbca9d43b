"""The one rule for a number handed in (errors.check_number), at every field
and argument that follows it: each rejects a string, None, a bool and a
value just outside its interval with ValueError; a real field also rejects
NaN, infinity and an int past float range, an integer field a float. numpy
integers and floats stay accepted.

The one rule for a row id (errors.check_ids), at every entry point that
takes ids: each rejects a bool, a float and a string as the kind, -1 and one
past its range as the range, and, where ids must be distinct, a repeat, each
with the exception type its caller documents. numpy integer ids are accepted
and held as Python ints."""

import numpy as np
import pytest

from embedit.archive import save_weights
from embedit.autodiff import Tensor, gather_rows, layer_norm
from embedit.balance import BalancerParams, alpha_weight, balanced_loss, bias_rate_delta
from embedit.editor import EditHyperparams, EditLedger, EditRequest, edit_single, revert
from embedit.encoder import EncoderConfig, HiddenStates, Vocab, init_random_weights
from embedit.errors import (
    DataError,
    LedgerFormatError,
    LedgerRangeError,
    NonFiniteError,
    check_ids,
    check_number,
    reading,
)
from embedit.probe import ProbeParams

from conftest import make_bundle, make_config, make_vocab, zero_row_ledger
from oracles import finite_difference_grad

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
    ("n_last", lambda v: revert(make_bundle().weights, EditLedger(), v), True, None, 0),
]
_IDS = [f[0] for f in _FIELDS]
_COMMON = [("string", "3"), ("none", None), ("bool", True), ("numpy_bool", np.True_)]
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


def test_reading_names_its_input_and_passes_a_non_finite_error_through():
    with pytest.raises(DataError, match=r"^d.jsonl: line 2: bad$"):
        with reading("d.jsonl: line 2", DataError):
            raise ValueError("bad")
    # A NonFiniteError is a ValueError too, but a blow-up is not bad data.
    blow_up = NonFiniteError("attention: scores are not finite")
    with pytest.raises(NonFiniteError) as caught:
        with reading("d.jsonl: line 2", DataError):
            raise blow_up
    assert caught.value is blow_up


def test_the_message_names_field_interval_and_value():
    with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\), got 1$"):
        check_number("alpha", 1, 0, 1, open_low=True, open_high=True)
    with pytest.raises(ValueError, match=r"^k must be an integer in \[1, inf\), got 2\.5$"):
        check_number("k", 2.5, 1, integer=True)
    assert check_number("eps", np.float64(0.5), 0, 1) == 0.5


def test_the_constructor_stores_eps_as_a_float():
    config = _config(eps=0)
    assert type(config.eps) is float and config.to_json()["eps"] == 0.0


def _numpy_ids(vocab):
    return Vocab(tokens={w: np.int64(i) for w, i in vocab.tokens.items()}, splits=vocab.splits,
                 bos=np.int64(vocab.bos), eos=np.int64(vocab.eos), pad=np.int64(vocab.pad))


def _edit_rows(ids):
    bundle = make_bundle()
    bundle.encode_prompt("a bear", edit_rows=(ids, Tensor(np.zeros((len(ids), 8)))))


def _set_wte_rows(ids):
    make_bundle().weights.set_wte_rows(ids, np.zeros((len(ids), 8)))


def _revert(ids):
    # The table holds the entry's rows where its ids fit, so that only the
    # ids can be refused.
    weights, ledger = make_bundle().weights, zero_row_ledger(8, ids)
    if max(ids) < 27:
        weights.set_wte_rows(ids, ledger.entries[0].new_rows)
    revert(weights, ledger, 1)


_LEDGER = (LedgerFormatError,) * 3
# (entry point, call with a list of ids, its range [0, n) (None: no upper
# bound), a valid id, whether ids must be distinct, and the types raised for
# a bad kind, a bad range and a repeat). Vocab's n counts its one word.
_ID_SITES = [
    ("vocab_word", lambda ids: Vocab(tokens={f"w{k}": i for k, i in enumerate(ids)}), 4, 3,
     True, (ValueError,) * 3),
    *[(f"vocab_{name}", lambda ids, name=name: Vocab(tokens={"a": 3}, **{name: ids[0]}), 4, i,
       False, (ValueError,) * 3) for i, name in enumerate(("bos", "eos", "pad"))],
    ("rows", lambda ids: make_bundle().weights.wte.rows(ids), 27, 5, False,
     (TypeError, IndexError, ValueError)),
    ("set_wte_rows", _set_wte_rows, 27, 5, True, (TypeError, IndexError, ValueError)),
    ("gather_rows", lambda ids: gather_rows(Tensor(np.ones((5, 2))), ids), 5, 4, False,
     (TypeError, IndexError, ValueError)),
    ("edit_rows", _edit_rows, 27, 5, True, (TypeError, IndexError, ValueError)),
    ("ledger_entry", lambda ids: zero_row_ledger(8, ids), None, 5, True, _LEDGER),
    # Revert's fit check sees what the entry accepts: an id past the table.
    ("revert", _revert, 27, 5, True, _LEDGER),
]


def _bad_ids(n, valid, distinct):
    cases = [(case, [value], 0) for case, value in
             [("bool", True), ("numpy_bool", np.True_), ("float", 2.0), ("string", "3")]]
    cases += [("negative", [-1], 1)] + ([] if n is None else [("past", [n], 1)])
    return cases + ([("repeat", [valid, valid], 2)] if distinct else [])


@pytest.mark.parametrize("call,ids,error", [
    pytest.param(call, ids, errors[which], id=f"{site}-{case}")
    for site, call, n, valid, distinct, errors in _ID_SITES
    for case, ids, which in _bad_ids(n, valid, distinct)
])
def test_a_bad_row_id_raises_its_callers_error(call, ids, error):
    with pytest.raises(error):
        call(ids)


@pytest.mark.parametrize("call,valid", [(site[1], site[3]) for site in _ID_SITES],
                         ids=[site[0] for site in _ID_SITES])
def test_numpy_row_ids_are_accepted(call, valid):
    call([np.int64(valid)])


def test_check_ids_returns_python_ints_and_names_the_first_bad_id():
    ids = check_ids([np.int64(4), np.uint8(0), 3], 5, distinct=True)
    assert ids == [4, 0, 3] and all(type(i) is int for i in ids)
    with pytest.raises(TypeError, match=r"^id True is not an integer$"):
        check_ids([7, True], 5)  # the kind is tested before the range
    with pytest.raises(IndexError, match=r"^at 1: id 5 is not in \[0, 5\)$"):
        check_ids([0, 5, 6], 5, name=lambda p: f"at {p}")
    with pytest.raises(ValueError, match=r"^repeated id 2$"):
        check_ids([2, 1, 2], 5, distinct=True)
    assert check_ids([2, 2], 5) == [2, 2]


def test_numpy_ids_are_held_as_python_ints_from_vocab_to_ledger(tmp_path):
    plain = make_vocab()
    request, hyper = EditRequest("a bear", "a wolf", "bear"), EditHyperparams(max_iters=3)
    saved = []
    for vocab in (plain, _numpy_ids(plain)):
        assert all(type(i) is int for i in (*vocab.tokens.values(), vocab.bos, vocab.eos))
        bundle, ledger = make_bundle(vocab=vocab), EditLedger()
        result = edit_single(bundle, request, hyper, ledger)
        assert all(type(i) is int for i in result.edited_token_ids)
        assert all(type(i) is int for i in ledger.entries[0].edited_token_ids)
        out = tmp_path / str(len(saved))
        ledger.save(out.with_suffix(".json"))
        save_weights(out, bundle.config, bundle.weights, bundle.vocab)
        saved.append((out.with_suffix(".json").read_bytes(), out.read_bytes()))
    assert saved[0] == saved[1]


def test_a_numpy_int_config_and_vocab_save_the_same_archive(tmp_path):
    vocab = make_vocab()
    config = make_config(vocab)
    numpy_config = EncoderConfig(**{k: np.int64(v) if k != "eps" else v
                                    for k, v in config.to_json().items()})
    assert numpy_config == config and all(
        type(v) is int for k, v in numpy_config.to_json().items() if k != "eps")
    weights = init_random_weights(config, 3)
    save_weights(tmp_path / "plain", config, weights, vocab)
    save_weights(tmp_path / "numpy", numpy_config, weights, _numpy_ids(vocab))
    assert (tmp_path / "numpy").read_bytes() == (tmp_path / "plain").read_bytes()
