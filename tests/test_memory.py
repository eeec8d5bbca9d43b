"""Memory guards: archive I/O holds the weights once and a save of a loaded
archive reads none of its payload into the process, a tape holds only what
its VJPs read, a taped encoder layer keeps no n-by-n or second n-by-d_ff
array, no tape outlives its backward pass into the table write, and no k-row
edit, read or save of the WTE builds a V-by-d table."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from embedit import (
    BalanceMode,
    BalancerParams,
    BiasEditRequest,
    EditHyperparams,
    EditLedger,
    EditRequest,
    ProbeDataset,
    Tape,
    Tensor,
    WteTable,
    archive,
    backward,
    edit_balance,
    edit_single,
    extract_features,
    init_random_weights,
    load_weights,
    revert,
    save_weights,
)
from embedit.autodiff import add_bias, matmul, mean_square, sub
from embedit.encoder import EncoderWeights, encode

from conftest import WORDS, make_bundle, make_config, make_vocab
from oracles import sum_all

# The header and the finiteness mask of the load's check buffer: small
# against the payload, which is about 6.4 MB at this shape.
LOAD_SLACK = 512 * 1024


@pytest.fixture
def wide(tmp_path, vocab):
    config = make_config(vocab, d_model=256, n_layers=1, n_heads=4, d_ff=1024)
    weights = init_random_weights(config, 0)
    path = tmp_path / "wide.embedit"
    save_weights(path, config, weights, vocab)
    payload = sum(t.array.nbytes for _, t in weights.named_tensors())
    assert payload > 4_000_000
    return path, config, weights, vocab, payload


def traced(fn, *args):
    """Traced allocations above what was live before fn(*args): still held
    when it returns (with its result alive), and at its peak."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - before, peak - before, result


def test_load_holds_the_payload_once(wide):
    # Once, in the map: the heap holds only the check's buffer.
    path, *_, payload = wide
    _, peak, (_, weights, _) = traced(load_weights, path)
    assert peak <= archive.CHECK_BUFFER_BYTES + LOAD_SLACK < payload // 4
    assert sum(t.array.nbytes for _, t in weights.named_tensors()) == payload


def test_save_copies_no_payload(wide, tmp_path):
    _, config, weights, vocab, payload = wide
    _, peak, _ = traced(save_weights, tmp_path / "out.embedit", config, weights, vocab)
    assert peak <= payload // 16


def rss_file_bytes() -> int:
    """Pages of mapped files resident in this process (RssFile of
    /proc/self/status): tracemalloc does not see them."""
    with open("/proc/self/status") as f:
        kb = next(line.split()[1] for line in f if line.startswith("RssFile:"))
    return int(kb) * 1024


def test_save_of_a_loaded_archive_reads_no_payload_into_the_process(wide, tmp_path,
                                                                     monkeypatch):
    # The save copies the payload in the kernel, so the map's pages stay out
    # of the process; one that streams the map, as a save does where
    # copy_file_range is missing, faults every page in.
    path, config, _, vocab, payload = wide

    def resident_after_save(weights):
        before = rss_file_bytes()
        save_weights(tmp_path / "out.embedit", config, weights, vocab)
        return rss_file_bytes() - before

    copied = resident_after_save(load_weights(path)[1])
    monkeypatch.delattr(archive.os, "copy_file_range")
    streamed = resident_after_save(load_weights(path)[1])
    assert streamed > payload // 2
    assert copied < streamed // 10


def test_tape_holds_no_activation_that_no_vjp_reads():
    # Through untracked weights, matmul's VJP reads only its weight and
    # add_bias's reads nothing, so 30 layers leave only the output alive.
    rng = np.random.default_rng(0)
    n, layers = 128, 30
    x = Tensor(rng.normal(size=(n, n)))
    w = Tensor(rng.normal(size=(n, n)) / np.sqrt(n))
    b = Tensor(rng.normal(size=n))
    activation = n * n * 8

    def forward():
        tape = Tape()
        tape.watch(x)
        y = x
        for _ in range(layers):
            y = add_bias(matmul(y, w, tape), b, tape)
        return tape, y

    held, _, (tape, y) = traced(forward)
    assert held <= 2 * activation
    assert np.all(backward(tape, sum_all(y, tape))[x].array != 0.0)


def _arrays_held_by_vjps(tape):
    """The distinct arrays in the closures of a tape's VJPs, also inside lists
    and tuples."""
    found = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            found[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)

    for _, _, vjp in tape._steps:
        for cell in vjp.__closure__ or ():
            visit(cell.cell_contents)
    return list(found.values())


def test_a_taped_layer_keeps_its_norms_heads_and_gelu_derivative():
    # CLIP-L's widths with 2 layers and a small vocabulary. Per layer the VJPs
    # read two layer norms' n-by-d xhat, the n-by-d q, k and v head stacks
    # and gelu's n-by-d_ff derivative: attention recomputes its probabilities.
    n, d, d_ff, layers = 77, 768, 3072, 2
    bundle = make_bundle(seed=7, d_model=d, n_layers=layers, n_heads=12, d_ff=d_ff,
                         context_length=n)
    bear = bundle.vocab.tokens["bear"]
    leaf = Tensor(bundle.weights.wte.rows([bear]))
    target = bundle.encode_prompt("a polar bear").sequence

    def forward():
        tape = Tape()
        h = encode(bundle.tokenize("a bear"), bundle.weights, bundle.config, tape,
                   ([bear], leaf))
        return tape, mean_square(sub(h.sequence, target, tape), tape)

    held, _, (tape, loss) = traced(forward)
    shapes = [a.shape for a in _arrays_held_by_vjps(tape)]
    assert not [s for s in shapes if s[-2:] == (n, n)]
    assert shapes.count((n, d_ff)) == layers
    # Besides the layers: the final layer norm's xhat, the loss's difference
    # and the tape's bookkeeping, within four n-by-d arrays.
    assert held <= layers * n * (5 * d + d_ff) * 8 + 4 * n * d * 8
    assert np.any(backward(tape, loss)[leaf].array != 0.0)


@pytest.fixture
def live_tapes_at_write(monkeypatch):
    """How many Tape objects are alive at each EncoderWeights.set_wte_rows call."""
    live = weakref.WeakSet()
    real_init = Tape.__init__

    def init(self):
        real_init(self)
        live.add(self)

    seen = []
    real_set = EncoderWeights.set_wte_rows

    def set_wte_rows(self, ids, rows):
        seen.append(len(live))
        return real_set(self, ids, rows)

    monkeypatch.setattr(Tape, "__init__", init)
    monkeypatch.setattr(EncoderWeights, "set_wte_rows", set_wte_rows)
    return seen


def test_no_tape_is_alive_at_the_write_when_the_cap_is_reached(live_tapes_at_write):
    hyper = EditHyperparams(stop_ratio=0.0, max_iters=3, learning_rate=1e-2)
    result = edit_single(make_bundle(), EditRequest("a bear", "a polar bear", "bear"),
                         hyper, EditLedger())
    assert result.iterations_run == result.optimizer_steps == 3
    assert live_tapes_at_write == [0]


def test_no_tape_is_alive_at_the_write_after_reaching_tau(live_tapes_at_write):
    hyper = EditHyperparams(stop_ratio=0.9, max_iters=200, learning_rate=1e-2)
    result = edit_single(make_bundle(), EditRequest("a bear", "a polar bear", "bear"),
                         hyper, EditLedger())
    assert result.converged and 0 < result.optimizer_steps < result.iterations_run
    assert live_tapes_at_write == [0]


def test_no_tape_is_alive_at_the_write_of_auto_balancing(live_tapes_at_write):
    request = BiasEditRequest(profession="teacher", stereotypical_prompt="male teacher",
                              counter_prompt="female teacher")
    result = edit_balance(make_bundle(), request,
                          BalancerParams(mode=BalanceMode.AUTO, learning_rate=1e-2, max_iters=3),
                          EditLedger())
    assert result.optimizer_steps >= 1
    assert live_tapes_at_write == [0]


@pytest.fixture
def wide_v():
    """A table of about 13 MB beside weights of well under 1 MB, with some
    rows already overridden."""
    vocab = make_vocab(WORDS + [f"w{i}" for i in range(25_000)])
    bundle = make_bundle(vocab=vocab, d_model=64, n_layers=1, n_heads=2, d_ff=128)
    weights = bundle.weights
    ids = [vocab.tokens[w] for w in ("cat", "dog", "w7", "w24999")]
    weights.set_wte_rows(ids, weights.wte.rows(ids) + 0.5)
    assert weights.wte.override_ids == tuple(sorted(ids))
    return bundle, weights.wte.base.array.nbytes


def test_a_k_row_write_allocates_k_rows(wide_v):
    bundle, table_bytes = wide_v
    weights, tokens = bundle.weights, bundle.vocab.tokens
    ids = [tokens["bear"], tokens["w3"], tokens["w9000"]]
    rows = weights.wte.rows(ids) + 1.0
    base = weights.wte.base
    held, peak, _ = traced(weights.set_wte_rows, ids, rows)
    # Seven overrides of 64 float64s are 3.5 KB: allow a few such blocks and
    # the bookkeeping, all far below the table.
    k_d_bytes = 7 * 64 * 8
    assert peak <= 4 * k_d_bytes + 8_192 < table_bytes // 500
    assert held <= 2 * k_d_bytes + 4_096
    assert weights.wte.base is base and len(weights.wte.override_ids) == 7


def test_an_edit_over_overrides_builds_no_table(wide_v):
    bundle, table_bytes = wide_v
    hyper = EditHyperparams(stop_ratio=0.0, max_iters=2, learning_rate=1e-2)
    _, peak, result = traced(edit_single, bundle, EditRequest("a cat", "a dog", "cat"),
                             hyper, EditLedger())
    assert result.optimizer_steps == 2
    assert peak < table_bytes // 10


def test_probe_features_over_overrides_build_no_table(wide_v):
    bundle, table_bytes = wide_v
    dataset = ProbeDataset(items=[("cat", 0), ("dog", 1), ("w7", 0), ("bear", 1)],
                           label_names=("a", "b"))
    _, peak, features = traced(extract_features, dataset, bundle.weights, bundle.vocab)
    tokens = bundle.vocab.tokens
    assert np.array_equal(features, bundle.weights.wte.rows([tokens[w] for w, _ in dataset.items]))
    assert peak < table_bytes // 100


def test_save_over_overrides_builds_no_table(wide_v, tmp_path):
    bundle, table_bytes = wide_v
    plain = dataclasses.replace(bundle.weights, wte=WteTable(bundle.weights.wte.base))

    def save_peak(weights):
        return traced(save_weights, tmp_path / "out.embedit", bundle.config, weights,
                      bundle.vocab)[1]

    # The header, which holds the 25k-word vocabulary, costs both saves alike.
    assert save_peak(bundle.weights) <= save_peak(plain) + table_bytes // 100


def test_revert_over_overrides_builds_no_table(wide_v):
    bundle, table_bytes = wide_v
    ledger, overridden = EditLedger(), bundle.weights.wte.override_ids
    hyper = EditHyperparams(stop_ratio=0.0, max_iters=2, learning_rate=1e-2)
    edit_single(bundle, EditRequest("a bear", "a cat", "bear"), hyper, ledger)
    # The check reads the k undone rows, never the V-by-d table.
    _, peak, _ = traced(revert, bundle.weights, ledger, 1)
    assert peak < table_bytes // 100
    assert bundle.weights.wte.override_ids == overridden and len(ledger) == 0
