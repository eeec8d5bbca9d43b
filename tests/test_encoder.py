import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedit import (
    EditHyperparams,
    EditLedger,
    EditRequest,
    EncoderBundle,
    EncoderConfig,
    Tape,
    Tensor,
    TokenSequence,
    Vocab,
    WteTable,
    edit_single,
    encode,
    encode_pooled,
    encode_reads,
    init_random_weights,
    load_weights,
    save_weights,
    tokenize,
)
from embedit.encoder import _forward
from embedit.errors import (
    DimensionError,
    EmptyPromptError,
    NonFiniteError,
    PromptTooLongError,
    TapeUsageError,
    UnknownTokenError,
)

from conftest import make_bundle, make_config, make_vocab

# CLIP-L's widths, heads and context with 2 layers and a small vocabulary.
CLIP_L_WIDTHS = dict(d_model=768, n_layers=2, n_heads=12, d_ff=3072, context_length=77)


def spec_example_vocab():
    # Dense ids with a=5, bear=9, polar=12; split table maps "polarbear" to two tokens.
    words = ["w3", "w4", "a", "w6", "w7", "w8", "bear", "w10", "w11", "polar"]
    tokens = {w: i + 3 for i, w in enumerate(words)}
    return Vocab(tokens=tokens, splits={"polarbear": ["polar", "bear"]}, bos=0, eos=1, pad=2)


class TestVocab:
    def test_reserved_ids_must_differ(self):
        with pytest.raises(ValueError):
            Vocab(tokens={"x": 1}, bos=0, eos=0, pad=2)

    def test_ids_must_be_dense(self):
        with pytest.raises(ValueError):
            Vocab(tokens={"x": 7}, bos=0, eos=1, pad=2)

    def test_word_may_not_reuse_reserved_id(self):
        with pytest.raises(ValueError):
            Vocab(tokens={"x": 0, "y": 3}, bos=0, eos=1, pad=2)

    def test_split_subwords_must_exist(self):
        with pytest.raises(ValueError):
            Vocab(tokens={"x": 3}, splits={"yz": ["y", "z"]}, bos=0, eos=1, pad=2)

    def test_a_split_entry_may_not_be_empty(self):
        with pytest.raises(ValueError, match="^split table entry 'yz' is empty$"):
            Vocab(tokens={"x": 3}, splits={"yz": []}, bos=0, eos=1, pad=2)

    @pytest.mark.parametrize("tokens,splits,bad", [
        ({"Bear": 3, "a": 4}, {}, "Bear"),
        ({"a": 3, "ice cream": 4}, {}, "ice cream"),
        ({"a": 3, "": 4}, {}, ""),
        ({"ice": 3, "cream": 4}, {"Ice\tCream": ["ice", "cream"]}, "Ice\tCream"),
    ], ids=["capital", "space", "empty", "split_key"])
    def test_every_word_is_one_the_prompt_word_rule_reads(self, tokens, splits, bad):
        with pytest.raises(ValueError, match=f"^word {re.escape(repr(bad))} is not one"):
            Vocab(tokens=tokens, splits=splits, bos=0, eos=1, pad=2)

    def test_split_table_wins_over_direct_entry(self):
        v = Vocab(
            tokens={"ice": 3, "cream": 4, "icecream": 5},
            splits={"icecream": ["ice", "cream"]},
            bos=0, eos=1, pad=2,
        )
        assert v.word_token_ids("icecream") == [3, 4]


class TestTokenize:
    def test_simple_prompt(self):
        vocab = spec_example_vocab()
        config = make_config(vocab)
        seq = tokenize("a bear", vocab, config)
        assert seq.ids == (0, 5, 9, 1, 2, 2, 2, 2)
        assert seq.eos_position == 3

    def test_split_expansion(self):
        vocab = spec_example_vocab()
        config = make_config(vocab)
        seq = tokenize("a polarbear", vocab, config)
        assert seq.ids == (0, 5, 12, 9, 1, 2, 2, 2)
        assert seq.eos_position == 4

    def test_unknown_word_names_the_word(self):
        vocab = spec_example_vocab()
        with pytest.raises(UnknownTokenError, match="quixotic"):
            tokenize("a quixotic bear", vocab, make_config(vocab))

    def test_overflow(self):
        vocab = spec_example_vocab()
        with pytest.raises(PromptTooLongError):
            tokenize("a a a a a a a", vocab, make_config(vocab))

    def test_empty_prompt(self):
        vocab = spec_example_vocab()
        with pytest.raises(EmptyPromptError):
            tokenize("   ", vocab, make_config(vocab))

    def test_case_and_whitespace_normalization(self):
        vocab = spec_example_vocab()
        config = make_config(vocab)
        assert tokenize("  A   BEAR ", vocab, config) == tokenize("a bear", vocab, config)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_token_sequence_invariants_over_random_prompts(data):
    vocab = make_vocab(splits={"icecream": ["ice", "cream"]})
    config = make_config(vocab)
    words = list(vocab.tokens) + ["icecream"]
    chosen = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=3))
    prompt = " ".join(chosen)
    body = sum(len(vocab.word_token_ids(w)) for w in chosen)
    if body + 2 > config.context_length:
        with pytest.raises(PromptTooLongError):
            tokenize(prompt, vocab, config)
        return
    seq = tokenize(prompt, vocab, config)
    assert len(seq.ids) == config.context_length
    assert seq.ids[0] == vocab.bos
    assert seq.ids[seq.eos_position] == vocab.eos
    assert all(t == vocab.pad for t in seq.ids[seq.eos_position + 1:])
    interior = seq.ids[1:seq.eos_position]
    assert all(t not in (vocab.bos, vocab.eos, vocab.pad) for t in interior)


class TestEncode:
    @pytest.mark.parametrize("n", [4, 9])
    def test_a_sequence_that_is_not_the_context_long_is_refused(self, tiny_bundle, n):
        t = tiny_bundle.tokenize("a bear")
        short = TokenSequence(ids=(t.ids * 2)[:n], eos_position=t.eos_position)
        with pytest.raises(DimensionError, match=f"^token sequence length {n} != context"):
            encode(short, tiny_bundle.weights, tiny_bundle.config)

    def test_reading_no_prompts_runs_no_forward(self, tiny_bundle, monkeypatch):
        import embedit.encoder as encoder

        calls = []
        monkeypatch.setattr(encoder, "_forward", lambda *args: calls.append(args))
        assert encode_reads(tiny_bundle, [], []) == ({}, {})
        assert encode_pooled(tiny_bundle, []) == {}
        assert calls == []

    def test_bitwise_determinism(self, tiny_bundle):
        h1 = tiny_bundle.encode_prompt("a bear")
        h2 = tiny_bundle.encode_prompt("a bear")
        assert h1.sequence.array.tobytes() == h2.sequence.array.tobytes()
        assert h1.pooled.array.tobytes() == h2.pooled.array.tobytes()

    def test_pooled_is_eos_row(self, tiny_bundle):
        h = tiny_bundle.encode_prompt("a bear with a zoo")
        assert np.array_equal(h.pooled.array, h.sequence.array[h.eos_position])

    def test_unused_row_perturbation_is_invisible(self, tiny_bundle):
        before = tiny_bundle.encode_prompt("a bear")
        unused = tiny_bundle.vocab.tokens["wolf"]
        tiny_bundle.weights.set_wte_rows(
            [unused], tiny_bundle.weights.wte.array[unused][None, :] + 1.0
        )
        after = tiny_bundle.encode_prompt("a bear")
        assert before.sequence.array.tobytes() == after.sequence.array.tobytes()

    def test_used_row_perturbation_changes_output(self, tiny_bundle):
        before = tiny_bundle.encode_prompt("a bear")
        used = tiny_bundle.vocab.tokens["bear"]
        tiny_bundle.weights.set_wte_rows(
            [used], tiny_bundle.weights.wte.array[used][None, :] + 1e-3
        )
        after = tiny_bundle.encode_prompt("a bear")
        assert not np.array_equal(before.pooled.array, after.pooled.array)

    def test_locality_over_many_prompts(self, tiny_bundle):
        prompts = ["a bear", "a cat with a dog", "red tree", "zoo with panda"]
        before = [tiny_bundle.encode_prompt(p).sequence.array.tobytes() for p in prompts]
        used = {
            t for p in prompts for t in tiny_bundle.vocab.prompt_token_ids(p)
        }
        untouched = [
            i for w, i in tiny_bundle.vocab.tokens.items() if i not in used
        ][:4]
        rows = tiny_bundle.weights.wte.array[untouched] + 3.0
        tiny_bundle.weights.set_wte_rows(untouched, rows)
        after = [tiny_bundle.encode_prompt(p).sequence.array.tobytes() for p in prompts]
        assert before == after

    def test_out_of_range_id_is_index_error(self, tiny_bundle):
        seq = tiny_bundle.tokenize("a bear")
        bad = seq.__class__(ids=(0, 999) + seq.ids[2:], eos_position=seq.eos_position)
        with pytest.raises(IndexError):
            encode(bad, tiny_bundle.weights, tiny_bundle.config)

    def test_edit_rows_match_writing_the_table_bitwise(self, tiny_bundle):
        ids = [tiny_bundle.vocab.tokens["bear"], tiny_bundle.vocab.tokens["wolf"]]
        rows = tiny_bundle.weights.wte.array[ids] + 0.5
        stood_in = tiny_bundle.encode_prompt("a bear", edit_rows=(ids, Tensor(rows)))
        tiny_bundle.weights.set_wte_rows(ids, rows)
        written = tiny_bundle.encode_prompt("a bear")
        assert stood_in.sequence.array.tobytes() == written.sequence.array.tobytes()

    def test_taped_encode_without_edit_rows_is_usage_error(self, tiny_bundle):
        with pytest.raises(TapeUsageError):
            tiny_bundle.encode_prompt("a bear", Tape())

    # At CLIP-L's widths the pre-GELU activations reach the cubic term's last
    # bit, so a taped gelu, which also computes its derivative, must still
    # give the untaped bits.
    @pytest.mark.parametrize("shape", [{}, CLIP_L_WIDTHS], ids=["desk", "clip_l_widths"])
    def test_taped_encode_matches_untaped_bitwise(self, vocab, shape):
        bundle = make_bundle(seed=42, vocab=vocab, **shape)
        plain = bundle.encode_prompt("a bear")
        tape = Tape()
        bear = bundle.vocab.tokens["bear"]
        leaf = Tensor(bundle.weights.wte.array[[bear]])
        taped = bundle.encode_prompt("a bear", tape, edit_rows=([bear], leaf))
        assert tape._steps
        assert plain.sequence.array.tobytes() == taped.sequence.array.tobytes()

    @pytest.mark.parametrize("taped", [False, True])
    def test_overflow_after_the_last_variance_check_raises(self, tiny_bundle, taped):
        # The final layer norm's variance is finite; its affine step overflows.
        weights = dataclasses.replace(tiny_bundle.weights,
                                      final_gamma=Tensor(np.full(8, 1e308)))
        bear = tiny_bundle.vocab.tokens["bear"]
        tape, edit_rows = (Tape(), ([bear], Tensor(weights.wte.array[[bear]]))) if taped \
            else (None, None)
        with pytest.raises(NonFiniteError, match="encode"):
            encode(tiny_bundle.tokenize("a bear"), weights, tiny_bundle.config, tape, edit_rows)


@pytest.mark.parametrize("shape", [{}, CLIP_L_WIDTHS], ids=["desk", "clip_l_widths"])
def test_pooled_reads_are_bitwise_the_full_encode_at_every_eos(shape):
    bundle = make_bundle(seed=7, **shape)
    context = bundle.config.context_length
    rng = np.random.default_rng(0)
    words = sorted(bundle.vocab.tokens)
    # One prompt per reachable eos, and at least seven prompts in all.
    copies = -(-7 // (context - 2))
    prompts = list(dict.fromkeys(" ".join(rng.choice(words, size=eos - 1))
                                 for eos in range(2, context) for _ in range(copies)))
    full = {p: bundle.encode_prompt(p).pooled.array.tobytes() for p in prompts}

    def check(batch):
        pooled = encode_pooled(bundle, batch)
        for p in batch:
            eos = bundle.tokenize(p).eos_position
            assert pooled[p].array.tobytes() == full[p], (
                f"the pooled read at eos {eos}, in a batch of {len(batch)}, is not bitwise "
                "encode(...).pooled: on this build the sums depend on n, so encode_pooled's "
                "grouping must change (a wider n, up to the context), not a tolerance")

    for p in prompts:
        check([p])
    # Batches of 2 and 7 of mixed lengths (and of mixed n at CLIP-L's
    # context), over three rounds of prompts to bound the test's time.
    order = [prompts[i] for i in rng.permutation(len(prompts))][:27]
    while order:
        for size in (2, 7):
            batch, order = order[:size], order[size:]
            if batch:
                check(batch)


@pytest.mark.parametrize("shape", [dict(context_length=77), CLIP_L_WIDTHS],
                         ids=["desk", "clip_l_widths"])
def test_a_mixed_length_stack_is_bitwise_each_row_alone(shape):
    bundle = make_bundle(seed=7, **shape)
    config, weights = bundle.config, bundle.weights
    rng = np.random.default_rng(3)
    rows = [tuple(int(i) for i in rng.integers(0, config.vocab_size, size=n))
            for n in (8, 16, 24, 77) for _ in range(2)]
    # A context-length row alone is an encode (eos placed anywhere).
    alone = {row: (encode(TokenSequence(row, 5), weights, config).sequence if len(row) == 77
                   else _forward([row], weights, config)).array.tobytes() for row in rows}
    ascending = sorted(rows, key=len)
    for stack in (ascending, ascending[::-1], [rows[k] for k in (0, 6, 2, 4, 5, 3, 7, 1)]):
        x, start = _forward(stack, weights, config).array, 0
        for row in stack:
            assert x[start:start + len(row)].tobytes() == alone[row], (
                f"a row of n={len(row)} in the stack {[len(r) for r in stack]} is not bitwise "
                "itself alone: on this build the forward must run one n per stack (one "
                "_forward per n), not a tolerance")
            start += len(row)
    # encode_reads: full states and pooled rows, from one stack, as encode_prompt's.
    words = sorted(bundle.vocab.tokens)
    full = [" ".join(rng.choice(words, size=3))]
    pooled = [full[0], *(" ".join(rng.choice(words, size=m)) for m in (1, 20))]
    states, rows_of = encode_reads(bundle, full, pooled)
    assert sorted(states) == sorted(full) and sorted(rows_of) == sorted(set(full + pooled))
    for p in full:
        h = bundle.encode_prompt(p)
        assert states[p].sequence.array.tobytes() == h.sequence.array.tobytes()
        assert states[p].eos_position == h.eos_position
    for p in rows_of:
        assert rows_of[p].array.tobytes() == bundle.encode_prompt(p).pooled.array.tobytes()


class TestSetWteRows:
    @pytest.mark.parametrize("ids,rows,error", [
        ([-1], np.zeros((1, 8)), IndexError),
        ([27], np.zeros((1, 8)), IndexError),
        ([4, 4], np.zeros((2, 8)), ValueError),
        ([4, 5], np.zeros(8), DimensionError),
        ([4], np.zeros((1, 7)), DimensionError),
        ([4], np.full((1, 8), np.inf), ValueError),
        ([True], np.zeros((1, 8)), TypeError),
        ([np.True_], np.zeros((1, 8)), TypeError),
        ([4, 1.0], np.zeros((2, 8)), TypeError),
        ([4, "3"], np.zeros((2, 8)), TypeError),
    ], ids=["negative", "past_vocab", "repeated", "one_row_for_two_ids", "narrow", "inf",
            "bool", "numpy_bool", "float", "string"])
    def test_rejects_before_writing(self, tiny_bundle, ids, rows, error):
        table = tiny_bundle.weights.wte
        assert table.shape == (27, 8)
        with pytest.raises(error):
            tiny_bundle.weights.set_wte_rows(ids, rows)
        assert tiny_bundle.weights.wte is table

    def test_writes_only_the_given_rows(self, tiny_bundle):
        before = tiny_bundle.weights.wte.array.copy()
        tiny_bundle.weights.set_wte_rows([5, 3], np.array([[1.0] * 8, [2.0] * 8]))
        after = tiny_bundle.weights.wte.array
        assert np.array_equal(after[[5, 3]], [[1.0] * 8, [2.0] * 8])
        assert np.array_equal(np.delete(after, [3, 5], axis=0), np.delete(before, [3, 5], axis=0))
        assert not after.flags.writeable

    def test_writes_rebind_and_share_the_base(self, tiny_bundle):
        weights = tiny_bundle.weights
        table = weights.wte
        weights.set_wte_rows([np.int64(5), 3], np.array([[1.0] * 8, [2.0] * 8]))
        assert weights.wte is not table and weights.wte.base is table.base
        assert table.override_ids == () and table.array is table.base.array
        assert weights.wte.override_ids == (3, 5)
        assert not weights.wte.overrides.array.flags.writeable

    @pytest.mark.parametrize("ids,error", [
        ([True], TypeError), ([np.False_], TypeError), ([2.0], TypeError),
        (["3"], TypeError), ([-1], IndexError), ([27], IndexError),
    ], ids=["bool", "numpy_bool", "float", "string", "negative", "past_vocab"])
    def test_rows_rejects_ids_that_are_not_rows(self, tiny_bundle, ids, error):
        with pytest.raises(error):
            tiny_bundle.weights.wte.rows(ids)

    def test_rows_apply_the_overrides(self, tiny_bundle):
        weights = tiny_bundle.weights
        weights.set_wte_rows([6, 2], np.array([[1.0] * 8, [2.0] * 8]))
        assert np.array_equal(weights.wte.rows([2, 9, 6, 2]),
                              weights.wte.array[[2, 9, 6, 2]])
        assert np.array_equal(weights.wte.rows([6]), [[1.0] * 8])

    def test_an_override_is_dropped_only_when_its_bytes_are_the_base_rows(self, tiny_bundle,
                                                                         tmp_path):
        config, weights, vocab = tiny_bundle.config, tiny_bundle.weights, tiny_bundle.vocab
        base = weights.wte.array.copy()
        base[4] = 0.0
        weights.wte = WteTable(Tensor(base))
        negative_zero = np.full((1, 8), -0.0)
        weights.set_wte_rows([4], negative_zero)
        # Equal in value, not in bytes: the row stays an override and is saved
        # with its own bytes.
        assert weights.wte.override_ids == (4,)
        assert weights.wte.rows([4]).tobytes() == negative_zero.tobytes()
        save_weights(tmp_path / "w.embedit", config, weights, vocab)
        assert load_weights(tmp_path / "w.embedit")[1].wte.array[4].tobytes() \
            == negative_zero[0].tobytes()
        weights.set_wte_rows([4], np.zeros((1, 8)))
        assert weights.wte.override_ids == ()
        assert weights.wte.array is weights.wte.base.array

    def test_overrides_encode_and_edit_bitwise_as_their_merged_table(self, tiny_bundle):
        config, weights, vocab = tiny_bundle.config, tiny_bundle.weights, tiny_bundle.vocab
        ids = [vocab.tokens["bear"], vocab.tokens["wolf"]]
        weights.set_wte_rows(ids, weights.wte.rows(ids) + 0.25)
        merged = dataclasses.replace(weights, wte=WteTable(Tensor(weights.wte.array)))
        for prompt in ("a bear", "a wolf with a bear", "red tree"):
            assert tiny_bundle.encode_prompt(prompt).sequence.array.tobytes() == \
                encode(tiny_bundle.tokenize(prompt), merged, config).sequence.array.tobytes()
        # The edit's gradients read the overridden row of "bear" through its leaf.
        hyper = EditHyperparams(stop_ratio=0.0, max_iters=3, learning_rate=1e-2)
        ledgers = [EditLedger(), EditLedger()]
        for w, ledger in zip((weights, merged), ledgers):
            edit_single(EncoderBundle(config, w, vocab),
                        EditRequest("a bear with a wolf", "a polar bear", "bear"), hyper, ledger)
        assert ledgers[0].to_json() == ledgers[1].to_json()


ZERO_ROWS = [4, 9]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_read_of_an_override_set_agrees_bitwise(data):
    # Writes of random rows, of -0.0 rows (over 0.0 base rows at ZERO_ROWS)
    # and of base rows written back; then rows(), .array and an encode
    # against the merged table must agree bitwise, and with the written rows.
    bundle = make_bundle()
    config, weights = bundle.config, bundle.weights
    n, d = weights.wte.shape
    base = weights.wte.array.copy()
    base[ZERO_ROWS] = 0.0
    weights.wte = WteTable(Tensor(base))
    expected = base.copy()
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    for _ in range(data.draw(st.integers(1, 4))):
        ids = data.draw(st.lists(st.sampled_from(ZERO_ROWS) | st.integers(0, n - 1),
                                 min_size=1, max_size=5, unique=True))
        kinds = data.draw(st.lists(st.sampled_from(["random", "negative_zero", "base"]),
                                   min_size=len(ids), max_size=len(ids)))
        rows = np.array([rng.normal(size=d) if kind == "random"
                         else np.full(d, -0.0) if kind == "negative_zero" else base[i]
                         for i, kind in zip(ids, kinds)])
        weights.set_wte_rows(ids, rows)
        expected[ids] = rows
    table = weights.wte
    assert table.array.tobytes() == expected.tobytes()
    assert table.rows(range(n)).tobytes() == expected.tobytes()
    if not table.override_ids:
        assert table.array is table.base.array
    seq = data.draw(st.lists(st.sampled_from([*table.override_ids, *ZERO_ROWS])
                             | st.integers(0, n - 1),
                             min_size=config.context_length, max_size=config.context_length))
    assert table.rows(seq).tobytes() == expected[seq].tobytes()
    tokens = TokenSequence(tuple(seq), config.context_length - 1)
    plain = dataclasses.replace(weights, wte=WteTable(Tensor(expected)))
    assert encode(tokens, weights, config).sequence.array.tobytes() == \
        encode(tokens, plain, config).sequence.array.tobytes()


class TestInitRandomWeights:
    def test_same_seed_is_bitwise_identical(self, vocab):
        config = make_config(vocab)
        w1 = init_random_weights(config, 42)
        w2 = init_random_weights(config, 42)
        for (n1, t1), (n2, t2) in zip(w1.named_tensors(), w2.named_tensors()):
            assert n1 == n2
            assert t1.array.tobytes() == t2.array.tobytes()

    def test_different_seeds_differ(self, vocab):
        config = make_config(vocab)
        w1 = init_random_weights(config, 1)
        w2 = init_random_weights(config, 2)
        assert not np.array_equal(w1.wte.array, w2.wte.array)

    def test_layer_norm_gains_are_exactly_one(self, vocab):
        config = make_config(vocab)
        w = init_random_weights(config, 7)
        for layer in w.layers:
            assert np.all(layer.ln1_gamma.array == 1.0)
            assert np.all(layer.ln2_gamma.array == 1.0)
            assert np.all(layer.ln1_beta.array == 0.0)
        assert np.all(w.final_gamma.array == 1.0)


def _explicit_draw_init(config, seed):
    """Reference: the draw sequence init_random_weights was first written as,
    one generator drawing wte, positional, then each layer's weights and
    biases; layer norms draw nothing."""
    rng = np.random.default_rng(seed)
    d, f = config.d_model, config.d_ff

    def normal(*shape):
        return rng.normal(0.0, 0.02, size=shape)

    out = {"wte": normal(config.vocab_size, d), "positional": normal(config.context_length, d)}
    for i in range(config.n_layers):
        for name, shape in [("wq", (d, d)), ("wk", (d, d)), ("wv", (d, d)), ("wo", (d, d)),
                            ("bq", (d,)), ("bk", (d,)), ("bv", (d,)), ("bo", (d,)),
                            ("mlp_w1", (d, f)), ("mlp_b1", (f,)), ("mlp_w2", (f, d)),
                            ("mlp_b2", (d,))]:
            out[f"layers.{i}.{name}"] = normal(*shape)
        for ln in ("ln1", "ln2"):
            out[f"layers.{i}.{ln}_gamma"], out[f"layers.{i}.{ln}_beta"] = np.ones(d), np.zeros(d)
    out["final_gamma"], out["final_beta"] = np.ones(d), np.zeros(d)
    return out


@pytest.mark.parametrize("shape", [
    dict(),
    dict(d_model=48, n_layers=3, n_heads=4, d_ff=96, context_length=12),
])
def test_init_draws_in_the_explicit_reference_order(vocab, shape):
    config = make_config(vocab, **shape)
    expected = _explicit_draw_init(config, 42)
    named = list(init_random_weights(config, 42).named_tensors())
    assert sorted(name for name, _ in named) == sorted(expected)
    for name, t in named:
        assert t.array.tobytes() == expected[name].tobytes(), name


class TestJsonSchema:
    def test_config_round_trips(self, vocab):
        config = make_config(vocab)
        assert EncoderConfig.from_json(config.to_json()) == config

    def test_config_integer_eps_reads_as_float(self, vocab):
        obj = {**make_config(vocab).to_json(), "eps": 0}
        assert type(EncoderConfig.from_json(obj).eps) is float

    @pytest.mark.parametrize("damage", [
        {"d_model": 8.7}, {"d_model": 8.0}, {"d_model": "8"}, {"n_layers": True},
        {"eps": float("nan")}, {"eps": float("inf")}, {"eps": 10 ** 400}, {"eps": "1e-5"},
        {"extra": 1}, {"n_heads": 3},
    ])
    def test_config_rejects(self, vocab, damage):
        with pytest.raises(ValueError):
            EncoderConfig.from_json({**make_config(vocab).to_json(), **damage})

    @pytest.mark.parametrize("key", ["vocab_size", "d_model", "eps"])
    def test_config_rejects_missing_key(self, vocab, key):
        obj = make_config(vocab).to_json()
        del obj[key]
        with pytest.raises(ValueError):
            EncoderConfig.from_json(obj)

    def test_vocab_to_json_is_its_fields_as_a_copy(self, vocab):
        # Archive headers and save_vocab write this object: it must be what
        # dataclasses.asdict gives, and changing it must not change the vocab.
        obj = vocab.to_json()
        assert obj == dataclasses.asdict(vocab)
        obj["tokens"].clear()
        obj["splits"]["icecream"].clear()
        assert vocab.to_json() == dataclasses.asdict(vocab) != obj

    def test_vocab_round_trips_and_splits_are_optional(self, vocab):
        assert Vocab.from_json(vocab.to_json()) == vocab
        obj = make_vocab().to_json()
        del obj["splits"]
        assert Vocab.from_json(obj) == make_vocab()

    @pytest.mark.parametrize("damage", [
        {"bos": 0.9}, {"eos": "1"}, {"pad": False}, {"tokens": [["a", 3]]},
        {"splits": {"icecream": "ice cream"}}, {"splits": {"icecream": [3]}},
        {"extra": 1}, {"pad": 0},
    ])
    def test_vocab_rejects(self, vocab, damage):
        with pytest.raises(ValueError):
            Vocab.from_json({**vocab.to_json(), **damage})

    def test_vocab_rejects_missing_reserved_id_and_non_object(self, vocab):
        obj = vocab.to_json()
        del obj["pad"]
        for bad in (obj, [vocab.to_json()]):
            with pytest.raises(ValueError):
                Vocab.from_json(bad)


class TestEncoderConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, d_model=8, n_layers=1, n_heads=3,
                          d_ff=16, context_length=8)

    def test_context_length_minimum(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, d_model=8, n_layers=1, n_heads=2,
                          d_ff=16, context_length=2)
