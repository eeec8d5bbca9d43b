import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedit import (
    EncoderConfig,
    Tape,
    Tensor,
    Vocab,
    encode,
    init_random_weights,
    tokenize,
)
from embedit.errors import (
    DimensionError,
    EmptyPromptError,
    PromptTooLongError,
    TapeUsageError,
    UnknownTokenError,
)

from conftest import make_config, make_vocab


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

    def test_taped_encode_matches_untaped_bitwise(self, tiny_bundle):
        plain = tiny_bundle.encode_prompt("a bear")
        tape = Tape()
        bear = tiny_bundle.vocab.tokens["bear"]
        leaf = Tensor(tiny_bundle.weights.wte.array[[bear]])
        taped = tiny_bundle.encode_prompt("a bear", tape, edit_rows=([bear], leaf))
        assert plain.sequence.array.tobytes() == taped.sequence.array.tobytes()


class TestSetWteRows:
    @pytest.mark.parametrize("ids,rows,error", [
        ([-1], np.zeros((1, 8)), IndexError),
        ([27], np.zeros((1, 8)), IndexError),
        ([4, 4], np.zeros((2, 8)), ValueError),
        ([4, 5], np.zeros(8), DimensionError),
        ([4], np.zeros((1, 7)), DimensionError),
        ([4], np.full((1, 8), np.inf), ValueError),
    ], ids=["negative", "past_vocab", "repeated", "one_row_for_two_ids", "narrow", "inf"])
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


class TestEncoderConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, d_model=8, n_layers=1, n_heads=3,
                          d_ff=16, context_length=8)

    def test_context_length_minimum(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, d_model=8, n_layers=1, n_heads=2,
                          d_ff=16, context_length=2)

    def test_wide_config_params_per_row(self):
        config = EncoderConfig(vocab_size=30, d_model=768, n_layers=1, n_heads=8,
                               d_ff=64, context_length=8)
        assert config.params_per_wte_row == 768


def test_shape_validation_catches_wrong_layer_count(vocab):
    config = make_config(vocab)
    w = init_random_weights(config, 0)
    w.layers = w.layers[:1]
    with pytest.raises(DimensionError):
        w.validate_shapes(config)
