import copy
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedit import (
    EditHyperparams,
    EditLedger,
    EditRequest,
    LossPositions,
    OptimizerKind,
    Tensor,
    budget_report,
    edit_multi_encoder,
    edit_sequential,
    edit_single,
    mse_hidden,
    revert,
    target_token_ids,
)
from embedit.autodiff import add, mean_square
from embedit.editor import LedgerEntry, _optimize_rows, check_request
from embedit.encoder import HiddenStates
from embedit.errors import (
    DimensionError,
    DivergenceError,
    EmptyPromptError,
    InconsistentRequestError,
    LedgerFormatError,
    LedgerRangeError,
)

from conftest import diverge_adam, make_bundle, make_vocab, zero_row_ledger
from test_archive import JSON_VALUES, _slots


def hs(matrix, eos_position=None):
    t = Tensor(matrix)
    eos = t.shape[0] - 1 if eos_position is None else eos_position
    return HiddenStates(sequence=t, eos_position=eos)


def wte_bytes(bundle):
    return bundle.weights.wte.array.tobytes()


class TestMseHidden:
    def test_identity_is_zero(self):
        h = hs([[1.0, 2.0], [3.0, 4.0]])
        assert mse_hidden(h, h, LossPositions.FULL_SEQUENCE) == 0.0

    def test_hand_arithmetic(self):
        # single row [3,4] vs [0,0]: (9 + 16) / 2 = 12.5
        a = hs([[3.0, 4.0]])
        b = hs([[0.0, 0.0]])
        assert mse_hidden(a, b, LossPositions.FULL_SEQUENCE) == 12.5

    def test_zeros_vs_ones(self):
        a = hs(np.zeros((5, 3)))
        b = hs(np.ones((5, 3)))
        assert mse_hidden(a, b, LossPositions.FULL_SEQUENCE) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse_hidden(hs(np.zeros((2, 2))), hs(np.zeros((3, 2))), LossPositions.FULL_SEQUENCE)

    def test_up_to_eos_scores_through_later_eos(self):
        # Rows 0..max(eos1, eos2) inclusive; the difference past that row is ignored.
        a = np.zeros((4, 2))
        b = np.zeros((4, 2))
        b[3] = 100.0  # beyond both EOS positions
        b[1] = 1.0
        h1 = hs(a, eos_position=1)
        h2 = hs(b, eos_position=2)
        expected = np.mean((a[:3] - b[:3]) ** 2)
        assert mse_hidden(h1, h2, LossPositions.UP_TO_EOS) == expected
        assert mse_hidden(h1, h2, "up_to_eos") == expected

    def test_positions_that_name_no_member_raise(self):
        h = hs(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="is not a valid LossPositions"):
            mse_hidden(h, h, "nonsense")


class TestTargetTokenIds:
    def test_single_word(self, vocab):
        req = EditRequest("a bear", "a polar bear", "bear")
        assert target_token_ids(req, vocab) == {vocab.tokens["bear"]}

    def test_multi_word_target(self, vocab):
        req = EditRequest("a ice cream", "a red ice cream", "ice cream")
        assert target_token_ids(req, vocab) == {vocab.tokens["ice"], vocab.tokens["cream"]}

    def test_split_word_target(self, vocab):
        req = EditRequest("a icecream", "red icecream", "icecream")
        assert target_token_ids(req, vocab) == {vocab.tokens["ice"], vocab.tokens["cream"]}

    def test_target_missing_from_source(self, vocab):
        req = EditRequest("a cat", "a polar bear", "bear")
        with pytest.raises(InconsistentRequestError):
            target_token_ids(req, vocab)

    def test_whitespace_only_target_is_an_empty_prompt(self, vocab):
        with pytest.raises(EmptyPromptError):
            target_token_ids(EditRequest("a bear", "a wolf", " \t "), vocab)

    def test_check_request_returns_what_the_edit_runs_on(self, vocab):
        # edit_single's prologue: the sorted target ids and both prompts' tokens.
        bundle = make_bundle(vocab=vocab)
        req = EditRequest("a icecream", "red icecream", "icecream")
        assert check_request(bundle, req) == (
            sorted([vocab.tokens["ice"], vocab.tokens["cream"]]),
            bundle.tokenize("a icecream"), bundle.tokenize("red icecream"))


class TestReturnedEntry:
    HYPER = EditHyperparams(stop_ratio=0.2, max_iters=20, learning_rate=1e-2)

    def test_edit_single_returns_the_entry_it_appended(self):
        ledger = zero_row_ledger(8, [30])
        entry = edit_single(make_bundle(), EditRequest("bear", "wolf", "bear"), self.HYPER,
                            ledger)
        assert len(ledger) == 2
        assert entry is ledger.entries[1]

    def test_edit_sequential_returns_the_entries_it_appended(self):
        ledger = EditLedger()
        entries = edit_sequential(make_bundle(), [EditRequest("bear", "wolf", "bear"),
                                                  EditRequest("a cat", "a dog", "cat")],
                                  self.HYPER, ledger)
        assert len(entries) == len(ledger) == 2
        assert all(a is b for a, b in zip(entries, ledger.entries))

    def test_edit_multi_encoder_returns_each_ledgers_entry(self):
        ledgers = [EditLedger(), EditLedger()]
        entries = edit_multi_encoder([make_bundle(seed=1), make_bundle(seed=2)],
                                     EditRequest("bear", "wolf", "bear"), self.HYPER, ledgers)
        assert len(entries) == 2
        assert all(e is ledger.entries[0] for e, ledger in zip(entries, ledgers))

    def test_an_entry_equals_its_copy_and_compares_rows_by_bytes(self):
        entry = zero_row_ledger(3, [5, 6]).entries[0]
        assert entry == copy.deepcopy(entry)
        assert entry == dataclasses.replace(entry, new_rows=entry.new_rows.copy())
        signed = dataclasses.replace(entry, new_rows=-entry.new_rows)
        assert signed.new_rows.tolist() == entry.new_rows.tolist()  # equal as numbers
        assert signed != entry
        assert dataclasses.replace(entry, final_loss=0.5) != entry
        assert entry != object()


class TestEditSingle:
    def test_stop_ratio_one_takes_zero_steps(self):
        bundle = make_bundle()
        before = wte_bytes(bundle)
        ledger = EditLedger()
        res = edit_single(
            bundle, EditRequest("a bear", "a polar bear", "bear"),
            EditHyperparams(stop_ratio=1.0), ledger,
        )
        assert res.optimizer_steps == 0
        assert res.iterations_run == 1
        assert res.converged
        assert res.threshold_tau == res.initial_loss
        assert wte_bytes(bundle) == before
        assert len(ledger) == 1

    def test_identical_prompts_converge_immediately(self):
        bundle = make_bundle()
        res = edit_single(
            bundle, EditRequest("a bear", "a bear", "bear"),
            EditHyperparams(stop_ratio=0.5), EditLedger(),
        )
        assert res.initial_loss == 0.0
        assert res.threshold_tau == 0.0
        assert res.converged
        assert res.optimizer_steps == 0

    def test_regression_values_frozen_from_first_run(self):
        # Recorded from this implementation's first run of this exact fixture.
        bundle = make_bundle(seed=42)
        res = edit_single(
            bundle, EditRequest("a bear", "a wolf", "bear"),
            EditHyperparams(stop_ratio=0.2, max_iters=500, learning_rate=1e-2),
            EditLedger(),
        )
        assert res.converged
        assert res.final_loss <= 0.2 * res.initial_loss
        assert res.initial_loss == pytest.approx(0.032155502615547296, rel=1e-10)
        assert res.threshold_tau == pytest.approx(0.00643110052310946, rel=1e-10)
        assert res.final_loss == pytest.approx(0.004338626768723579, rel=1e-10)
        assert res.iterations_run == 3
        assert res.optimizer_steps == 2

    @pytest.mark.parametrize("positions", list(LossPositions))
    def test_tau_is_exact_product(self, positions):
        # The initial loss is the unedited source's loss, computed here
        # without the edit loop; tau is exactly stop_ratio times it.
        bundle = make_bundle()
        initial = mse_hidden(bundle.encode_prompt("a bear"),
                             bundle.encode_prompt("a polar bear"), positions)
        res = edit_single(
            bundle, EditRequest("a bear", "a polar bear", "bear"),
            EditHyperparams(stop_ratio=0.37, max_iters=5, loss_positions=positions),
            EditLedger(),
        )
        assert res.initial_loss == initial
        assert res.threshold_tau == 0.37 * res.initial_loss

    def test_only_target_rows_change(self):
        bundle = make_bundle()
        before = {n: t.array.copy() for n, t in bundle.weights.named_tensors()}
        res = edit_single(
            bundle, EditRequest("a bear with a cat", "a polar bear with a cat", "bear"),
            EditHyperparams(stop_ratio=0.8, max_iters=50, learning_rate=1e-2),
            EditLedger(),
        )
        assert res.optimizer_steps >= 1
        target = bundle.vocab.tokens["bear"]
        for name, tensor in bundle.weights.named_tensors():
            if name == "wte":
                continue
            assert np.array_equal(tensor.array, before[name]), name
        # The differing scalars are exactly the target row's d_model entries.
        wte_after = bundle.weights.wte.array
        diff = wte_after != before["wte"]
        assert np.all(diff[target])
        assert not np.any(np.delete(diff, target, axis=0))

    def test_non_finite_step_raises_divergence(self, monkeypatch):
        import embedit.optim as optim

        monkeypatch.setattr(
            optim.Adam, "step", lambda self, p, g: np.full_like(p, np.inf)
        )
        bundle = make_bundle()
        with pytest.raises(DivergenceError) as exc:
            edit_single(
                bundle, EditRequest("a bear", "a wolf", "bear"),
                EditHyperparams(stop_ratio=0.0, max_iters=3), EditLedger(),
            )
        assert exc.value.iteration == 1

    def test_divergence_mid_loop_leaves_table_and_ledger_untouched(self, monkeypatch):
        diverge_adam(monkeypatch, nth_adam=1, nth_step=2)
        bundle = make_bundle()
        before = wte_bytes(bundle)
        ledger = EditLedger()
        with pytest.raises(DivergenceError) as exc:
            edit_single(
                bundle, EditRequest("a bear", "a wolf", "bear"),
                EditHyperparams(stop_ratio=0.0, max_iters=5), ledger,
            )
        assert exc.value.iteration == 2
        assert wte_bytes(bundle) == before
        assert len(ledger) == 0

    @staticmethod
    def diverge_at_scale(final_gamma):
        """The DivergenceError of editing "a bear" toward "a polar bear" at
        d=8, one layer, seed 0, with the final layer norm scaled by
        final_gamma; numpy must not warn, and the table and the ledger must
        be left as they were."""
        bundle, ledger = make_bundle(seed=0, n_layers=1), EditLedger()
        bundle.weights.final_gamma = Tensor(np.full(8, final_gamma))
        before = wte_bytes(bundle)
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(DivergenceError) as exc:
            warnings.simplefilter("always")
            edit_single(bundle, EditRequest("a bear", "a polar bear", "bear"),
                        EditHyperparams(stop_ratio=0.0, max_iters=5), ledger)
        assert [str(w.message) for w in caught] == []
        assert wte_bytes(bundle) == before
        assert len(ledger) == 0
        return exc.value

    @pytest.mark.parametrize("final_gamma", [1e154, 1e157, 1e160])
    def test_a_loss_that_overflows_is_reported_as_the_loss(self, final_gamma):
        # The hidden states are finite; squaring their differences is not.
        error = self.diverge_at_scale(final_gamma)
        assert str(error) == "loss became non-finite (iteration 1)"
        assert error.iteration == 1

    def test_a_loss_that_sums_past_the_float_range_is_a_divergence(self):
        # add adopts its output unchecked, as auto mode's reward-penalty sum
        # does, so two finite terms can sum to infinity without raising.
        bundle, ledger = make_bundle(), EditLedger()
        request = EditRequest("a bear", "a wolf", "bear")
        ids, tokens, _ = check_request(bundle, request)
        before = wte_bytes(bundle)

        def loss(h, tape):
            term = add(mean_square(h.sequence, tape), Tensor(1e308), tape)
            return add(term, Tensor(1e308), tape)

        with pytest.raises(DivergenceError) as exc:
            _optimize_rows(bundle, request, ids, bundle.weights.wte.rows(ids), tokens, loss,
                           EditHyperparams(stop_ratio=0.0, max_iters=3), ledger)
        assert str(exc.value) == "loss became non-finite (iteration 1)"
        assert wte_bytes(bundle) == before
        assert len(ledger) == 0

    @pytest.mark.parametrize("final_gamma", [1e150, 1e153])
    def test_a_gradient_whose_norm_overflows_is_a_divergence(self, final_gamma):
        # The loss and the gradient are finite, but the gradient's square is
        # not: Adam would step by exactly zero, hiding the blow-up.
        error = self.diverge_at_scale(final_gamma)
        assert str(error) == "gradient norm became non-finite (iteration 1)"
        assert error.iteration == 1

    def test_a_non_finite_gradient_is_reported_from_the_backward_pass(self, monkeypatch):
        # The loss's VJP returns infinities from the second iteration's
        # backward pass on.
        import embedit.autodiff as autodiff

        real_record, losses = autodiff._maybe_record, []

        def record(tape, out, inputs, vjp):
            if tape is not None and out.size == 1:
                losses.append(out)
                if len(losses) >= 2:
                    def vjp(g):
                        return tuple(np.full(x.shape, np.inf) for x in inputs)
            real_record(tape, out, inputs, vjp)

        monkeypatch.setattr(autodiff, "_maybe_record", record)
        bundle, ledger = make_bundle(), EditLedger()
        before = wte_bytes(bundle)
        with pytest.raises(DivergenceError) as exc:
            edit_single(bundle, EditRequest("a bear", "a wolf", "bear"),
                        EditHyperparams(stop_ratio=0.0, max_iters=5), ledger)
        assert str(exc.value) == "backward pass: tensor entries must be finite (iteration 2)"
        assert exc.value.iteration == 2
        assert wte_bytes(bundle) == before
        assert len(ledger) == 0

    def test_an_entry_that_is_rejected_leaves_table_and_ledger_untouched(self, monkeypatch):
        def reject(**fields):
            raise LedgerFormatError("rejected")

        monkeypatch.setattr("embedit.editor.LedgerEntry", reject)
        bundle = make_bundle()
        table, ledger = bundle.weights.wte, EditLedger()
        with pytest.raises(LedgerFormatError, match="rejected"):
            edit_single(bundle, EditRequest("a bear", "a wolf", "bear"),
                        EditHyperparams(stop_ratio=0.0, max_iters=3), ledger)
        assert bundle.weights.wte is table
        assert len(ledger) == 0

    def test_the_table_holds_the_entrys_new_rows_bytewise(self, monkeypatch):
        # A step that flips only the signs of zeros: rows equal to the
        # table's in value but not in bytes are still written.
        monkeypatch.setattr("embedit.editor.Adam.step", lambda self, rows, g: -rows)
        bundle, ledger = make_bundle(), EditLedger()
        bear = bundle.vocab.tokens["bear"]
        bundle.weights.set_wte_rows([bear], np.zeros((1, 8)))
        result = edit_single(bundle, EditRequest("bear", "wolf", "bear"),
                             EditHyperparams(stop_ratio=0.0, max_iters=1), ledger)
        assert result.optimizer_steps == 1
        assert bundle.weights.wte.rows([bear]).tobytes() == ledger.entries[0].new_rows.tobytes()
        revert(bundle.weights, ledger, 1)
        assert bundle.weights.wte.rows([bear]).tobytes() == np.zeros((1, 8)).tobytes()

    def test_sgd_optimizer_also_converges(self):
        bundle = make_bundle()
        res = edit_single(
            bundle, EditRequest("bear", "wolf", "bear"),
            EditHyperparams(stop_ratio=0.5, max_iters=400, learning_rate=0.5,
                            optimizer=OptimizerKind.SGD),
            EditLedger(),
        )
        assert res.converged

    def test_up_to_eos_positions_also_converges(self):
        bundle = make_bundle()
        res = edit_single(
            bundle, EditRequest("bear", "wolf", "bear"),
            EditHyperparams(stop_ratio=0.2, max_iters=500, learning_rate=1e-2,
                            loss_positions=LossPositions.UP_TO_EOS),
            EditLedger(),
        )
        assert res.converged

    @pytest.mark.parametrize("field,value", [
        ("optimizer", "adam"), ("optimizer", "sgd"), ("loss_positions", "up_to_eos"),
    ])
    def test_a_setting_given_as_a_string_runs_as_its_member(self, monkeypatch, field, value):
        import embedit.optim as optim

        adam_step = optim.Adam.step
        steps = []
        monkeypatch.setattr(optim.Adam, "step",
                            lambda self, p, g: steps.append(1) or adam_step(self, p, g))
        member = type(getattr(EditHyperparams(), field))(value)
        ledgers, adam_steps = [], []
        for setting in (value, member):
            hyper = EditHyperparams(stop_ratio=0.0, max_iters=3, learning_rate=1e-2,
                                    **{field: setting})
            assert getattr(hyper, field) is member
            ledger, before = EditLedger(), len(steps)
            res = edit_single(make_bundle(), EditRequest("a bear", "a wolf", "bear"), hyper,
                              ledger)
            ledgers.append(json.dumps(ledger.to_json()))
            adam_steps.append(len(steps) - before)
        assert ledgers[0] == ledgers[1]
        adam = hyper.optimizer is OptimizerKind.ADAM
        assert adam_steps == [res.optimizer_steps if adam else 0] * 2
        assert res.optimizer_steps > 0


class TestEditSequential:
    def test_disjoint_edits_match_independent_single_edits(self):
        hyper = EditHyperparams(stop_ratio=0.2, max_iters=300, learning_rate=1e-2)
        reqs = [
            EditRequest("bear", "wolf", "bear"),
            EditRequest("cat", "dog", "cat"),
        ]

        seq_bundle = make_bundle()
        seq_results = edit_sequential(seq_bundle, reqs, hyper, EditLedger())

        single_rows = {}
        single_results = []
        for req in reqs:
            b = make_bundle()
            single_results.append(edit_single(b, req, hyper, EditLedger()))
            tid = b.vocab.tokens[req.target_word]
            single_rows[tid] = b.weights.wte.array[tid].copy()

        for rs, rss in zip(seq_results, single_results):
            assert rs == rss
        for tid, row in single_rows.items():
            assert seq_bundle.weights.wte.array[tid].tobytes() == row.tobytes()

    def test_a_replaced_reference_keeps_its_rows_across_edits(self):
        # cmd_gender's reference bundle is made this way: every tensor shared.
        bundle = make_bundle()
        reference = dataclasses.replace(bundle.weights)
        table = bundle.weights.wte
        before = wte_bytes(bundle)
        states = bundle.encode_prompt("a bear with a cat").sequence.array.tobytes()
        hyper = EditHyperparams(stop_ratio=0.0, max_iters=2, learning_rate=1e-2)
        for req in [EditRequest("a bear", "a wolf", "bear"), EditRequest("a cat", "a dog", "cat"),
                    EditRequest("a bear", "a fox", "bear")]:
            edit_single(bundle, req, hyper, EditLedger())
            assert reference.wte is table and reference.wte.array.tobytes() == before
        tokens = bundle.vocab.tokens
        assert bundle.weights.wte.base is table.base
        assert bundle.weights.wte.override_ids == tuple(sorted([tokens["bear"], tokens["cat"]]))
        ref_bundle = dataclasses.replace(bundle, weights=reference)
        assert ref_bundle.encode_prompt("a bear with a cat").sequence.array.tobytes() == states

    def test_repeated_request_starts_near_destination(self):
        bundle = make_bundle()
        hyper = EditHyperparams(stop_ratio=0.3, max_iters=300, learning_rate=1e-2)
        req = EditRequest("bear", "wolf", "bear")
        first, second = edit_sequential(bundle, [req, req], hyper, EditLedger())
        assert second.initial_loss <= first.final_loss * (1 + 1e-9)

    def test_empty_request_list(self):
        bundle = make_bundle()
        before = wte_bytes(bundle)
        assert edit_sequential(bundle, [], EditHyperparams(), EditLedger()) == []
        assert wte_bytes(bundle) == before

    def test_failure_keeps_completed_entries(self):
        bundle = make_bundle()
        ledger = EditLedger()
        reqs = [
            EditRequest("bear", "wolf", "bear"),
            EditRequest("a cat", "a dog", "bear"),  # target not in source
        ]
        with pytest.raises(InconsistentRequestError):
            edit_sequential(bundle, reqs, EditHyperparams(stop_ratio=0.5, max_iters=50,
                                                          learning_rate=1e-2), ledger)
        assert len(ledger) == 1
        assert ledger.entries[0].target_word == "bear"


class TestRevert:
    def test_edit_then_revert_restores_bitwise(self):
        bundle = make_bundle()
        before = wte_bytes(bundle)
        ledger = EditLedger()
        edit_single(bundle, EditRequest("bear", "wolf", "bear"),
                    EditHyperparams(stop_ratio=0.2, max_iters=300, learning_rate=1e-2), ledger)
        assert wte_bytes(bundle) != before
        revert(bundle.weights, ledger, 1)
        assert wte_bytes(bundle) == before
        assert len(ledger) == 0

    def test_partial_revert_of_overlapping_edits(self):
        bundle = make_bundle()
        hyper = EditHyperparams(stop_ratio=0.5, max_iters=100, learning_rate=1e-2)
        original = wte_bytes(bundle)
        ledger = EditLedger()
        edit_single(bundle, EditRequest("bear", "wolf", "bear"), hyper, ledger)
        after_first = wte_bytes(bundle)
        edit_single(bundle, EditRequest("a bear", "a fox", "bear"), hyper, ledger)

        revert(bundle.weights, ledger, 1)
        assert wte_bytes(bundle) == after_first
        revert(bundle.weights, ledger, 1)
        assert wte_bytes(bundle) == original

    def test_full_revert_of_overlapping_edits_at_once(self):
        bundle = make_bundle()
        hyper = EditHyperparams(stop_ratio=0.5, max_iters=100, learning_rate=1e-2)
        original = wte_bytes(bundle)
        ledger = EditLedger()
        edit_sequential(bundle, [
            EditRequest("bear", "wolf", "bear"),
            EditRequest("a bear", "a fox", "bear"),
        ], hyper, ledger)
        revert(bundle.weights, ledger, 2)
        assert wte_bytes(bundle) == original
        assert bundle.weights.wte.override_ids == ()
        assert bundle.weights.wte.array is bundle.weights.wte.base.array

    def test_revert_zero_is_noop(self):
        bundle = make_bundle()
        ledger = EditLedger()
        edit_single(bundle, EditRequest("bear", "wolf", "bear"),
                    EditHyperparams(stop_ratio=0.5, max_iters=50, learning_rate=1e-2), ledger)
        state = wte_bytes(bundle)
        revert(bundle.weights, ledger, 0)
        assert wte_bytes(bundle) == state
        assert len(ledger) == 1

    def test_revert_too_deep_is_range_error(self):
        bundle = make_bundle()
        with pytest.raises(LedgerRangeError):
            revert(bundle.weights, EditLedger(), 1)

    @pytest.mark.parametrize("table", ["other_seed", "unedited_base", "edited_further"])
    def test_revert_onto_a_table_the_ledger_did_not_write_is_refused(self, table):
        bundle, ledger = make_bundle(), EditLedger()
        hyper = EditHyperparams(stop_ratio=0.2, max_iters=50, learning_rate=1e-2)
        assert edit_single(bundle, EditRequest("bear", "wolf", "bear"), hyper,
                           ledger).optimizer_steps > 0
        weights = bundle.weights
        if table == "other_seed":
            weights = make_bundle(seed=7).weights
        elif table == "unedited_base":
            weights = make_bundle().weights
        else:  # one more edit of the same word, outside the ledger
            assert edit_single(bundle, EditRequest("a bear", "a fox", "bear"), hyper,
                               EditLedger()).optimizer_steps > 0
        wte, bear = weights.wte, bundle.vocab.tokens["bear"]
        with pytest.raises(LedgerFormatError,
                           match=f"^ledger entry 0: the table's row {bear} is not the row"):
            revert(weights, ledger, 1)
        assert weights.wte is wte
        assert len(ledger) == 1

    def test_revert_names_the_newest_entry_that_wrote_the_row(self):
        bundle, ledger = make_bundle(), EditLedger()
        hyper = EditHyperparams(stop_ratio=0.5, max_iters=100, learning_rate=1e-2)
        edit_sequential(bundle, [EditRequest("bear", "wolf", "bear"),
                                 EditRequest("a cat", "a dog", "cat"),
                                 EditRequest("a bear", "a fox", "bear")], hyper, ledger)
        bear, cat = (bundle.vocab.tokens[w] for w in ("bear", "cat"))
        base = make_bundle().weights
        with pytest.raises(LedgerFormatError, match=f"^ledger entry 2: the table's row {bear} "):
            revert(base, ledger, 3)
        base.set_wte_rows([bear], ledger.entries[2].new_rows)
        with pytest.raises(LedgerFormatError, match=f"^ledger entry 1: the table's row {cat} "):
            revert(base, ledger, 3)
        assert len(ledger) == 3

    @staticmethod
    def chain(i, *rows):
        """A ledger for id i with one entry per (original, new) pair of rows."""
        ledger = EditLedger()
        for original, new in zip(rows[::2], rows[1::2]):
            ledger.append(LedgerEntry("s", "d", "t", (i,), np.array([original]),
                                      np.array([new]), 1.0, 0.2, 0.1, 1, 1, True))
        return ledger

    def test_revert_refuses_an_older_entry_of_another_width(self):
        weights = make_bundle().weights
        ledger = self.chain(4, np.zeros(5), np.ones(5), np.zeros(8), weights.wte.rows([4])[0])
        wte = weights.wte
        with pytest.raises(LedgerFormatError,
                           match=r"^ledger entry 0: rows of width 5, d_model is 8$"):
            revert(weights, ledger, 2)
        assert weights.wte is wte
        assert len(ledger) == 2

    @pytest.mark.parametrize("n_last", [0, 1])
    @pytest.mark.parametrize("d,ids,message", [
        (8, (999,), r"id 999 is not in \[0, 27\)"), (5, (3,), "rows of width 5, d_model is 8"),
    ], ids=["id", "width"])
    def test_revert_refuses_a_ledger_that_does_not_fit_at_any_depth(self, n_last, d, ids,
                                                                     message):
        # The older entry does not fit; undoing only the newer, or nothing,
        # is refused all the same, as report refuses the ledger.
        bundle, ledger = make_bundle(), zero_row_ledger(d, ids)
        edit_single(bundle, EditRequest("bear", "wolf", "bear"),
                    EditHyperparams(stop_ratio=0.5, max_iters=20, learning_rate=1e-2), ledger)
        wte, state = bundle.weights.wte, wte_bytes(bundle)
        with pytest.raises(LedgerFormatError, match=f"^ledger entry 0: {message}$"):
            revert(bundle.weights, ledger, n_last)
        assert bundle.weights.wte is wte and wte_bytes(bundle) == state
        assert len(ledger) == 2

    def test_check_fits_names_the_first_entry_that_does_not_fit(self):
        ledger = zero_row_ledger(8, [3], [26], [27], [4])
        ledger.check_fits(28, 8)
        with pytest.raises(LedgerFormatError,
                           match=r"^ledger entry 2: id 27 is not in \[0, 27\)$"):
            ledger.check_fits(27, 8)
        with pytest.raises(LedgerFormatError,
                           match="^ledger entry 0: rows of width 8, d_model is 4$"):
            ledger.check_fits(28, 4)

    def test_revert_refuses_a_ledger_that_disagrees_with_itself(self):
        weights = make_bundle().weights
        # Entry 1 found 2s where entry 0 says it wrote 1s.
        ledger = self.chain(4, np.zeros(8), np.ones(8), np.full(8, 2.0),
                            weights.wte.rows([4])[0])
        wte = weights.wte
        with pytest.raises(LedgerFormatError, match="^ledger entry 0: the table's row 4 "):
            revert(weights, ledger, 2)
        assert weights.wte is wte
        assert len(ledger) == 2
        # Undoing only the newer entry never meets the break.
        revert(weights, ledger, 1)
        assert weights.wte.rows([4]).tobytes() == np.full((1, 8), 2.0).tobytes()
        assert len(ledger) == 1

    def test_revert_from_reloaded_ledger(self, tmp_path):
        bundle = make_bundle()
        before = wte_bytes(bundle)
        ledger = EditLedger()
        edit_single(bundle, EditRequest("bear", "wolf", "bear"),
                    EditHyperparams(stop_ratio=0.2, max_iters=300, learning_rate=1e-2), ledger)
        path = tmp_path / "ledger.json"
        ledger.save(path)
        reloaded = EditLedger.load(path)
        revert(bundle.weights, reloaded, 1)
        assert wte_bytes(bundle) == before


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def ledgers(draw, d=None, n_ids=10 ** 6):
    """Valid ledgers whose entries all have rows of width d (drawn if None)
    and ids below n_ids."""
    d = draw(st.integers(1, 4)) if d is None else d
    ledger = EditLedger()
    for _ in range(draw(st.integers(0, 3))):
        ids = tuple(draw(st.lists(st.integers(0, n_ids - 1), min_size=1, max_size=3,
                                  unique=True)))
        block = st.lists(st.lists(FINITE, min_size=d, max_size=d),
                         min_size=len(ids), max_size=len(ids))
        ledger.append(LedgerEntry(draw(st.text()), draw(st.text()), draw(st.text()), ids,
                                  draw(block), draw(block), draw(FINITE), draw(FINITE),
                                  draw(FINITE), draw(st.integers(0, 99)),
                                  draw(st.integers(0, 99)), draw(st.booleans())))
    return ledger


class TestLedgerJson:
    @settings(max_examples=100, deadline=None)
    @given(ledger=ledgers())
    def test_round_trip_is_bitwise(self, ledger):
        text = json.dumps(ledger.to_json())
        back = EditLedger.from_json(json.loads(text))
        assert json.dumps(back.to_json()) == text
        assert back == ledger
        for a, b in zip(ledger.entries, back.entries, strict=True):
            assert a.edited_token_ids == b.edited_token_ids
            assert a.original_rows.tobytes() == b.original_rows.tobytes()
            assert a.new_rows.tobytes() == b.new_rows.tobytes()

    def test_entry_rows_are_read_only_float64_copies(self):
        rows = np.ones((1, 3), dtype=np.float32)
        entry = zero_row_ledger(3, [5]).entries[0]
        entry = dataclasses.replace(entry, original_rows=rows, new_rows=rows)
        rows[0, 0] = 7.0
        assert entry.original_rows.dtype == np.float64
        assert not entry.original_rows.flags.writeable
        assert entry.original_rows.tolist() == [[1.0, 1.0, 1.0]]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_damaged_json_raises_only_ledger_format_error(self, data):
        """Damage anywhere in a saved ledger: from_json accepts it or raises
        LedgerFormatError, and revert of what it accepts writes the table or
        raises LedgerFormatError."""
        bundle = make_bundle()
        n, d = bundle.weights.wte.shape
        obj = data.draw(ledgers(d=d, n_ids=n).filter(len)).to_json()
        for _ in range(data.draw(st.integers(1, 3))):
            slots = list(_slots(obj))
            if not slots:
                break
            node, key = data.draw(st.sampled_from(slots))
            kind = data.draw(st.sampled_from(["replace", "nudge", "delete", "duplicate"]))
            if kind == "replace":
                node[key] = data.draw(JSON_VALUES | st.just(10 ** 400) | st.just([[0.0] * d]))
            elif kind == "nudge" and type(node[key]) in (int, float):
                node[key] += data.draw(st.integers(-16, 16))
            elif kind == "delete" and len(slots) > 1:
                del node[key]
            elif kind == "duplicate" and isinstance(node, list):
                node.insert(key, copy.deepcopy(node[key]))
        try:
            ledger = EditLedger.from_json(obj)
            revert(bundle.weights, ledger, len(ledger))
        except LedgerFormatError:
            pass

    def test_error_in_a_result_names_its_entry(self):
        obj = zero_row_ledger(8, [3], [4]).to_json()
        del obj["entries"][1]["result"]["tau"]
        with pytest.raises(LedgerFormatError, match="^ledger entry 1: ledger result: .*'tau'"):
            EditLedger.from_json(obj)

    def test_rows_of_no_scalars_name_their_entry(self):
        obj = zero_row_ledger(8, [3]).to_json()
        obj["entries"][0]["original_rows"] = obj["entries"][0]["new_rows"] = [[]]
        with pytest.raises(LedgerFormatError, match=r"^ledger entry 0: original rows of shape "
                                                    r"\(1, 0\)"):
            EditLedger.from_json(obj)

    def test_save_that_raises_leaves_old_bytes_and_no_temporary_file(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = zero_row_ledger(8, [3], [4])
        ledger.save(path)
        before = path.read_bytes()
        ledger.entries[1].final_loss = object()  # json cannot write it
        with pytest.raises(TypeError):
            ledger.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.json"]


class TestBudgetReport:
    def test_single_token_768(self):
        report = budget_report([zero_row_ledger(768, [9])], 10 ** 9)
        assert report["per_edit"][0]["modified_scalars"] == 768
        assert report["per_edit"][0]["update_flops"] == 1536
        assert report["per_edit"][0]["weight_ratio"] == 768 / 1e9

    def test_dual_encoder_widths_768_and_1280(self):
        merged = budget_report([zero_row_ledger(768, [9]), zero_row_ledger(1280, [9])],
                               total_model_params=2 * 10 ** 9)
        assert merged["per_edit"][0]["edited_tokens"] == 2
        assert merged["per_edit"][0]["modified_scalars"] == 2048
        assert merged["per_edit"][0]["update_flops"] == 4096

    def test_ratio_arithmetic(self):
        report = budget_report([zero_row_ledger(768, [9])], int(1.0e9))
        assert report["per_edit"][0]["weight_ratio"] == pytest.approx(7.68e-7)

    def test_two_token_edit(self):
        report = budget_report([zero_row_ledger(8, [7, 8])], 100)
        assert report["per_edit"][0]["modified_scalars"] == 16
        assert report["per_edit"][0]["update_flops"] == 32


class TestMultiEncoder:
    def test_identical_encoders_give_identical_results(self):
        hyper = EditHyperparams(stop_ratio=0.2, max_iters=300, learning_rate=1e-2)
        encoders = [make_bundle(seed=42), make_bundle(seed=42)]
        r1, r2 = edit_multi_encoder(encoders, EditRequest("bear", "wolf", "bear"), hyper,
                                    [EditLedger(), EditLedger()])
        assert r1 == r2
        assert wte_bytes(encoders[0]) == wte_bytes(encoders[1])

    def test_widths_8_and_16_both_converge_under_defaults(self):
        encoders = [
            make_bundle(seed=42, d_model=8, n_heads=2, d_ff=16),
            make_bundle(seed=42, d_model=16, n_heads=4, d_ff=32),
        ]
        results = edit_multi_encoder(
            encoders, EditRequest("bear", "wolf", "bear"), EditHyperparams(),
            [EditLedger(), EditLedger()],
        )
        assert all(r.converged for r in results)
        assert results[0].edited_token_ids == results[1].edited_token_ids

    def test_missing_target_names_encoder(self):
        small_vocab = make_vocab(words=["a", "cat"])
        encoders = [make_bundle(seed=1), make_bundle(seed=1, vocab=small_vocab)]
        with pytest.raises(InconsistentRequestError, match="encoder 1"):
            edit_multi_encoder(encoders, EditRequest("bear", "wolf", "bear"),
                               EditHyperparams(), [EditLedger(), EditLedger()])

    def test_one_ledger_too_few_edits_no_encoder(self):
        encoders, ledger = [make_bundle(seed=1), make_bundle(seed=1)], EditLedger()
        before = [wte_bytes(e) for e in encoders]
        with pytest.raises(ValueError, match="need one ledger per encoder"):
            edit_multi_encoder(encoders, EditRequest("bear", "wolf", "bear"),
                               EditHyperparams(), [ledger])
        assert [wte_bytes(e) for e in encoders] == before
        assert len(ledger) == 0

    def test_a_destination_one_encoder_cannot_read_edits_no_encoder(self):
        encoders = [make_bundle(seed=1), make_bundle(seed=1, vocab=make_vocab(words=["a", "bear"]))]
        before = wte_bytes(encoders[0])
        with pytest.raises(InconsistentRequestError, match="encoder 1: word 'wolf'"):
            edit_multi_encoder(encoders, EditRequest("bear", "wolf", "bear"),
                               EditHyperparams(), [EditLedger(), EditLedger()])
        assert wte_bytes(encoders[0]) == before


class TestSideEffectFreedom:
    def test_random_sequential_edits_leave_disjoint_prompts_bitwise_identical(self):
        rng = np.random.default_rng(7)
        bundle = make_bundle(seed=3)
        reference = make_bundle(seed=3)
        words = list(bundle.vocab.tokens)
        edit_pool, probe_pool = words[:10], words[10:]
        hyper = EditHyperparams(stop_ratio=0.3, max_iters=40, learning_rate=1e-2)
        ledger = EditLedger()
        for _ in range(10):
            s, d = rng.choice(edit_pool, size=2, replace=False)
            edit_single(bundle, EditRequest(str(s), str(d), str(s)), hyper, ledger)
        edited_ids = {i for e in ledger.entries for i in e.edited_token_ids}
        assert edited_ids
        for _ in range(100):
            k = int(rng.integers(1, 4))
            prompt = " ".join(rng.choice(probe_pool, size=k, replace=True))
            assert not (set(bundle.vocab.prompt_token_ids(prompt)) & edited_ids)
            a = bundle.encode_prompt(prompt).sequence.array.tobytes()
            b = reference.encode_prompt(prompt).sequence.array.tobytes()
            assert a == b

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_sequence_with_forced_divergences_then_full_revert(self, data):
        n = data.draw(st.integers(2, 5))
        targets = data.draw(st.lists(st.sampled_from(["bear", "cat", "dog", "wolf", "fox"]),
                                     min_size=n, max_size=n))
        adjectives = data.draw(st.lists(st.sampled_from(["polar", "red", "little"]),
                                        min_size=n, max_size=n))
        diverges = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        bundle, reference = make_bundle(), make_bundle()
        original = wte_bytes(bundle)
        hyper = EditHyperparams(stop_ratio=0.0, max_iters=3, learning_rate=1e-2)
        ledger = EditLedger()
        with pytest.MonkeyPatch.context() as mp:
            # stop_ratio=0: every edit's Adam steps, so edit k owns Adam k.
            for k, diverge in enumerate(diverges):
                if diverge:
                    diverge_adam(mp, nth_adam=k + 1, nth_step=data.draw(st.integers(1, 3)))
            for t, adj, diverge in zip(targets, adjectives, diverges):
                request = EditRequest(f"a {t}", f"a {adj} {t}", t)
                if diverge:
                    before = wte_bytes(bundle)
                    with pytest.raises(DivergenceError):
                        edit_single(bundle, request, hyper, ledger)
                    assert wte_bytes(bundle) == before
                else:
                    edit_single(bundle, request, hyper, ledger)
        assert len(ledger) == diverges.count(False)
        edited_ids = {i for e in ledger.entries for i in e.edited_token_ids}
        for prompt in ["a bear", "little cat on tree", "a panda with a koala", "ceo painting"]:
            if not set(bundle.vocab.prompt_token_ids(prompt)) & edited_ids:
                a = bundle.encode_prompt(prompt).sequence.array.tobytes()
                assert a == reference.encode_prompt(prompt).sequence.array.tobytes()
        revert(bundle.weights, ledger, len(ledger))
        assert wte_bytes(bundle) == original


class TestHyperparamValidation:
    def test_stop_ratio_range(self):
        with pytest.raises(ValueError):
            EditHyperparams(stop_ratio=1.5)
        with pytest.raises(ValueError):
            EditHyperparams(stop_ratio=-0.1)

    def test_learning_rate_positive(self):
        with pytest.raises(ValueError):
            EditHyperparams(learning_rate=0.0)

    def test_max_iters_positive(self):
        with pytest.raises(ValueError):
            EditHyperparams(max_iters=0)

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_max_iters_must_be_an_integer(self, value):
        # 2.5 would die in range() mid-edit; True would run as 1.
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            EditHyperparams(max_iters=value)

    def test_numpy_integer_max_iters_is_an_integer(self):
        assert EditHyperparams(max_iters=np.int64(3)).max_iters == 3

    @pytest.mark.parametrize("value", ["nonsense", "ADAM", None])
    @pytest.mark.parametrize("field", ["optimizer", "loss_positions"])
    def test_an_enum_setting_must_name_a_member(self, field, value):
        with pytest.raises(ValueError, match="is not a valid"):
            EditHyperparams(**{field: value})
