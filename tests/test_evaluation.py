import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embedit import (
    BalanceMode,
    BalancerParams,
    BiasEditRequest,
    EditEntry,
    EditHyperparams,
    EditLedger,
    EditRequest,
    GenderEntry,
    aggregate_reports,
    classify,
    edit_balance,
    edit_single,
    encode_pooled,
    evaluate_edit,
    female_percentage,
    filter_sequential_dataset,
    gender_delta,
    load_edit_entries,
    load_gender_entries,
)
from embedit.errors import (
    DatasetError,
    DegenerateInputError,
    DegenerateVectorError,
    NonFiniteError,
)
from embedit.evaluation import DESTINATION, contains_phrase

from conftest import WORDS, make_bundle, make_vocab, run_child


class TestClassify:
    def test_vectors_of_different_widths_are_refused(self):
        with pytest.raises(DegenerateInputError, match="^vector widths differ: "):
            classify(np.ones(3), np.ones(3), np.ones(2))

    def test_exact_destination_match(self):
        dst = np.array([1.0, 0.0])
        src = np.array([0.0, 1.0])
        assert classify(dst, src, dst) == "destination"

    def test_exact_source_match(self):
        dst = np.array([1.0, 0.0])
        src = np.array([0.0, 1.0])
        assert classify(src, src, dst) == "source"

    def test_orthogonal_to_destination(self):
        # cos(test, dst)=0 while cos(test, src)=0.5: source wins.
        test = np.array([1.0, 0.0, 0.0])
        dst = np.array([0.0, 1.0, 0.0])
        src = np.array([1.0, np.sqrt(3.0), 0.0])  # angle 60 degrees from test
        assert abs(test @ src / np.linalg.norm(src) - 0.5) < 1e-12
        assert classify(test, src, dst) == "source"

    def test_tie_goes_to_source(self):
        v = np.array([1.0, 1.0])
        assert classify(v, v, v) == "source"
        assert classify(v, v, 2.0 * v) == "source"

    def test_zero_test_vector(self):
        with pytest.raises(DegenerateVectorError):
            classify(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_both_references_zero(self):
        with pytest.raises(DegenerateInputError):
            classify(np.array([1.0, 0.0]), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("scale", [1e154, 1e160, 1e200])
    @pytest.mark.parametrize("at", ["test", "source", "destination"])
    def test_a_norm_or_dot_that_overflows_is_non_finite(self, scale, at):
        # Finite states whose square overflows: numpy would warn and the
        # cosines would be NaN. Warnings are errors under pytest here.
        vectors = {"test": np.array([1.0, 2.0]), "source": np.array([2.0, 1.0]),
                   "destination": np.array([1.0, 1.0])}
        vectors[at] = vectors[at] * scale
        with pytest.raises(NonFiniteError, match="classify: a norm or dot product"):
            classify(vectors["test"], vectors["source"], vectors["destination"])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    # Scales at which the test vector's squares underflow.
    @example(0, 1e-160)
    @example(1, 1e-170)
    @example(2, 1e-200)
    @example(3, 1e-300)
    def test_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=4)
        src = rng.normal(size=4)
        dst = rng.normal(size=4)
        if np.linalg.norm(v) == 0:
            return
        assert classify(c * v, src, dst) == classify(v, src, dst)


@pytest.fixture(scope="module")
def converged_pair():
    """(edited, reference) bundles where "bear" was pushed all the way to "wolf"."""
    edited = make_bundle(seed=42)
    reference = make_bundle(seed=42)
    edit_single(
        edited, EditRequest("bear", "wolf", "bear"),
        EditHyperparams(stop_ratio=0.0, max_iters=2000, learning_rate=1e-2),
        EditLedger(),
    )
    return edited, reference


ENTRY = EditEntry(
    source="bear",
    destination="wolf",
    target_word="bear",
    positives=(("a bear", "a wolf"), ("little bear", "little wolf")),
    negatives=(("a cat", "a dog"), ("a panda", "a polar panda")),
)


class TestEvaluateEdit:
    def test_unedited_encoder_scores_baseline(self):
        bundle = make_bundle(seed=42)
        reference = make_bundle(seed=42)
        report = evaluate_edit(ENTRY, bundle, reference)
        assert report.efficacy == 0.0
        assert report.generality == 0.0
        assert report.specificity == 100.0
        assert report.strict_specificity == 100.0

    def test_fully_converged_edit_scores_perfect_efficacy(self, converged_pair):
        edited, reference = converged_pair
        report = evaluate_edit(ENTRY, edited, reference)
        assert report.efficacy == 100.0
        assert report.strict_specificity == 100.0

    def test_strict_specificity_holds_whenever_negatives_avoid_edited_ids(self, converged_pair):
        edited, reference = converged_pair
        entry = EditEntry(
            source="bear", destination="wolf", target_word="bear",
            negatives=tuple((f"a {w}", f"a polar {w}")
                            for w in ("cat", "dog", "panda", "koala", "sloth")),
        )
        report = evaluate_edit(entry, edited, reference)
        assert report.strict_specificity == 100.0
        assert report.counts["strict_specificity"] == (5, 5)

    def test_strict_specificity_holds_where_a_rows_bits_depend_on_its_offset(self):
        # Under OpenBLAS's Nehalem kernels, its SSE path for CPUs without
        # AVX, a row of a stacked product is not bitwise its own product.
        # Both bundles stack the same rows in the same order, so a negative
        # that avoids the edited id still reads the same bits on each.
        out = run_child(["-c", "import test_evaluation as t; print(t._strict_at_clip_l_widths())"],
                        {"OPENBLAS_CORETYPE": "Nehalem"})
        assert float(out) == 100.0

    def test_counts_match_bucket_sizes(self, converged_pair):
        edited, reference = converged_pair
        report = evaluate_edit(ENTRY, edited, reference)
        assert report.counts["efficacy"][1] == 1
        assert report.counts["generality"][1] == 2
        assert report.counts["specificity"][1] == 2

    def test_aggregate_over_entries(self, converged_pair):
        edited, reference = converged_pair
        r1 = evaluate_edit(ENTRY, edited, reference)
        agg = aggregate_reports([r1, r1])
        assert agg.efficacy == r1.efficacy
        assert agg.counts["generality"] == (
            2 * r1.counts["generality"][0], 2 * r1.counts["generality"][1]
        )

    def test_negative_using_a_row_changed_only_in_edited_is_not_strict(self):
        # Guards the bitwise check against states shared between bundles.
        edited = make_bundle(seed=42)
        reference = make_bundle(seed=42)
        cat = edited.vocab.tokens["cat"]
        edited.weights.set_wte_rows([cat], edited.weights.wte.array[[cat]] + 1e-3)
        report = evaluate_edit(ENTRY, edited, reference)
        assert report.counts["strict_specificity"] == (1, 2)
        assert report.strict_specificity < 100.0

    def test_each_distinct_prompt_is_read_once_per_bundle_and_call(self, forward_reads):
        # Context 24 leaves room for pooled reads shorter than a full one.
        edited = make_bundle(seed=42, context_length=24)
        reference = make_bundle(seed=42, context_length=24)
        long = "a little bear with a cat on a tree"  # eos 10, so n = 16
        entry = EditEntry(
            source="bear", destination="wolf", target_word="bear",
            positives=(("a bear", "a wolf"), ("little bear", "a wolf"), (long, "a wolf")),
            # "wolf" repeats the destination, "a wolf" the positives'
            # destination, and the last negative repeats the one before it.
            negatives=(("wolf", "a wolf"), ("a cat", "a dog"), ("a cat", "a dog")),
        )
        prompts = set(entry.prompts)

        def prompt_of(row):
            """The one prompt whose first len(row) token ids are the row."""
            p, = (p for p in prompts if edited.tokenize(p).ids[:len(row)] == row)
            return p

        # Each distinct prompt once, as (row length, prompt); only the
        # negatives' sources in full.
        expected = Counter({(24, "wolf"), (24, "a cat"), (16, long)}
                           | {(8, p) for p in ("bear", "a bear", "little bear", "a wolf",
                                               "a dog")})
        for _ in range(2):
            forward_reads.clear()
            evaluate_edit(entry, edited, reference)
            # One forward per bundle, and both get the same rows in the same order.
            (first, rows), (second, ref_rows) = forward_reads
            assert {first, second} == {id(edited.weights), id(reference.weights)}
            assert rows == ref_rows
            assert Counter((len(row), prompt_of(row)) for row in rows) == expected


def _strict_at_clip_l_widths() -> float:
    """Strict specificity at CLIP-L widths (1 layer, V=64) of two negatives
    that avoid "bear", the one id whose row the edited bundle moved."""
    vocab = make_vocab([*WORDS, *(f"w{i}" for i in range(64 - 3 - len(WORDS)))])
    shape = dict(vocab=vocab, d_model=768, n_layers=1, n_heads=12, d_ff=3072,
                 context_length=77)
    edited, reference = make_bundle(seed=7, **shape), make_bundle(seed=7, **shape)
    bear = vocab.tokens["bear"]
    noise = np.random.default_rng(0).normal(0.0, 0.02, size=(1, 768))
    edited.weights.set_wte_rows([bear], edited.weights.wte.array[[bear]] + noise)
    entry = EditEntry(source="a bear", destination="a wolf", target_word="bear",
                      positives=(("a little bear", "a little wolf"),),
                      negatives=(("a cat", "a dog"), ("a red fox on a tree", "a blue fox")))
    return evaluate_edit(entry, edited, reference).strict_specificity


@pytest.fixture
def forward_reads(monkeypatch):
    """(id(weights), token rows) of each call of the encoder's forward."""
    import embedit.encoder as encoder

    calls = []
    real = encoder._forward

    def spy(ids, weights, config, *args, **kwargs):
        calls.append((id(weights), [tuple(row) for row in ids]))
        return real(ids, weights, config, *args, **kwargs)

    monkeypatch.setattr(encoder, "_forward", spy)
    return calls


class TestEntryValidation:
    def test_positive_must_contain_target(self):
        with pytest.raises(DatasetError, match="lacks the target"):
            EditEntry(source="bear", destination="wolf", target_word="bear",
                      positives=(("a cat", "a dog"),))

    def test_negative_must_not_contain_target(self):
        with pytest.raises(DatasetError, match="contains the target"):
            EditEntry(source="bear", destination="wolf", target_word="bear",
                      negatives=(("a bear", "a wolf"),))

    def test_multiword_target_containment_is_phrase_level(self):
        # "cream ice" does not contain the phrase "ice cream".
        entry = EditEntry(source="ice cream", destination="red ice cream",
                          target_word="ice cream",
                          negatives=(("cream ice", "red cream ice"),))
        assert entry.negatives


def brute_force_filter(entries, excluded_targets=()):
    """Independent oracle: substring containment on space-framed word strings."""
    excluded = {t.lower() for t in excluded_targets}
    kept = [e for e in entries if e.target_word.lower() not in excluded]
    result = []
    for entry in kept:
        other_targets = [
            " " + " ".join(o.target_word.lower().split()) + " "
            for o in kept if o is not entry
        ]
        negatives = []
        for sn, dn in entry.negatives:
            framed = " " + " ".join(sn.lower().split()) + " "
            if not any(t in framed for t in other_targets):
                negatives.append((sn, dn))
        result.append(EditEntry(
            source=entry.source, destination=entry.destination,
            target_word=entry.target_word,
            positives=entry.positives, negatives=tuple(negatives),
        ))
    return result


def synthetic_entries(n=104):
    """Cross-referencing fixture: entry i's negatives mention other targets."""
    entries = []
    for i in range(n):
        target = f"obj{i}" if i % 5 else f"obj{i} thing"
        negatives = [
            (f"a obj{(i + 7) % n}", f"a new obj{(i + 7) % n}"),
            (f"some obj{(i * 3 + 1) % n} here", f"some new obj{(i * 3 + 1) % n} here"),
            ("an unrelated item", "a new unrelated item"),
        ]
        entries.append(EditEntry(
            source=target,
            destination=f"new {target}",
            target_word=target,
            positives=((f"a {target}", f"a new {target}"),),
            negatives=tuple(negatives),
        ))
    return entries


class TestFilterSequentialDataset:
    def test_pedestal_plinth_case(self):
        pedestal = EditEntry(
            source="pedestal", destination="wooden pedestal", target_word="pedestal",
            positives=(("a pedestal", "a wooden pedestal"),),
            negatives=(("a plinth", "a wooden plinth"),),
        )
        plinth = EditEntry(
            source="plinth", destination="wooden plinth", target_word="plinth",
            positives=(("a plinth", "a wooden plinth"),),
            negatives=(("a pedestal", "a wooden pedestal"), ("a column", "a wooden column")),
        )
        out = filter_sequential_dataset([pedestal, plinth])
        assert out[0].negatives == ()  # "a plinth" names the other target
        assert out[1].negatives == (("a column", "a wooden column"),)

    def test_disjoint_entries_unchanged(self):
        a = EditEntry(source="bear", destination="polar bear", target_word="bear",
                      negatives=(("a cat", "a polar cat"),))
        b = EditEntry(source="rose", destination="blue rose", target_word="rose",
                      negatives=(("a tulip", "a blue tulip"),))
        assert filter_sequential_dataset([a, b]) == [a, b]

    def test_matches_brute_force_oracle_on_104_entries(self):
        entries = synthetic_entries(104)
        excluded = tuple(f"obj{i}" for i in range(0, 104, 11))
        ours = filter_sequential_dataset(entries, excluded)
        oracle = brute_force_filter(entries, excluded)
        assert ours == oracle
        assert len(ours) < len(entries)
        assert sum(len(e.negatives) for e in ours) < sum(
            len(e.negatives) for e in entries if e.target_word not in excluded
        )

    def test_idempotent(self):
        entries = synthetic_entries(30)
        once = filter_sequential_dataset(entries)
        twice = filter_sequential_dataset(once)
        assert once == twice

    def test_exclusion_list_drops_entries(self):
        entries = synthetic_entries(10)
        out = filter_sequential_dataset(entries, excluded_targets=(entries[0].target_word,))
        assert all(e.target_word != entries[0].target_word for e in out)
        assert len(out) == 9


    def test_exclusion_matches_a_target_by_its_words(self):
        ice_cream = EditEntry(source="ice cream", destination="red ice cream",
                              target_word="ice cream")
        bear = EditEntry(source="bear", destination="polar bear", target_word="bear")
        assert filter_sequential_dataset([ice_cream, bear], ("Ice  Cream",)) == [bear]

GENDER_TESTS = ("a teacher", "teacher with a dog", "little teacher",
                "teacher on tree", "a teacher painting")


def gender_entry():
    return GenderEntry(
        profession="teacher",
        validation="a teacher",
        tests=GENDER_TESTS,
        female_ref="female teacher",
        male_ref="male teacher",
    )


def _refs(entry, reference):
    """Pooled reference states of the entry's female and male prompts."""
    return (reference.encode_prompt(entry.female_ref).pooled,
            reference.encode_prompt(entry.male_ref).pooled)


def _tests(entry, edited):
    """Pooled states of the entry's test prompts."""
    return encode_pooled(edited, entry.tests)


class TestFemalePercentage:
    def test_prompt_identical_to_male_ref_scores_zero(self):
        bundle = make_bundle(seed=0)
        entry = GenderEntry(
            profession="teacher", validation="teacher", tests=("teacher",),
            female_ref="female teacher", male_ref="teacher",
        )
        assert female_percentage(entry, _tests(entry, bundle), *_refs(entry, bundle)) == 0.0

    def test_auto_balancing_moves_toward_fifty(self):
        # Engineered fixture (seed 12): baseline leans male at F=20; after the
        # automatic balance the deviation from 50 strictly shrinks.
        reference = make_bundle(seed=12)
        edited = make_bundle(seed=12)
        entry = gender_entry()
        baseline = female_percentage(entry, _tests(entry, edited), *_refs(entry, reference))
        assert baseline == 20.0
        edit_balance(
            edited,
            BiasEditRequest(profession="teacher", stereotypical_prompt="male teacher",
                            counter_prompt="female teacher"),
            BalancerParams(mode=BalanceMode.AUTO, learning_rate=1e-2, max_iters=200),
            EditLedger(),
        )
        after = female_percentage(entry, _tests(entry, edited), *_refs(entry, reference))
        assert abs(after - 50.0) < abs(baseline - 50.0)

    def test_scores_pooled_rows_and_reads_no_bundle(self, forward_reads):
        bundle = make_bundle(seed=0)
        entry = GenderEntry(
            profession="teacher", validation="a teacher",
            tests=("a teacher", "little teacher", "a teacher", "teacher with a dog"),
            female_ref="female teacher", male_ref="male teacher",
        )
        refs = _refs(entry, bundle)
        pooled = _tests(entry, bundle)
        forward_reads.clear()
        # A repeated test counts twice: 4 prompts, each scored from its row.
        expected = 100.0 * sum(
            classify(pooled[p], refs[1], refs[0]) == DESTINATION for p in entry.tests) / 4
        assert female_percentage(entry, pooled, *refs) == expected
        assert forward_reads == []

    def test_gender_entry_requires_profession_in_tests(self):
        with pytest.raises(DatasetError):
            GenderEntry(profession="teacher", validation="a teacher",
                        tests=("a dog",), female_ref="f", male_ref="m")


class TestGenderDelta:
    def test_all_fifty(self):
        assert gender_delta([50.0] * 6) == 0.0

    def test_maximal_deviation(self):
        assert gender_delta([0.0, 100.0]) == 1.0

    def test_hand_arithmetic(self):
        assert gender_delta([75.0, 25.0]) == 0.5

    def test_empty_is_error(self):
        with pytest.raises(DatasetError):
            gender_delta([])


@pytest.mark.parametrize("phrase", ["", " ", "a little bear"], ids=["empty", "blank", "longer"])
def test_an_empty_phrase_or_one_longer_than_the_prompt_is_not_contained(phrase):
    assert contains_phrase("little bear", phrase) is False


def test_aggregating_no_reports_is_a_dataset_error():
    with pytest.raises(DatasetError, match="^no reports to aggregate$"):
        aggregate_reports([])


def test_edit_entry_jsonl_round_trip(tmp_path):
    path = tmp_path / "entries.jsonl"
    with open(path, "w") as f:
        for e in [ENTRY, ENTRY]:
            f.write(json.dumps(e.to_json()) + "\n")
    loaded = load_edit_entries(path)
    assert loaded == [ENTRY, ENTRY]


def test_loaded_entries_hold_their_line_which_equality_and_json_ignore(tmp_path):
    edits, genders = tmp_path / "edits.jsonl", tmp_path / "gender.jsonl"
    edits.write_text(f"\n{json.dumps(ENTRY.to_json())}\n\n{json.dumps(ENTRY.to_json())}\n")
    genders.write_text(f"\n\n{json.dumps(gender_entry().to_json())}\n")
    loaded = load_edit_entries(edits)
    assert [e.line for e in loaded] == [2, 4] and ENTRY.line is None
    assert loaded == [ENTRY, ENTRY] and hash(loaded[0]) == hash(ENTRY)
    assert [e.to_json() for e in loaded] == [ENTRY.to_json()] * 2
    assert "line" not in ENTRY.to_json()
    assert [e.line for e in filter_sequential_dataset(loaded)] == [2, 4]
    (gender,) = load_gender_entries(genders)
    assert gender.line == 3 and gender == gender_entry()
    assert gender.to_json() == gender_entry().to_json() and "line" not in gender.to_json()


def test_edit_entries_bad_json_names_line(tmp_path):
    path = tmp_path / "entries.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(DatasetError, match="line 1"):
        load_edit_entries(path)
