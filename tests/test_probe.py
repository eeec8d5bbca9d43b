import numpy as np
import pytest

from embedit import (
    ProbeDataset,
    ProbeParams,
    Vocab,
    accuracy_over_seeds,
    extract_features,
    init_random_weights,
    split,
    train_logreg,
)
from embedit.errors import DegenerateDataError, UnknownTokenError
from embedit.probe import accuracy, logreg_grad

from conftest import make_config
from oracles import logreg_loss


def gaussian_wte_fixture(n_items=200, d=16, separation=4.0, sigma=1.0, seed=0):
    """Vocabulary of synthetic words whose WTE rows come from two Gaussians
    whose means are `separation` standard deviations apart."""
    rng = np.random.default_rng(seed)
    words = [f"obj{i}" for i in range(n_items)]
    tokens = {w: i + 3 for i, w in enumerate(words)}
    vocab = Vocab(tokens=tokens, bos=0, eos=1, pad=2)
    config = make_config(vocab, d_model=d, n_layers=1, n_heads=2, d_ff=8)
    weights = init_random_weights(config, seed)

    offset = np.zeros(d)
    offset[0] = separation * sigma
    labels = [i % 2 for i in range(n_items)]
    rows = np.stack([
        rng.normal(0.0, sigma, size=d) + (offset if lab == 1 else 0.0)
        for lab in labels
    ])
    weights.set_wte_rows([tokens[w] for w in words], rows)
    dataset = ProbeDataset(items=list(zip(words, labels)), label_names=("red", "yellow"))
    return dataset, weights, vocab


class TestExtractFeatures:
    def test_single_token_word_is_exact_row(self, tiny_bundle):
        ds = ProbeDataset(items=[("bear", 0)], label_names=("red", "yellow"))
        feats = extract_features(ds, tiny_bundle.weights, tiny_bundle.vocab)
        row = tiny_bundle.weights.wte.array[tiny_bundle.vocab.tokens["bear"]]
        assert feats[0].tobytes() == row.tobytes()

    def test_two_subword_word_is_mean_of_rows(self, tiny_bundle):
        ds = ProbeDataset(items=[("icecream", 1)], label_names=("red", "yellow"))
        feats = extract_features(ds, tiny_bundle.weights, tiny_bundle.vocab)
        wte = tiny_bundle.weights.wte.array
        r1 = wte[tiny_bundle.vocab.tokens["ice"]]
        r2 = wte[tiny_bundle.vocab.tokens["cream"]]
        assert np.array_equal(feats[0], (r1 + r2) / 2.0)

    def test_several_words_read_by_the_prompt_word_rule(self, tiny_bundle):
        ds = ProbeDataset(items=[(" Ice Cream ", 1), ("icecream", 1)],
                          label_names=("red", "yellow"))
        feats = extract_features(ds, tiny_bundle.weights, tiny_bundle.vocab)
        wte = tiny_bundle.weights.wte.array
        r1 = wte[tiny_bundle.vocab.tokens["ice"]]
        r2 = wte[tiny_bundle.vocab.tokens["cream"]]
        assert feats[0].tobytes() == ((r1 + r2) / 2.0).tobytes() == feats[1].tobytes()

    def test_empty_dataset(self, tiny_bundle):
        ds = ProbeDataset(items=[], label_names=("red", "yellow"))
        feats = extract_features(ds, tiny_bundle.weights, tiny_bundle.vocab)
        assert feats.shape == (0, tiny_bundle.config.d_model)

    def test_unknown_word(self, tiny_bundle):
        ds = ProbeDataset(items=[("quixotic", 0)], label_names=("red", "yellow"))
        with pytest.raises(UnknownTokenError):
            extract_features(ds, tiny_bundle.weights, tiny_bundle.vocab)


class TestSplit:
    def dataset(self, n=200):
        return ProbeDataset(
            items=[(f"w{i}", i % 2) for i in range(n)], label_names=("red", "yellow")
        )

    def test_200_items_give_160_40(self):
        train, test = split(self.dataset(), seed=0, params=ProbeParams(train_fraction=0.8))
        assert len(train) == 160
        assert len(test) == 40

    def test_same_seed_is_identical(self):
        a = split(self.dataset(), seed=9, params=ProbeParams(train_fraction=0.8))
        b = split(self.dataset(), seed=9, params=ProbeParams(train_fraction=0.8))
        assert a[0].items == b[0].items
        assert a[1].items == b[1].items

    def test_partition_properties(self):
        ds = self.dataset(37)
        for seed in range(5):
            train, test = split(ds, seed=seed, params=ProbeParams(train_fraction=0.8))
            merged = sorted(train.items + test.items)
            assert merged == sorted(ds.items)
            assert not (set(train.items) & set(test.items))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split(self.dataset(), seed=0, params=ProbeParams(train_fraction=1.0))


class TestTrainLogreg:
    def test_separable_pair(self):
        feats = np.array([[-1.0], [1.0]])
        labels = np.array([0.0, 1.0])
        model = train_logreg(feats, labels, ProbeParams(lr=0.5, epochs=500, l2=0.0))
        assert model.weight[0] > 0
        assert accuracy(model, feats, labels) == 1.0

    @pytest.mark.parametrize("epochs", [2.5, True])
    def test_epochs_must_be_an_integer(self, epochs):
        # 2.5 would die in range(); True would train for one epoch.
        with pytest.raises(ValueError, match="epochs must be an integer"):
            train_logreg(np.array([[-1.0], [1.0]]), np.array([0.0, 1.0]),
                         ProbeParams(epochs=epochs))

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_one_example_is_degenerate(self, label):
        with pytest.raises(DegenerateDataError, match="^need at least 2 examples$"):
            train_logreg(np.ones((1, 2)), np.array([label]))

    def test_single_class_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            train_logreg(np.ones((4, 2)), np.zeros(4))

    def test_loss_non_increasing_for_small_lr(self, rng):
        feats = rng.normal(size=(50, 4))
        labels = (rng.random(50) < 0.5).astype(np.float64)
        labels[0], labels[1] = 0.0, 1.0
        w = np.zeros(4)
        b = 0.0
        losses = [logreg_loss(w, b, feats, labels, 1e-4)]
        for _ in range(200):
            dw, db = logreg_grad(w, b, feats, labels, 1e-4)
            w = w - 0.01 * dw
            b = b - 0.01 * db
            losses.append(logreg_loss(w, b, feats, labels, 1e-4))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_gradient_matches_finite_differences(self, rng):
        feats = rng.normal(size=(20, 3))
        labels = (rng.random(20) < 0.5).astype(np.float64)
        labels[0], labels[1] = 0.0, 1.0
        w = rng.normal(size=3)
        b = 0.37
        l2 = 1e-3
        dw, db = logreg_grad(w, b, feats, labels, l2)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (logreg_loss(w + e, b, feats, labels, l2)
                  - logreg_loss(w - e, b, feats, labels, l2)) / (2 * h)
            assert abs(dw[i] - fd) / max(abs(fd), 1e-12) < 1e-6
        fd_b = (logreg_loss(w, b + h, feats, labels, l2)
                - logreg_loss(w, b - h, feats, labels, l2)) / (2 * h)
        assert abs(db - fd_b) / max(abs(fd_b), 1e-12) < 1e-6

    def test_random_labels_score_near_chance(self):
        rng = np.random.default_rng(123)
        feats = rng.normal(size=(200, 8))
        labels = (rng.random(200) < 0.5).astype(np.float64)
        accs = []
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(200)
            tr, te = order[:160], order[160:]
            model = train_logreg(feats[tr], labels[tr])
            accs.append(accuracy(model, feats[te], labels[te]))
        mean = 100.0 * np.mean(accs)
        assert 35.0 <= mean <= 65.0

    def test_separated_gaussians_reach_95(self):
        dataset, weights, vocab = gaussian_wte_fixture()
        mean, _ = accuracy_over_seeds(dataset, weights, vocab,
                                      ProbeParams(seeds=(0, 1, 2, 3, 4)))
        assert mean >= 95.0


class TestAccuracyOverSeeds:
    def test_repeated_seed_has_zero_std(self):
        dataset, weights, vocab = gaussian_wte_fixture()
        _, std = accuracy_over_seeds(dataset, weights, vocab, ProbeParams(seeds=(3, 3)))
        assert std == 0.0

    def test_five_seeds_mean_and_spread(self):
        dataset, weights, vocab = gaussian_wte_fixture()
        mean, std = accuracy_over_seeds(dataset, weights, vocab,
                                        ProbeParams(seeds=(0, 1, 2, 3, 4)))
        assert mean >= 95.0
        assert std <= 5.0

    def test_requires_two_seeds(self):
        with pytest.raises(ValueError, match="need at least 2 integer seeds"):
            ProbeParams(seeds=(0,))


class TestProbeParams:
    @pytest.mark.parametrize("field,value,message", [
        ("seeds", (0, 1.0), "need at least 2 integer seeds"),
        ("seeds", (0, True), "need at least 2 integer seeds"),
        ("seeds", 5, "need at least 2 integer seeds"),
        ("seeds", "01", "need at least 2 integer seeds"),
        ("train_fraction", 1.0, "train_fraction must"),
        ("lr", float("inf"), "lr must"), ("l2", -1.0, "l2 must"),
        ("epochs", 0, r"epochs must be an integer in \[1, inf\), got 0"),
        ("epochs", 2.5, "epochs must be an integer"),
        ("epochs", True, "epochs must be an integer"),
    ])
    def test_each_setting_is_checked_when_made(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ProbeParams(**{field: value})

    def test_numpy_integers_are_integers(self):
        params = ProbeParams(seeds=(np.int64(0), np.int64(1)), epochs=np.int64(3))
        assert params.epochs == 3


def test_dataset_rejects_bad_label():
    with pytest.raises(DegenerateDataError):
        ProbeDataset(items=[("w", 2)], label_names=("a", "b"))


@pytest.mark.parametrize("label", [True, False, 0.0, 1.0, np.float64(1)],
                         ids=["true", "false", "float_0", "float_1", "numpy_float_1"])
def test_dataset_rejects_a_label_that_is_not_an_integer(label):
    # As every id and count rule: True would silently stand for 1.
    with pytest.raises(DegenerateDataError, match="must be 0 or 1"):
        ProbeDataset(items=[("w", label)], label_names=("a", "b"))


def test_dataset_accepts_numpy_integer_labels():
    assert len(ProbeDataset(items=[("w", np.int64(1))], label_names=("a", "b"))) == 1


def test_dataset_json_round_trip(tmp_path):
    ds = ProbeDataset(items=[("apple", 0), ("lemon", 1)], label_names=("red", "yellow"))
    import json

    path = tmp_path / "probe.json"
    path.write_text(json.dumps(ds.to_json()))
    assert ProbeDataset.load(path).items == ds.items
