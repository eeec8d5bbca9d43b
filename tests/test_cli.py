import argparse
import json
import math
import mmap
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

import embedit.cli as cli
from embedit import (
    BalancerParams,
    EditHyperparams,
    EditLedger,
    EncoderWeights,
    ProbeParams,
    Tensor,
    archive,
    load_config,
    load_weights,
    save_weights,
)
from embedit.cli import main
from embedit.errors import DimensionError, TapeUsageError

from conftest import (
    WORDS,
    FailingFile,
    diverge_adam,
    make_bundle,
    make_vocab,
    map_owner,
    run_child,
    zero_row_ledger,
)


@pytest.fixture
def workdir(tmp_path):
    vocab = {
        "tokens": {w: i + 3 for i, w in enumerate(WORDS)},
        "splits": {"icecream": ["ice", "cream"]},
        "bos": 0, "eos": 1, "pad": 2,
    }
    (tmp_path / "vocab.json").write_text(json.dumps(vocab))
    (tmp_path / "config.json").write_text(json.dumps({
        "d_model": 8, "n_layers": 2, "n_heads": 2, "d_ff": 16,
        "context_length": 8, "eps": 1e-5,
    }))
    return tmp_path


GENDER_LINE = json.dumps({
    "profession": "teacher", "validation": "a teacher", "tests": ["a teacher"],
    "female_ref": "female teacher", "male_ref": "male teacher",
}) + "\n"


def run(*args):
    return main([str(a) for a in args])


def write_split_female_vocab(workdir):
    """Rewrite the workdir's vocabulary so that "female" is two tokens."""
    vocab = json.loads((workdir / "vocab.json").read_text())
    vocab["tokens"]["fe"] = len(vocab["tokens"]) + 3
    vocab["splits"]["female"] = ["fe", "male"]
    (workdir / "vocab.json").write_text(json.dumps(vocab))


def write_probe_dataset(workdir):
    path = workdir / "probe.json"
    path.write_text(json.dumps({
        "label_names": ["red", "yellow"],
        "items": [{"word": w, "label": i % 2} for i, w in enumerate(WORDS)],
    }))
    return path


def init_archive(workdir, name="base.embedit", seed=42, config="config.json"):
    out = workdir / name
    assert run("init", "--config", workdir / config, "--vocab", workdir / "vocab.json",
               "--seed", seed, "--out", out) == 0
    return out


class _Built(Exception):
    pass


@pytest.mark.parametrize("command,consumer,expected", [
    ("edit", "edit_multi_encoder", EditHyperparams()),
    ("seq-edit", "edit_sequential", EditHyperparams()),
    ("gender", "edit_balance", BalancerParams()),
    ("probe", "accuracy_over_seeds", ProbeParams()),
])
def test_flag_defaults_are_the_settings_defaults(workdir, monkeypatch, command, consumer,
                                                 expected):
    # Only the required flags: the settings the command hands on must be the
    # library's defaults, which the flags take their defaults from.
    base = init_archive(workdir)
    edits = workdir / "edits.jsonl"
    edits.write_text(json.dumps({"source": "bear", "destination": "wolf",
                                 "target_word": "bear"}) + "\n")
    gender = workdir / "gender.jsonl"
    gender.write_text(GENDER_LINE)
    args = {
        "edit": ("--source", "bear", "--dest", "wolf", "--target", "bear"),
        "seq-edit": ("--dataset", edits),
        "gender": ("--dataset", gender),
        "probe": ("--dataset", write_probe_dataset(workdir)),
    }[command]

    def built(*args):
        raise _Built(args)

    monkeypatch.setattr(cli, consumer, built)
    with pytest.raises(_Built) as settings:
        run(command, "--weights", base, *args, "--out", workdir / "out")
    assert [a for a in settings.value.args[0] if type(a) is type(expected)] == [expected]


@pytest.mark.parametrize("command", ["edit", "seq-edit", "gender"])
def test_a_failed_archive_save_leaves_the_ledger_saved_before_it(workdir, monkeypatch, command):
    base = init_archive(workdir)
    edits = workdir / "edits.jsonl"
    edits.write_text(json.dumps({"source": "bear", "destination": "wolf",
                                 "target_word": "bear"}) + "\n")
    gender = workdir / "gender.jsonl"
    gender.write_text(GENDER_LINE)
    args = {
        "edit": ("--source", "bear", "--dest", "wolf", "--target", "bear"),
        "seq-edit": ("--dataset", edits),
        "gender": ("--dataset", gender, "--mode", "manual"),
    }[command]

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "save_weights", fail)
    out = workdir / "out"
    assert run(command, "--weights", base, *args, "--max-iters", 5, "--lr", 0.01,
               "--out", out) == 1
    assert len(EditLedger.load(out / "ledger.json")) == 1
    assert not (out / "edited.embedit").exists()


@pytest.mark.parametrize("command", ["report", "revert", "seq-edit", "eval", "gender", "probe"])
def test_every_refused_item_is_named_by_its_file(workdir, capsys, command):
    # One bad item per command: a ledger id past the archive, a word outside
    # the vocabulary. Whatever the command, the message starts with the file.
    base = init_archive(workdir)
    bad = workdir / "bad.json"
    if command in ("report", "revert"):
        zero_row_ledger(8, [999]).save(bad)
        args = ("--ledger", bad)
    elif command == "probe":
        bad.write_text(json.dumps({"label_names": ["red", "yellow"], "items": [
            {"word": w, "label": i % 2} for i, w in enumerate([*WORDS, "zebraxx"])]}))
        args = ("--dataset", bad)
    elif command == "gender":
        bad.write_text(json.dumps({**json.loads(GENDER_LINE), "validation": "a zebraxx"}) + "\n")
        args = ("--dataset", bad)
    else:
        bad.write_text(json.dumps({"source": "a zebraxx", "destination": "a cat",
                                   "target_word": "zebraxx"}) + "\n")
        args = ("--dataset", bad, *(("--reference", base) if command == "eval" else ()))
    capsys.readouterr()
    assert run(command, "--weights", base, *args, "--out", workdir / "out") == 2
    assert capsys.readouterr().err.startswith(f"data error: {bad}: ")
    assert not (workdir / "out").exists()


class TestInit:
    def test_same_seed_gives_byte_identical_archives(self, workdir):
        a = init_archive(workdir, "a.embedit")
        b = init_archive(workdir, "b.embedit")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_exits_one(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({
            "d_model": 8, "n_layers": 1, "n_heads": 3, "d_ff": 16,
            "context_length": 8,
        }))
        capsys.readouterr()
        code = run("init", "--config", bad,
                   "--vocab", workdir / "vocab.json", "--out", workdir / "x.embedit")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: d_model 8 must be divisible by n_heads 3\n")

    @pytest.mark.parametrize("config", [
        {"d_model": 8.7}, {"d_model": "8"}, {"n_layers": True}, {"eps": "1e-5"},
        {"dropout": 0.1}, {"vocab_size": 27}, {"n_heads": None},
    ])
    def test_config_with_mistyped_or_unknown_key_exits_one(self, workdir, capsys, config):
        good = json.loads((workdir / "config.json").read_text())
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({**good, **config}))
        capsys.readouterr()
        assert run("init", "--config", bad, "--vocab", workdir / "vocab.json",
                   "--out", workdir / "x.embedit") == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not (workdir / "x.embedit").exists()

    @pytest.mark.parametrize("config", ["missing_key", "not_object"])
    def test_config_with_missing_key_or_not_an_object_exits_one(self, workdir, capsys, config):
        good = json.loads((workdir / "config.json").read_text())
        del good["d_ff"]
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(good if config == "missing_key" else [good]))
        capsys.readouterr()
        assert run("init", "--config", bad, "--vocab", workdir / "vocab.json",
                   "--out", workdir / "x.embedit") == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("content", [
        b"[" * 100000, b'{"d_model": ', "{\"caf\u00e9\": 1}".encode("latin-1"),
    ], ids=["deeply_nested", "not_json", "not_utf8"])
    def test_config_that_does_not_parse_exits_one_and_writes_nothing(self, workdir, capsys,
                                                                     content):
        bad = workdir / "bad.json"
        bad.write_bytes(content)
        capsys.readouterr()
        assert run("init", "--config", bad, "--vocab", workdir / "vocab.json",
                   "--out", workdir / "x.embedit") == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 JSON:")
        assert not (workdir / "x.embedit").exists()

    def test_eps_may_be_left_out(self, workdir):
        good = json.loads((workdir / "config.json").read_text())
        del good["eps"]
        (workdir / "noeps.json").write_text(json.dumps(good))
        assert init_archive(workdir, "a.embedit", config="noeps.json").read_bytes() == \
            init_archive(workdir, "b.embedit").read_bytes()

    def test_mistyped_vocab_ids_are_data_error(self, workdir, capsys):
        vocab = json.loads((workdir / "vocab.json").read_text())
        (workdir / "bad_vocab.json").write_text(json.dumps({**vocab, "bos": 0.9, "eos": "1"}))
        capsys.readouterr()
        assert run("init", "--config", workdir / "config.json",
                   "--vocab", workdir / "bad_vocab.json", "--out", workdir / "x.embedit") == 2
        assert capsys.readouterr().err == (
            f"data error: {workdir / 'bad_vocab.json'}: vocab: key 'bos' has type float\n")
        assert not (workdir / "x.embedit").exists()

    def test_vocab_word_that_no_prompt_can_read_is_data_error(self, workdir, capsys):
        vocab = json.loads((workdir / "vocab.json").read_text())
        vocab["tokens"]["Bear"] = len(vocab["tokens"]) + 3
        (workdir / "bad_vocab.json").write_text(json.dumps(vocab))
        capsys.readouterr()
        assert run("init", "--config", workdir / "config.json",
                   "--vocab", workdir / "bad_vocab.json", "--out", workdir / "x.embedit") == 2
        assert capsys.readouterr().err == (
            f"data error: {workdir / 'bad_vocab.json'}: word 'Bear' is not one lowercase "
            "word without whitespace\n")
        assert not (workdir / "x.embedit").exists()

    def test_negative_seed_is_usage_error_before_any_file_is_read(self, workdir, capsys):
        # The vocab is not JSON: the flag is checked first, so the exit code
        # does not depend on whether a file is damaged too.
        (workdir / "vocab.json").write_text('{"tokens": ')
        capsys.readouterr()
        assert run("init", "--config", workdir / "config.json", "--vocab", workdir / "vocab.json",
                   "--seed", -1, "--out", workdir / "x.embedit") == 1
        assert capsys.readouterr().err == "error: --seed must be an integer in [0, inf), got -1\n"
        assert not (workdir / "x.embedit").exists()

    def test_archive_loadable_by_edit(self, workdir):
        base = init_archive(workdir)
        code = run("edit", "--weights", base, "--source", "bear", "--dest", "wolf",
                   "--target", "bear", "--lambda", 0.5, "--max-iters", 50,
                   "--lr", 0.01, "--out", workdir / "editout")
        assert code == 0
        assert (workdir / "editout" / "edited.embedit").exists()


class TestEditRevert:
    def test_edit_then_revert_restores_archive_bitwise(self, workdir):
        base = init_archive(workdir)
        assert run("edit", "--weights", base, "--source", "bear", "--dest", "wolf",
                   "--target", "bear", "--lambda", 0.2, "--max-iters", 300,
                   "--lr", 0.01, "--out", workdir / "editout") == 0
        assert run("revert", "--weights", workdir / "editout" / "edited.embedit",
                   "--ledger", workdir / "editout" / "ledger.json",
                   "--out", workdir / "restored.embedit") == 0
        assert (workdir / "restored.embedit").read_bytes() == base.read_bytes()

    def test_edit_outputs_are_reproducible(self, workdir):
        base = init_archive(workdir)
        for out in ("run1", "run2"):
            assert run("edit", "--weights", base, "--source", "bear", "--dest", "wolf",
                       "--target", "bear", "--lambda", 0.2, "--max-iters", 100,
                       "--lr", 0.01, "--out", workdir / out) == 0
        for name in ("edited.embedit", "ledger.json", "edit_summary.json"):
            assert (workdir / "run1" / name).read_bytes() == \
                (workdir / "run2" / name).read_bytes()

    def test_partial_revert(self, workdir):
        base = init_archive(workdir)
        entries = [
            {"source": "bear", "destination": "wolf", "target_word": "bear"},
            {"source": "cat", "destination": "dog", "target_word": "cat"},
        ]
        ds = workdir / "edits.jsonl"
        ds.write_text("".join(json.dumps(e) + "\n" for e in entries))
        assert run("seq-edit", "--weights", base, "--dataset", ds, "--lambda", 0.3,
                   "--max-iters", 100, "--lr", 0.01, "--out", workdir / "seqout") == 0
        assert run("revert", "--weights", workdir / "seqout" / "edited.embedit",
                   "--ledger", workdir / "seqout" / "ledger.json", "--n", 2,
                   "--out", workdir / "restored.embedit") == 0
        assert (workdir / "restored.embedit").read_bytes() == base.read_bytes()
        # Undo the newest edit only; the written ledger then undoes the rest.
        assert run("revert", "--weights", workdir / "seqout" / "edited.embedit",
                   "--ledger", workdir / "seqout" / "ledger.json", "--n", 1,
                   "--ledger-out", workdir / "rest.json",
                   "--out", workdir / "partial.embedit") == 0
        rest = json.loads((workdir / "rest.json").read_text())
        assert [e["target_word"] for e in rest["entries"]] == ["bear"]
        assert run("revert", "--weights", workdir / "partial.embedit",
                   "--ledger", workdir / "rest.json",
                   "--out", workdir / "restored2.embedit") == 0
        assert (workdir / "restored2.embedit").read_bytes() == base.read_bytes()

    def test_diverging_second_seq_edit_exits_three_and_reverts_to_base(
            self, workdir, monkeypatch):
        diverge_adam(monkeypatch, nth_adam=2, nth_step=2)
        base = init_archive(workdir)
        entries = [
            {"source": "bear", "destination": "wolf", "target_word": "bear"},
            {"source": "cat", "destination": "dog", "target_word": "cat"},
        ]
        ds = workdir / "edits.jsonl"
        ds.write_text("".join(json.dumps(e) + "\n" for e in entries))
        out = workdir / "seqout"
        assert run("seq-edit", "--weights", base, "--dataset", ds, "--lambda", 0.0,
                   "--max-iters", 5, "--lr", 0.01, "--out", out) == 3
        ledger = json.loads((out / "ledger.json").read_text())
        assert [e["target_word"] for e in ledger["entries"]] == ["bear"]
        assert run("revert", "--weights", out / "edited.embedit",
                   "--ledger", out / "ledger.json",
                   "--out", workdir / "restored.embedit") == 0
        assert (workdir / "restored.embedit").read_bytes() == base.read_bytes()

    def edited_with_ledger(self, workdir):
        base = init_archive(workdir)
        assert run("edit", "--weights", base, "--source", "bear", "--dest", "wolf",
                   "--target", "bear", "--lambda", 0.5, "--max-iters", 20,
                   "--lr", 0.01, "--out", workdir / "editout") == 0
        return workdir / "editout" / "edited.embedit", workdir / "editout" / "ledger.json"

    @pytest.mark.parametrize("damage", [
        "negative_id", "id_past_vocab", "repeated_id", "short_row", "fewer_rows_than_ids",
        "no_ids", "no_result", "string_in_row", "infinity_in_row", "entry_not_object",
        "not_json", "not_utf8", "extra_row", "short_new_row", "bool_in_row",
        "int_past_float_range_in_row", "ragged_rows", "nested_row", "float_id", "no_new_rows",
        "narrow_rows", "entry_extra_key", "result_extra_key",
    ])
    def test_revert_rejects_ledger_that_does_not_fit(self, workdir, capsys, damage):
        edited, ledger_path = self.edited_with_ledger(workdir)
        ledger = json.loads(ledger_path.read_text())
        entry = ledger["entries"][0]
        (bear,), (row,) = entry["edited_token_ids"], entry["original_rows"]
        vocab_size = len(json.loads((workdir / "vocab.json").read_text())["tokens"]) + 3
        raw = None
        if damage == "negative_id":
            entry["edited_token_ids"] = [-1]
        elif damage == "id_past_vocab":
            entry["edited_token_ids"] = [vocab_size]
        elif damage == "repeated_id":
            entry["edited_token_ids"] = [bear, bear]
            entry["original_rows"] = entry["new_rows"] = [row, row]
        elif damage == "short_row":
            entry["original_rows"] = [row[:1]]
        elif damage == "no_ids":
            entry["edited_token_ids"] = entry["original_rows"] = entry["new_rows"] = []
        elif damage == "no_result":
            del entry["result"]
        elif damage == "string_in_row":
            row[0] = "x"
        elif damage == "infinity_in_row":
            row[0] = float("inf")
        elif damage == "entry_not_object":
            ledger["entries"][0] = [bear]
        elif damage == "not_json":
            raw = b'{"entries": ['
        elif damage == "not_utf8":
            raw = b"\xff\xfe" + json.dumps(ledger).encode()
        elif damage == "extra_row":
            entry["original_rows"] = [row, row]
        elif damage == "short_new_row":
            entry["new_rows"] = [entry["new_rows"][0][:1]]
        elif damage == "bool_in_row":
            row[0] = True
        elif damage == "int_past_float_range_in_row":
            row[0] = 10 ** 400
        elif damage == "ragged_rows":
            entry["edited_token_ids"] = [bear, bear + 1]
            entry["original_rows"] = entry["new_rows"] = [row, row[:1]]
        elif damage == "nested_row":
            row[0] = [row[0]]
        elif damage == "float_id":
            entry["edited_token_ids"] = [float(bear)]
        elif damage == "no_new_rows":
            del entry["new_rows"]
        elif damage == "narrow_rows":
            entry["original_rows"] = [row[:1]]
            entry["new_rows"] = [entry["new_rows"][0][:1]]
        elif damage == "entry_extra_key":
            entry["target"] = entry["target_word"]
        elif damage == "result_extra_key":
            entry["result"]["threshold_tau"] = entry["result"]["tau"]
        else:
            entry["edited_token_ids"] = [bear, bear + 1]
        ledger_path.write_bytes(json.dumps(ledger).encode() if raw is None else raw)
        capsys.readouterr()
        assert run("revert", "--weights", edited, "--ledger", ledger_path,
                   "--out", workdir / "restored.embedit") == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not (workdir / "restored.embedit").exists()

    @pytest.mark.parametrize("table", ["other_seed", "unedited_base", "edited_further"])
    def test_revert_onto_an_archive_the_ledger_did_not_write_exits_two(self, workdir, capsys,
                                                                       table):
        edited, ledger_path = self.edited_with_ledger(workdir)
        assert json.loads(ledger_path.read_text())["entries"][0]["result"]["optimizer_steps"]
        weights = workdir / "base.embedit"
        if table == "other_seed":
            weights = init_archive(workdir, "other.embedit", seed=1)
        elif table == "edited_further":  # one more edit of the same word, outside the ledger
            assert run("edit", "--weights", edited, "--source", "a bear", "--dest", "a fox",
                       "--target", "bear", "--lambda", 0.5, "--max-iters", 20, "--lr", 0.01,
                       "--out", workdir / "further") == 0
            weights = workdir / "further" / "edited.embedit"
        capsys.readouterr()
        assert run("revert", "--weights", weights, "--ledger", ledger_path,
                   "--ledger-out", workdir / "rest.json",
                   "--out", workdir / "restored.embedit") == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {ledger_path}: ledger entry 0: the table's row")
        assert not (workdir / "restored.embedit").exists()
        assert not (workdir / "rest.json").exists()

    def test_revert_of_a_ledger_whose_older_entry_has_another_width_exits_two(self, workdir,
                                                                              capsys):
        edited, ledger_path = self.edited_with_ledger(workdir)
        ledger = json.loads(ledger_path.read_text())
        entry = ledger["entries"][0]
        older = {**entry, "original_rows": [entry["original_rows"][0][:5]],
                 "new_rows": [entry["new_rows"][0][:5]]}
        ledger["entries"].insert(0, older)
        ledger_path.write_text(json.dumps(ledger))
        capsys.readouterr()
        assert run("revert", "--weights", edited, "--ledger", ledger_path,
                   "--ledger-out", workdir / "rest.json",
                   "--out", workdir / "restored.embedit") == 2
        assert capsys.readouterr().err == (
            f"data error: {ledger_path}: ledger entry 0: rows of width 5, d_model is 8\n")
        assert not (workdir / "restored.embedit").exists()
        assert not (workdir / "rest.json").exists()

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("older,message", [
        (zero_row_ledger(8, [999]), "id 999 is not in [0, 27)"),
        (zero_row_ledger(5, [3]), "rows of width 5, d_model is 8"),
    ], ids=["id", "width"])
    def test_revert_refuses_an_older_entry_that_does_not_fit_at_any_depth(
            self, workdir, capsys, n, older, message):
        # Only the newest entry is undone, or none, yet the ledger as a whole
        # must fit the archive, as report requires.
        edited, ledger_path = self.edited_with_ledger(workdir)
        ledger = EditLedger.load(ledger_path)
        ledger.entries[:0] = older.entries
        ledger.save(ledger_path)
        capsys.readouterr()
        assert run("revert", "--weights", edited, "--ledger", ledger_path, "--n", n,
                   "--ledger-out", workdir / "rest.json",
                   "--out", workdir / "restored.embedit") == 2
        assert capsys.readouterr().err == (
            f"data error: {ledger_path}: ledger entry 0: {message}\n")
        assert not (workdir / "restored.embedit").exists()
        assert not (workdir / "rest.json").exists()

    def test_partial_revert_rejects_an_earlier_entry_with_repeated_ids(self, workdir, capsys):
        # An entry with repeated ids is malformed even where revert does not
        # undo it: loading fails before --ledger-out could rewrite it.
        base = init_archive(workdir)
        ds = workdir / "edits.jsonl"
        ds.write_text("".join(json.dumps({"source": w, "destination": "wolf",
                                          "target_word": w}) + "\n" for w in ("bear", "cat")))
        assert run("seq-edit", "--weights", base, "--dataset", ds, "--lambda", 0.5,
                   "--max-iters", 5, "--lr", 0.01, "--out", workdir / "seqout") == 0
        ledger_path = workdir / "seqout" / "ledger.json"
        ledger = json.loads(ledger_path.read_text())
        entry = ledger["entries"][0]
        (bear,), (row,) = entry["edited_token_ids"], entry["original_rows"]
        entry["edited_token_ids"] = [bear, bear]
        entry["original_rows"] = entry["new_rows"] = [row, [v + 1.0 for v in row]]
        ledger_path.write_text(json.dumps(ledger))
        before = ledger_path.read_bytes()
        capsys.readouterr()
        assert run("revert", "--weights", workdir / "seqout" / "edited.embedit",
                   "--ledger", ledger_path, "--n", 1, "--ledger-out", ledger_path,
                   "--out", workdir / "restored.embedit") == 2
        assert capsys.readouterr().err == (
            f"data error: {ledger_path}: ledger entry 0: repeated id {bear}\n")
        assert ledger_path.read_bytes() == before
        assert not (workdir / "restored.embedit").exists()

    def test_revert_onto_its_input_archive_writes_the_base_bytes(self, workdir):
        base = init_archive(workdir)
        edited, ledger_path = self.edited_with_ledger(workdir)
        assert edited.read_bytes() != base.read_bytes()
        assert run("revert", "--weights", edited, "--ledger", ledger_path,
                   "--out", edited) == 0
        assert edited.read_bytes() == base.read_bytes()
        assert sorted(p.name for p in edited.parent.iterdir()) == [
            "edit_summary.json", "edited.embedit", "ledger.json"]

    def test_revert_in_place_saves_over_the_archive_it_mapped(self, workdir, monkeypatch):
        # The loaded tensors view a map of the very file the save replaces;
        # the rename leaves the mapped inode as it was while the save reads it.
        base = init_archive(workdir)
        edited, ledger_path = self.edited_with_ledger(workdir)
        mapped = edited.stat().st_ino
        seen, real_save = [], cli.save_weights

        def save(path, config, weights, vocab):
            owner = map_owner(weights.positional.array)
            seen.append((isinstance(owner, mmap.mmap), Path(path).stat().st_ino))
            real_save(path, config, weights, vocab)

        monkeypatch.setattr(cli, "save_weights", save)
        assert run("revert", "--weights", edited, "--ledger", ledger_path,
                   "--out", edited) == 0
        assert seen == [(True, mapped)]
        assert edited.read_bytes() == base.read_bytes()
        assert edited.stat().st_ino != mapped

    def test_revert_writes_its_ledger_into_a_new_directory(self, workdir):
        base = init_archive(workdir)
        edited, ledger_path = self.edited_with_ledger(workdir)
        rest = workdir / "new" / "dir" / "l.json"
        assert run("revert", "--weights", edited, "--ledger", ledger_path,
                   "--out", workdir / "restored.embedit", "--ledger-out", rest) == 0
        assert (workdir / "restored.embedit").read_bytes() == base.read_bytes()
        assert len(EditLedger.load(rest)) == 0
        assert [p.name for p in rest.parent.iterdir()] == ["l.json"]

    def test_revert_deeper_than_ledger_is_usage_error(self, workdir, capsys):
        edited, ledger_path = self.edited_with_ledger(workdir)
        capsys.readouterr()
        assert run("revert", "--weights", edited, "--ledger", ledger_path, "--n", 2,
                   "--out", workdir / "restored.embedit") == 1
        assert capsys.readouterr().err.startswith("error: cannot revert 2 of 1")

    def test_negative_n_is_usage_error_before_any_file_is_read(self, workdir, capsys):
        # A truncated archive and a ledger that does not exist: the flag is
        # checked first, as edit, gender and probe check theirs.
        truncated = workdir / "truncated.embedit"
        truncated.write_bytes(init_archive(workdir).read_bytes()[:40])
        capsys.readouterr()
        assert run("revert", "--weights", truncated, "--ledger", workdir / "missing.json",
                   "--n", -1, "--out", workdir / "restored.embedit") == 1
        assert capsys.readouterr().err == "error: --n must be an integer in [0, inf), got -1\n"
        assert not (workdir / "restored.embedit").exists()


class TestSeqEditAndEval:
    def make_dataset(self, workdir, n=10):
        sources = ["bear", "cat", "dog", "zoo", "red", "blue", "tree", "panda",
                   "koala", "sloth"][:n]
        dests = ["wolf", "fox", "wolf", "painting", "blue", "red", "little tree",
                 "polar panda", "little koala", "polar sloth"][:n]
        lines = []
        for s, d in zip(sources, dests):
            lines.append(json.dumps({
                "source": s, "destination": d, "target_word": s,
                "positives": [[f"a {s}", f"a {d}"]],
                "negatives": [["a teacher", "a little teacher"]],
            }))
        path = workdir / "edits10.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_ten_entries_give_ten_per_entry_records(self, workdir):
        base = init_archive(workdir)
        ds = self.make_dataset(workdir)
        assert run("seq-edit", "--weights", base, "--dataset", ds, "--lambda", 0.3,
                   "--max-iters", 150, "--lr", 0.01, "--out", workdir / "seqout") == 0
        assert run("eval", "--weights", workdir / "seqout" / "edited.embedit",
                   "--reference", base, "--dataset", ds,
                   "--out", workdir / "evalout") == 0
        report = json.loads((workdir / "evalout" / "report.json").read_text())
        assert len(report["per_entry"]) == 10
        assert (workdir / "evalout" / "report.txt").exists()

    def test_failed_sequential_run_keeps_ledger_on_disk(self, workdir, monkeypatch):
        diverge_adam(monkeypatch, nth_adam=2, nth_step=1)
        base = init_archive(workdir)
        lines = [
            json.dumps({"source": "bear", "destination": "wolf", "target_word": "bear"}),
            json.dumps({"source": "cat", "destination": "dog", "target_word": "cat"}),
        ]
        ds = workdir / "bad.jsonl"
        ds.write_text("\n".join(lines) + "\n")
        code = run("seq-edit", "--weights", base, "--dataset", ds, "--lambda", 0.3,
                   "--max-iters", 50, "--lr", 0.01, "--out", workdir / "seqout")
        assert code == 3
        ledger = json.loads((workdir / "seqout" / "ledger.json").read_text())
        assert len(ledger["entries"]) == 1

    @pytest.mark.parametrize("second,message", [
        ({"source": "a zebraxx", "destination": "a cat", "target_word": "zebraxx"},
         "word 'zebraxx' is not in the vocabulary or split table"),
        ({"source": "cat", "destination": "dog", "target_word": "bear"},
         "target 'bear' tokens [4] do not occur in source prompt 'cat'"),
        ({"source": "cat", "destination": "a cat " * 4, "target_word": "cat"},
         "prompt needs 10 tokens but context length is 8"),
    ], ids=["unknown_word", "target_not_in_source", "overlong_destination"])
    def test_a_bad_entry_is_refused_before_the_first_edit(self, workdir, capsys, second,
                                                           message):
        base = init_archive(workdir)
        ds = workdir / "bad.jsonl"
        ds.write_text(json.dumps({"source": "a cat", "destination": "a dog",
                                  "target_word": "cat"}) + "\n" + json.dumps(second) + "\n")
        capsys.readouterr()
        assert run("seq-edit", "--weights", base, "--dataset", ds, "--lambda", 0.3,
                   "--max-iters", 50, "--lr", 0.01, "--out", workdir / "seqout") == 2
        assert capsys.readouterr().err == f"data error: {ds}: line 2: {message}\n"
        assert not (workdir / "seqout").exists()

    @pytest.mark.parametrize("command", ["seq-edit", "eval", "gender-manual", "gender-auto"])
    def test_a_refused_entry_is_named_by_its_line(self, workdir, capsys, monkeypatch, command):
        # Line 2 is blank: the bad entry is the dataset's second, on line 3.
        # Every line is checked before the first forward, so none runs. In
        # auto mode the vocabulary also splits "female": the lines are
        # checked first, so the bad line is what the refusal names.
        import embedit.encoder as encoder

        if command == "gender-auto":
            write_split_female_vocab(workdir)
        base = init_archive(workdir)
        if command.startswith("gender"):
            lines = [json.loads(GENDER_LINE), {**json.loads(GENDER_LINE),
                                               "tests": ["a teacher", "a zebraxx teacher"]}]
            args = ("gender", "--mode", command.split("-")[1])
        else:
            lines = [{"source": "a cat", "destination": "a dog", "target_word": "cat"},
                     {"source": "a zebraxx", "destination": "a cat", "target_word": "zebraxx"}]
            args = (command, *(("--reference", base) if command == "eval" else ()))
        ds = workdir / "ds.jsonl"
        ds.write_text("\n\n".join(json.dumps(e) for e in lines) + "\n")
        forwards = []
        real_forward = encoder._forward
        monkeypatch.setattr(encoder, "_forward",
                            lambda *a, **k: forwards.append(a) or real_forward(*a, **k))
        capsys.readouterr()
        assert run(*args, "--weights", base, "--dataset", ds, "--out", workdir / "out") == 2
        assert capsys.readouterr().err == (
            f"data error: {ds}: line 3: word 'zebraxx' is not in the vocabulary or split table\n")
        assert forwards == []
        assert not (workdir / "out").exists()

    def test_dataset_line_not_utf8_is_data_error(self, workdir, capsys):
        base = init_archive(workdir)
        ds = workdir / "latin1.jsonl"
        ds.write_bytes(self.make_dataset(workdir, n=1).read_bytes()
                       + '{"source": "caf\u00e9"}\n'.encode("latin-1"))
        capsys.readouterr()
        assert run("seq-edit", "--weights", base, "--dataset", ds,
                   "--out", workdir / "seqout") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {ds}: line 2: not UTF-8 JSON: ")
        assert not (workdir / "seqout").exists()

    def test_dataset_line_missing_key_names_line(self, workdir, capsys):
        base = init_archive(workdir)
        ds = workdir / "nodest.jsonl"
        ds.write_bytes(self.make_dataset(workdir, n=1).read_bytes()
                       + b'{"source": "cat", "target_word": "cat"}\n')
        capsys.readouterr()
        assert run("seq-edit", "--weights", base, "--dataset", ds,
                   "--out", workdir / "seqout") == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "destination" in err
        assert not (workdir / "seqout").exists()

    @pytest.mark.parametrize("field", [
        {"source": 5}, {"target_word": ["cat"]}, {"destination": None},
        {"positives": [[1, 2]]}, {"positives": ["ab"]}, {"positives": [["a cat"]]},
        {"negatives": [["a dog", "a wolf", "a fox"]]}, {"negatives": "a dog"},
        {"negative": [["a dog", "a wolf"]]},
    ])
    def test_dataset_field_that_is_not_a_string_names_line(self, workdir, capsys, field):
        base = init_archive(workdir)
        line = {"source": "cat", "destination": "dog", "target_word": "cat", **field}
        ds = workdir / "mistyped.jsonl"
        ds.write_bytes(self.make_dataset(workdir, n=1).read_bytes()
                       + json.dumps(line).encode() + b"\n")
        capsys.readouterr()
        for command in ("seq-edit", "eval"):
            reference = ("--reference", base) if command == "eval" else ()
            assert run(command, "--weights", base, *reference, "--dataset", ds,
                       "--out", workdir / "out") == 2
            assert capsys.readouterr().err.startswith(f"data error: {ds}: line 2: ")
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("excluded", ['"bear"', '[1]', '{"bear": 1}', '[["bear"]]'])
    def test_exclude_that_is_not_a_list_of_words_is_data_error(self, workdir, capsys, excluded):
        base = init_archive(workdir)
        (workdir / "exclude.json").write_text(excluded)
        capsys.readouterr()
        assert run("eval", "--weights", base, "--reference", base,
                   "--dataset", self.make_dataset(workdir, n=2), "--sequential-filter",
                   "--exclude", workdir / "exclude.json", "--out", workdir / "evalout") == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not (workdir / "evalout").exists()

    def test_exclude_drops_the_listed_targets(self, workdir):
        base = init_archive(workdir)
        (workdir / "exclude.json").write_text('["bear"]')
        assert run("eval", "--weights", base, "--reference", base,
                   "--dataset", self.make_dataset(workdir, n=2), "--sequential-filter",
                   "--exclude", workdir / "exclude.json", "--out", workdir / "evalout") == 0
        report = json.loads((workdir / "evalout" / "report.json").read_text())
        assert [e["target_word"] for e in report["per_entry"]] == ["cat"]

    def test_exclude_without_sequential_filter_is_usage_error(self, workdir, capsys):
        base = init_archive(workdir)
        (workdir / "exclude.json").write_text('["bear"]')
        capsys.readouterr()
        assert run("eval", "--weights", base, "--reference", base,
                   "--dataset", self.make_dataset(workdir, n=2),
                   "--exclude", workdir / "exclude.json", "--out", workdir / "evalout") == 1
        assert capsys.readouterr().err.startswith("error: --exclude needs --sequential-filter")
        assert not (workdir / "evalout").exists()

    @pytest.mark.parametrize("differs", ["config", "vocab", "both"])
    def test_reference_that_does_not_match_the_weights_is_data_error(self, workdir, capsys,
                                                                     differs):
        config = json.loads((workdir / "config.json").read_text())
        vocab = json.loads((workdir / "vocab.json").read_text())
        if differs != "vocab":
            config["n_layers"] = 1
        if differs != "config":
            tokens = vocab["tokens"]
            tokens["bear"], tokens["cat"] = tokens["cat"], tokens["bear"]
        (workdir / "other_config.json").write_text(json.dumps(config))
        (workdir / "other_vocab.json").write_text(json.dumps(vocab))
        other = workdir / "other.embedit"
        assert run("init", "--config", workdir / "other_config.json",
                   "--vocab", workdir / "other_vocab.json", "--out", other) == 0
        base = init_archive(workdir)
        capsys.readouterr()
        assert run("eval", "--weights", other, "--reference", base,
                   "--dataset", self.make_dataset(workdir, n=2),
                   "--out", workdir / "evalout") == 2
        assert capsys.readouterr().err == (
            f"data error: {base}: config or vocab differs from {other}'s\n")
        assert not (workdir / "evalout").exists()


class TestReport:
    def test_wide_single_edit_prints_table_numbers(self, workdir, capsys):
        (workdir / "wide.json").write_text(json.dumps({
            "d_model": 768, "n_layers": 1, "n_heads": 8, "d_ff": 32,
            "context_length": 8, "eps": 1e-5,
        }))
        base = init_archive(workdir, "wide.embedit", config="wide.json")
        assert run("edit", "--weights", base, "--source", "bear", "--dest", "wolf",
                   "--target", "bear", "--lambda", 1.0, "--out", workdir / "eo") == 0
        capsys.readouterr()
        assert run("report", "--ledger", workdir / "eo" / "ledger.json",
                   "--weights", base) == 0
        out = capsys.readouterr().out
        assert "modified=768 flops=1536" in out

    def test_dual_encoder_totals(self, workdir, capsys):
        base = init_archive(workdir)
        assert run("edit", "--weights", base, "--weights", base, "--source", "bear",
                   "--dest", "wolf", "--target", "bear", "--lambda", 1.0,
                   "--out", workdir / "dual") == 0
        out = capsys.readouterr().out
        assert "modified=16 flops=32" in out
        assert (workdir / "dual" / "edited2.embedit").exists()
        capsys.readouterr()
        # The widths come from the ledgers' rows, so report agrees with edit.
        assert run("report", "--ledger", workdir / "dual" / "ledger.json", "--weights", base,
                   "--ledger", workdir / "dual" / "ledger2.json", "--weights", base,
                   "--out", workdir / "rep") == 0
        out = capsys.readouterr().out
        assert "total: modified=16 flops=32" in out
        budget = json.loads((workdir / "rep" / "budget.json").read_text())
        assert (budget["total_modified_scalars"], budget["total_update_flops"]) == (16, 32)
        assert budget["total_model_params"] == 2 * load_config(base).total_params()

    def test_interleaved_ledger_and_weights_flags_pair_by_position(self, workdir, capsys):
        (workdir / "wide.json").write_text(json.dumps({
            "d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32,
            "context_length": 8, "eps": 1e-5,
        }))
        base = init_archive(workdir)
        wide = init_archive(workdir, "wide.embedit", config="wide.json")
        assert run("edit", "--weights", base, "--weights", wide, "--source", "bear",
                   "--dest", "wolf", "--target", "bear", "--lambda", 1.0,
                   "--out", workdir / "dual") == 0
        one, two = workdir / "dual" / "ledger.json", workdir / "dual" / "ledger2.json"
        assert EditLedger.load(two).entries[0].new_rows.shape == (1, 16)
        capsys.readouterr()
        assert run("report", "--ledger", one, "--weights", base, "--ledger", two,
                   "--weights", wide, "--out", workdir / "interleaved") == 0
        assert run("report", "--ledger", one, "--ledger", two, "--weights", base,
                   "--weights", wide, "--out", workdir / "grouped") == 0
        assert capsys.readouterr().out.count("total: modified=24 flops=48\n") == 2
        budget = (workdir / "interleaved" / "budget.json").read_bytes()
        assert budget == (workdir / "grouped" / "budget.json").read_bytes()
        assert json.loads(budget)["total_model_params"] == (
            load_config(base).total_params() + load_config(wide).total_params())

    def test_second_ledger_without_its_archive_or_a_total_is_usage_error(
            self, workdir, capsys):
        base = init_archive(workdir)
        assert run("edit", "--weights", base, "--weights", base, "--source", "bear",
                   "--dest", "wolf", "--target", "bear", "--lambda", 1.0,
                   "--out", workdir / "dual") == 0
        capsys.readouterr()
        assert run("report", "--ledger", workdir / "dual" / "ledger.json",
                   "--ledger", workdir / "dual" / "ledger2.json", "--weights", base) == 1
        assert capsys.readouterr().err.startswith("error: report needs one --weights per")
        assert run("report", "--ledger", workdir / "dual" / "ledger.json") == 1
        assert capsys.readouterr().err.startswith(
            "error: the following arguments are required: --weights")

    def test_report_weights_reads_only_the_header(self, workdir, capsys, monkeypatch):
        base = init_archive(workdir)
        assert run("edit", "--weights", base, "--source", "bear", "--dest", "wolf",
                   "--target", "bear", "--lambda", 1.0, "--out", workdir / "eo") == 0
        # The header's count must equal the count over every loaded tensor.
        total = sum(math.prod(t.shape) for _, t in load_weights(base)[1].named_tensors())
        reads = []
        monkeypatch.setattr(archive, "_read_exactly", lambda f, a: reads.append(a.shape))
        capsys.readouterr()
        assert run("report", "--ledger", workdir / "eo" / "ledger.json",
                   "--weights", base) == 0
        assert f"modified=8 flops=16 ratio={8 / total:.3g}\n" in capsys.readouterr().out
        assert reads == []

    def test_ledger_rows_of_no_scalars_are_data_error(self, workdir, capsys):
        base, ledger = init_archive(workdir), workdir / "ledger.json"
        obj = zero_row_ledger(8, [3]).to_json()
        obj["entries"][0]["original_rows"] = obj["entries"][0]["new_rows"] = [[]]
        ledger.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("report", "--ledger", ledger, "--weights", base,
                   "--out", workdir / "rep") == 2
        assert capsys.readouterr().err == (
            f"data error: {ledger}: ledger entry 0: original rows of shape (1, 0) and new rows "
            "of shape (1, 0) for 1 token ids\n")
        assert not (workdir / "rep").exists()

    @pytest.mark.parametrize("ledger,entry,message", [
        (zero_row_ledger(5, [999]), 0, "id 999 is not in [0, {v})"),
        (zero_row_ledger(8, [3], [999]), 1, "id 999 is not in [0, {v})"),
        (zero_row_ledger(5, [3]), 0, "rows of width 5, d_model is 8"),
    ], ids=["id_and_width", "id", "width"])
    def test_ledger_that_does_not_fit_its_archive_is_data_error(self, workdir, capsys, ledger,
                                                                 entry, message):
        # report and revert share the one fit rule, so they refuse alike.
        base, path = init_archive(workdir), workdir / "ledger.json"
        ledger.save(path)
        message = message.format(v=load_config(base).vocab_size)
        for command in ("report", "revert"):
            capsys.readouterr()
            assert run(command, "--ledger", path, "--weights", base,
                       "--out", workdir / "out") == 2
            assert capsys.readouterr().err == (
                f"data error: {path}: ledger entry {entry}: {message}\n")
            assert not (workdir / "out").exists()

    def test_report_on_a_damaged_header_is_data_error(self, workdir, capsys):
        base = init_archive(workdir)
        ledger = workdir / "ledger.json"
        zero_row_ledger(8, [3]).save(ledger)
        blob = bytearray(base.read_bytes())
        blob[blob.index(b'"n_layers": 2') + 12] = ord("3")
        bad = workdir / "bad.embedit"
        bad.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run("report", "--ledger", ledger, "--weights", bad) == 2
        assert capsys.readouterr().err.startswith(f"data error: {bad}: tensor entry ")

    def test_second_archive_without_its_ledger_is_usage_error(self, workdir, capsys):
        ledger = workdir / "ledger.json"
        zero_row_ledger(8, [3]).save(ledger)
        # Checked before any file is read: the archives do not exist.
        assert run("report", "--ledger", ledger, "--weights", workdir / "a.embedit",
                   "--weights", workdir / "b.embedit") == 1
        assert capsys.readouterr().err == "error: report needs one --weights per --ledger\n"

    def test_budget_write_that_raises_leaves_old_file_and_no_temporary_file(
            self, workdir, monkeypatch):
        ledger, out, base = workdir / "ledger.json", workdir / "rep", init_archive(workdir)
        zero_row_ledger(8, [3]).save(ledger)
        assert run("report", "--ledger", ledger, "--weights", base, "--out", out) == 0
        before = (out / "budget.json").read_bytes()
        monkeypatch.setattr(archive, "open",
                            lambda *a, **k: FailingFile(open(*a, **k), 1, OSError("disk full")),
                            raising=False)
        assert run("report", "--ledger", ledger, "--weights", base, "--out", out) == 1
        assert (out / "budget.json").read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["budget.json"]

    def test_ledgers_that_cover_different_numbers_of_edits_are_data_error(self, workdir,
                                                                           capsys):
        one, two, base = workdir / "one.json", workdir / "two.json", init_archive(workdir)
        zero_row_ledger(8, [3]).save(one)
        zero_row_ledger(8, [3], [4]).save(two)
        capsys.readouterr()
        assert run("report", "--ledger", one, "--weights", base, "--ledger", two,
                   "--weights", base, "--out", workdir / "rep") == 2
        assert capsys.readouterr().err == (
            "data error: ledgers cover different numbers of edits\n")
        assert not (workdir / "rep").exists()

    def test_ledger_that_is_not_json_is_data_error(self, workdir, capsys):
        bad, base = workdir / "ledger.json", init_archive(workdir)
        bad.write_text('{"entries": [')
        assert run("report", "--ledger", bad, "--weights", base,
                   "--out", workdir / "rep") == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not (workdir / "rep").exists()

    @pytest.mark.parametrize("flags,message", [
        (("--ledger", "LEDGER", "--weights", "base.embedit"),
         "report needs one --weights per --ledger"),
        (("--weights", "a.embedit", "--weights", "b.embedit"),
         "report needs one --weights per --ledger"),
    ], ids=["second_ledger_without_archive", "more_archives_than_ledgers"])
    def test_flags_are_checked_before_any_ledger_is_read(self, workdir, capsys, flags,
                                                         message):
        # The ledgers are not JSON; the usage error still wins, as it does for
        # edit, gender and probe.
        bad = workdir / "ledger.json"
        bad.write_text('{"entries": [')
        flags = [bad if f == "LEDGER" else f for f in flags]
        assert run("report", "--ledger", bad, *flags, "--out", workdir / "rep") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "rep").exists()


class TestGenderAndProbe:
    def test_gender_manual_writes_report(self, workdir):
        base = init_archive(workdir)
        gender = {
            "profession": "teacher", "validation": "a teacher",
            "tests": ["a teacher", "teacher with a dog", "little teacher",
                      "teacher on tree", "a teacher painting"],
            "female_ref": "female teacher", "male_ref": "male teacher",
        }
        ds = workdir / "gender.jsonl"
        ds.write_text(json.dumps(gender) + "\n")
        assert run("gender", "--weights", base, "--dataset", ds, "--mode", "manual",
                   "--lambda", 0.3, "--lr", 0.01, "--max-iters", 100,
                   "--out", workdir / "genderout") == 0
        report = json.loads((workdir / "genderout" / "gender_report.json").read_text())
        assert len(report["per_profession"]) == 1
        assert 0.0 <= report["edited_delta"] <= 1.0

    def test_gender_auto_mode_runs(self, workdir):
        base = init_archive(workdir)
        gender = {
            "profession": "teacher", "validation": "a teacher",
            "tests": ["a teacher"],
            "female_ref": "female teacher", "male_ref": "male teacher",
        }
        ds = workdir / "gender.jsonl"
        ds.write_text(json.dumps(gender) + "\n")
        assert run("gender", "--weights", base, "--dataset", ds, "--mode", "auto",
                   "--lr", 0.01, "--max-iters", 50, "--out", workdir / "auto") == 0
        assert (workdir / "auto" / "ledger.json").exists()

    def test_gender_encodes_each_reference_once(self, workdir, monkeypatch):
        import embedit.cli as cli
        from embedit.encoder import EncoderBundle

        base = init_archive(workdir)
        gender = {
            "profession": "teacher", "validation": "a teacher", "tests": ["a teacher"],
            "female_ref": "female teacher", "male_ref": "male teacher",
        }
        ds = workdir / "gender.jsonl"
        ds.write_text(json.dumps(gender) + "\n")
        prompts, reads, edits = [], [], []
        real, real_pooled = EncoderBundle.encode_prompt, cli.encode_pooled
        real_edit = cli.edit_balance

        def spy(self, prompt, *args, **kwargs):
            if not edits:
                prompts.append(prompt)
            return real(self, prompt, *args, **kwargs)

        def spy_pooled(bundle, batch):
            pooled = real_pooled(bundle, batch)
            if not edits:
                prompts.extend(pooled)
            reads.append((len(edits), list(batch)))
            return pooled

        def edit(*args):
            edits.append(args)
            return real_edit(*args)

        # Before the first edit the references are read in full or pooled;
        # either way, once. The read after the edit gets the same prompt list.
        monkeypatch.setattr(EncoderBundle, "encode_prompt", spy)
        monkeypatch.setattr(cli, "encode_pooled", spy_pooled)
        monkeypatch.setattr(cli, "edit_balance", edit)
        assert run("gender", "--weights", base, "--dataset", ds, "--mode", "auto",
                   "--max-iters", 2, "--out", workdir / "auto") == 0
        assert prompts.count("female teacher") == 1
        assert prompts.count("male teacher") == 1
        (before, reference), (after, post_edit) = reads
        assert (before, after) == (0, 1)
        assert post_edit == reference

    def test_gender_loads_the_archive_once(self, workdir, monkeypatch):
        import embedit.cli as cli
        from embedit.encoder import EncoderBundle, encode_pooled
        from embedit.evaluation import GenderEntry, female_percentage

        base = init_archive(workdir)
        gender = {
            "profession": "teacher", "validation": "a teacher",
            "tests": ["a teacher", "teacher with a dog", "little teacher"],
            "female_ref": "female teacher", "male_ref": "male teacher",
        }
        ds = workdir / "gender.jsonl"
        ds.write_text(json.dumps(gender) + "\n")
        loads = []
        real = cli.load_weights
        monkeypatch.setattr(cli, "load_weights", lambda path: loads.append(path) or real(path))
        assert run("gender", "--weights", base, "--dataset", ds, "--mode", "manual",
                   "--lambda", 0.3, "--lr", 0.01, "--max-iters", 100,
                   "--out", workdir / "genderout") == 0
        assert len(loads) == 1
        assert (workdir / "genderout" / "edited.embedit").read_bytes() != base.read_bytes()
        # The baseline is scored on the unedited table, as by a reference
        # loaded on its own and read as the command reads it.
        reference = EncoderBundle(*real(base))
        entry = GenderEntry.from_json(gender)
        pooled = encode_pooled(reference, entry.prompts)
        baseline = female_percentage(entry, pooled, pooled[entry.female_ref],
                                     pooled[entry.male_ref])
        report = json.loads((workdir / "genderout" / "gender_report.json").read_text())
        assert report["per_profession"][0]["baseline_f"] == baseline

    def test_gender_reads_each_profession_once_before_the_first_edit(self, workdir,
                                                                    monkeypatch):
        import embedit.encoder as encoder

        base = init_archive(workdir)
        panda = {"profession": "panda", "validation": "a panda",
                 "tests": ["a panda", "little panda"],
                 "female_ref": "female panda", "male_ref": "male panda"}
        ds = workdir / "gender.jsonl"
        ds.write_text(GENDER_LINE + json.dumps(panda) + "\n")
        events, editing = [], []
        real_forward, real_edit = encoder._forward, cli.edit_balance

        def forward(ids, *args, **kwargs):
            if not editing:  # the edit's own forwards are not reads
                events.append(len(ids))
            return real_forward(ids, *args, **kwargs)

        def edit(bundle, request, *args):
            events.append(request.profession)
            editing.append(request)
            try:
                return real_edit(bundle, request, *args)
            finally:
                editing.pop()

        monkeypatch.setattr(encoder, "_forward", forward)
        monkeypatch.setattr(cli, "edit_balance", edit)
        assert run("gender", "--weights", base, "--dataset", ds, "--mode", "manual",
                   "--max-iters", 2, "--out", workdir / "genderout") == 0
        # One forward per profession over its distinct prompts (both
        # references, validation and tests; not the profession, which every
        # test holds), then the same prompts on each edited table after its
        # edit, so both reads of a test share one layout.
        assert events == [3, 4, "teacher", 3, "panda", 4]

    def test_gender_reads_unchanged_rows_bitwise_where_a_rows_bits_depend_on_its_offset(
            self, tmp_path):
        # Under OpenBLAS's Nehalem kernels, its SSE path for CPUs without
        # AVX, a row of a stacked product is not bitwise its own product. An
        # edit that takes no step changes no row, and the read after it
        # stacks the same prompts in the same order as the read before it,
        # so every test row keeps its bits and F does not move.
        out = run_child(["-c", "import json, sys, test_cli as t; "
                               "print(json.dumps(t._gender_at_clip_l_widths(sys.argv[1])))",
                         str(tmp_path)], {"OPENBLAS_CORETYPE": "Nehalem"})
        got = json.loads(out.splitlines()[-1])  # after the command's own lines
        assert [r["result"]["optimizer_steps"] for r in got["rows"]] == [0]
        assert all(r["edited_f"] == r["baseline_f"] for r in got["rows"])
        assert got["changed_test_rows"] == [[]]

    def test_diverging_second_profession_exits_three_and_reverts_to_base(
            self, workdir, capsys, monkeypatch):
        diverge_adam(monkeypatch, nth_adam=2, nth_step=1)
        base = init_archive(workdir)
        panda = {"profession": "panda", "validation": "a panda", "tests": ["a panda"],
                 "female_ref": "female panda", "male_ref": "male panda"}
        ds = workdir / "gender.jsonl"
        ds.write_text(GENDER_LINE + json.dumps(panda) + "\n")
        out = workdir / "genderout"
        capsys.readouterr()
        assert run("gender", "--weights", base, "--dataset", ds, "--mode", "auto",
                   "--max-iters", 5, "--lr", 0.01, "--out", out) == 3
        assert capsys.readouterr().out.startswith("teacher: baseline F=")
        ledger = json.loads((out / "ledger.json").read_text())
        assert [e["target_word"] for e in ledger["entries"]] == ["teacher"]
        assert not (out / "gender_report.json").exists()
        assert run("revert", "--weights", out / "edited.embedit",
                   "--ledger", out / "ledger.json",
                   "--out", workdir / "restored.embedit") == 0
        assert (workdir / "restored.embedit").read_bytes() == base.read_bytes()

    def test_gender_has_no_delta_normalizer_flag(self, workdir, capsys):
        base = init_archive(workdir)
        ds = workdir / "gender.jsonl"
        ds.write_text(GENDER_LINE)
        assert run("gender", "--weights", base, "--dataset", ds, "--delta-normalizer", 2,
                   "--out", workdir / "genderout") == 1
        assert "unrecognized arguments: --delta-normalizer" in capsys.readouterr().err
        assert not (workdir / "genderout").exists()

    @pytest.mark.parametrize("field", [{"profession": 5}, {"tests": [5]}, {"tests": "a teacher"},
                                       {"male_ref": ["male teacher"]}, {"test": ["a teacher"]}])
    def test_gender_field_that_is_not_a_string_is_data_error(self, workdir, capsys, field):
        base = init_archive(workdir)
        gender = {"profession": "teacher", "validation": "a teacher", "tests": ["a teacher"],
                  "female_ref": "female teacher", "male_ref": "male teacher"}
        ds = workdir / "gender.jsonl"
        ds.write_text(json.dumps({**gender, **field}) + "\n")
        capsys.readouterr()
        assert run("gender", "--weights", base, "--dataset", ds,
                   "--out", workdir / "genderout") == 2
        assert capsys.readouterr().err.startswith(f"data error: {ds}: line 1: ")

    def test_gender_entry_with_no_tests_is_refused_before_any_edit(self, workdir, capsys):
        base = init_archive(workdir)
        nurse = json.dumps({"profession": "nurse", "validation": "a nurse", "tests": [],
                            "female_ref": "female nurse", "male_ref": "male nurse"})
        ds = workdir / "gender.jsonl"
        ds.write_text(GENDER_LINE + nurse + "\n")
        capsys.readouterr()
        assert run("gender", "--weights", base, "--dataset", ds,
                   "--out", workdir / "genderout") == 2
        out, err = capsys.readouterr()
        assert err == f"data error: {ds}: line 2: gender entry 'nurse' has no test prompts\n"
        assert "teacher" not in out
        assert not (workdir / "genderout").exists()

    @pytest.mark.parametrize("field", [
        {"profession": "nurse", "tests": ["a nurse"]}, {"validation": "a nurse teacher"},
        {"tests": ["a teacher", "nurse teacher"]}, {"female_ref": "female nurse"},
        {"male_ref": "male nurse"},
    ], ids=["profession", "validation", "tests", "female_ref", "male_ref"])
    def test_gender_word_outside_the_vocabulary_is_refused_before_any_edit(self, workdir,
                                                                          capsys, field):
        base = init_archive(workdir)
        later = {**json.loads(GENDER_LINE), **field}
        ds = workdir / "gender.jsonl"
        ds.write_text(GENDER_LINE + json.dumps(later) + "\n")
        capsys.readouterr()
        assert run("gender", "--weights", base, "--dataset", ds,
                   "--out", workdir / "genderout") == 2
        out, err = capsys.readouterr()
        assert err == (
            f"data error: {ds}: line 2: word 'nurse' is not in the vocabulary or split table\n")
        assert out == ""
        assert not (workdir / "genderout").exists()

    def test_auto_mode_refuses_a_split_gendered_word_before_any_forward(self, workdir, capsys,
                                                                        monkeypatch):
        # Every line is valid; the vocabulary is at fault, so the archive is named.
        import embedit.encoder as encoder

        write_split_female_vocab(workdir)
        base = init_archive(workdir)
        ds = workdir / "gender.jsonl"
        ds.write_text(GENDER_LINE)
        monkeypatch.setattr(encoder, "_forward", None)  # a forward would raise TypeError
        capsys.readouterr()
        assert run("gender", "--weights", base, "--dataset", ds, "--mode", "auto",
                   "--out", workdir / "genderout") == 2
        assert capsys.readouterr() == (
            "", f"data error: {base}: 'female' must map to a single token for averaging\n")
        assert not (workdir / "genderout").exists()

    def test_empty_gender_dataset_is_refused_before_the_archive_is_read(self, workdir,
                                                                         capsys):
        ds = workdir / "gender.jsonl"
        ds.write_text("")
        capsys.readouterr()
        assert run("gender", "--weights", workdir / "missing.embedit", "--dataset", ds,
                   "--out", workdir / "genderout") == 2
        assert "no gender entries" in capsys.readouterr().err
        assert not (workdir / "genderout").exists()

    @pytest.mark.parametrize("damage", [
        "string_label", "float_label", "bool_label", "label_two", "word_not_string",
        "item_not_object", "one_label_name", "label_name_not_string", "no_items",
        "items_not_list", "not_object", "item_extra_key", "extra_top_level_key",
    ])
    def test_probe_dataset_that_does_not_fit_is_data_error(self, workdir, capsys, damage):
        base = init_archive(workdir)
        probe = {
            "label_names": ["red", "yellow"],
            "items": [{"word": w, "label": i % 2} for i, w in enumerate(WORDS)],
        }
        item = probe["items"][3]
        if damage == "string_label":
            item["label"] = "1"
        elif damage == "float_label":
            item["label"] = 0.7
        elif damage == "bool_label":
            item["label"] = True
        elif damage == "label_two":
            item["label"] = 2
        elif damage == "word_not_string":
            item["word"] = 5
        elif damage == "item_not_object":
            probe["items"][3] = ["cat", 1]
        elif damage == "one_label_name":
            probe["label_names"] = ["red"]
        elif damage == "label_name_not_string":
            probe["label_names"] = ["red", 1]
        elif damage == "no_items":
            del probe["items"]
        elif damage == "items_not_list":
            probe["items"] = {"cat": 1}
        elif damage == "item_extra_key":
            item["lable"] = 1
        elif damage == "extra_top_level_key":
            probe["labels"] = ["red", "yellow"]
        else:
            probe = [probe]
        (workdir / "probe.json").write_text(json.dumps(probe))
        capsys.readouterr()
        assert run("probe", "--weights", base, "--dataset", workdir / "probe.json",
                   "--epochs", 10, "--out", workdir / "probeout") == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {workdir / 'probe.json'}: probe dataset")
        assert not (workdir / "probeout").exists()

    def test_probe_writes_report(self, workdir):
        base = init_archive(workdir)
        assert run("probe", "--weights", base, "--dataset", write_probe_dataset(workdir),
                   "--epochs", 200, "--out", workdir / "probeout") == 0
        report = json.loads((workdir / "probeout" / "probe_report.json").read_text())
        assert 0.0 <= report["mean_accuracy"] <= 100.0
        assert report["seeds"] == [0, 1, 2, 3, 4]


class TestExitCodes:
    def test_usage_error_is_one(self, workdir):
        assert run("edit", "--weights", "x") == 1

    @pytest.mark.parametrize("content", [b'{"tokens": [', "[\"caf\u00e9\"]".encode("latin-1")],
                             ids=["not_json", "not_utf8"])
    @pytest.mark.parametrize("kind", ["vocab", "probe", "exclude", "ledger"])
    def test_json_input_that_does_not_parse_is_data_error(self, workdir, capsys, kind, content):
        base = init_archive(workdir)
        bad = workdir / "bad.json"
        bad.write_bytes(content)
        ds = workdir / "edits.jsonl"
        ds.write_text(json.dumps({"source": "bear", "destination": "wolf",
                                  "target_word": "bear"}) + "\n")
        args = {
            "vocab": ("init", "--config", workdir / "config.json", "--vocab", bad),
            "probe": ("probe", "--weights", base, "--dataset", bad),
            "exclude": ("eval", "--weights", base, "--reference", base, "--dataset", ds,
                        "--sequential-filter", "--exclude", bad),
            "ledger": ("revert", "--weights", base, "--ledger", bad),
        }[kind]
        capsys.readouterr()
        assert run(*args, "--out", workdir / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: not UTF-8 JSON:")
        assert not (workdir / "out").exists()

    def test_unknown_command_is_one(self):
        assert run("frobnicate") == 1

    def test_unknown_word_is_two(self, workdir):
        base = init_archive(workdir)
        assert run("edit", "--weights", base, "--source", "quixotic",
                   "--dest", "wolf", "--target", "quixotic",
                   "--out", workdir / "x") == 2

    def test_corrupt_archive_is_two(self, workdir):
        bad = workdir / "bad.embedit"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        assert run("edit", "--weights", bad, "--source", "bear", "--dest", "wolf",
                   "--target", "bear", "--out", workdir / "x") == 2

    def test_a_damaged_reference_archive_is_named(self, workdir, capsys):
        # eval loads two archives: the message says which one is damaged.
        base = init_archive(workdir)
        bad = workdir / "bad.embedit"
        bad.write_bytes(base.read_bytes()[:100])
        edits = workdir / "edits.jsonl"
        edits.write_text(json.dumps({"source": "bear", "destination": "wolf",
                                     "target_word": "bear"}) + "\n")
        capsys.readouterr()
        assert run("eval", "--weights", base, "--reference", bad, "--dataset", edits,
                   "--out", workdir / "x") == 2
        assert capsys.readouterr().err == (
            f"data error: {bad}: truncated inside header (byte offset 100)\n")
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("damage", [
        "tensors_not_list", "negative_offset", "missing_shape", "string_offset",
        "negative_dim", "header_extra_key", "nan_payload",
    ])
    def test_damaged_archive_is_data_error(self, workdir, capsys, damage):
        blob = init_archive(workdir).read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header, payload = json.loads(blob[16:16 + hlen]), bytearray(blob[16 + hlen:])
        first, second = header["tensors"][:2]
        if damage == "tensors_not_list":
            header["tensors"] = 5
        elif damage == "negative_offset":
            second["offset"] = -8
        elif damage == "missing_shape":
            del first["shape"]
        elif damage == "string_offset":
            second["offset"] = str(second["offset"])
        elif damage == "negative_dim":
            second["shape"] = [-s for s in second["shape"]]
        elif damage == "header_extra_key":
            header["version"] = 2
        else:
            payload[second["offset"]:second["offset"] + 8] = np.float64(np.nan).tobytes()
        raw = json.dumps(header, sort_keys=True).encode()
        bad = workdir / "bad.embedit"
        bad.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + payload)
        capsys.readouterr()
        assert run("edit", "--weights", bad, "--source", "bear", "--dest", "wolf",
                   "--target", "bear", "--out", workdir / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: ") and "byte offset" in err
        if damage == "nan_payload":
            at = 16 + len(raw) + second["offset"]  # the rewritten header is unpadded
            assert f"positional: payload is not finite (byte offset {at})" in err

    def test_missing_file_is_one(self, workdir):
        assert run("edit", "--weights", workdir / "nope.embedit", "--source", "bear",
                   "--dest", "wolf", "--target", "bear", "--out", workdir / "x") == 1

    @pytest.mark.parametrize("lr", ["1.5e308", "1e300"])
    def test_forward_overflow_is_three(self, workdir, capsys, lr):
        # The first step moves the rows to about lr: the next forward pass
        # overflows (1.5e308) or saturates the first layer norm (1e300).
        base = init_archive(workdir)
        capsys.readouterr()
        assert run("edit", "--weights", base, "--source", "bear", "--dest", "wolf",
                   "--target", "bear", "--lambda", 0.0, "--lr", lr,
                   "--out", workdir / "x") == 3
        assert capsys.readouterr().err.startswith("divergence:")
        assert not (workdir / "x" / "edited.embedit").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command,flag", [
        ("edit", "--lr"), ("gender", "--lr"), ("gender", "--alpha-min"),
        ("probe", "--lr"), ("probe", "--l2"),
    ])
    def test_non_finite_hyperparameter_is_usage_error(self, workdir, capsys, command, flag,
                                                      value):
        base = init_archive(workdir)
        if command == "edit":
            args = ("edit", "--weights", base, "--source", "bear", "--dest", "wolf",
                    "--target", "bear")
        elif command == "probe":
            args = ("probe", "--weights", base, "--dataset", write_probe_dataset(workdir))
        else:
            ds = workdir / "gender.jsonl"
            ds.write_text(json.dumps({
                "profession": "teacher", "validation": "a teacher", "tests": ["a teacher"],
                "female_ref": "female teacher", "male_ref": "male teacher",
            }) + "\n")
            args = ("gender", "--weights", base, "--dataset", ds, "--mode", "auto")
        capsys.readouterr()
        assert run(*args, flag, value, "--out", workdir / "x") == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("command", ["edit", "seq-edit"])
    def test_edit_hyperparameters_are_checked_before_any_file_is_read(self, workdir, capsys,
                                                                       command):
        # The archive is damaged too; the flags are read first, as gender reads
        # them, so the usage error wins over the data error.
        truncated = workdir / "truncated.embedit"
        truncated.write_bytes(init_archive(workdir).read_bytes()[:40])
        if command == "edit":
            args = ("--source", "bear", "--dest", "wolf", "--target", "bear")
        else:
            ds = workdir / "edits.jsonl"
            ds.write_text(json.dumps({"source": "bear", "destination": "wolf",
                                      "target_word": "bear"}) + "\n")
            args = ("--dataset", ds)
        capsys.readouterr()
        assert run(command, "--weights", truncated, *args, "--lr", "-1",
                   "--out", workdir / "x") == 1
        assert capsys.readouterr().err.startswith("error: learning_rate")
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--lr", "nan", "lr must"), ("--l2", "-1", "l2 must"), ("--epochs", "0", "epochs must"),
        ("--train-fraction", "1.5", "train_fraction must"), ("--seeds", "3", "need at least 2"),
        ("--seeds", "1,x", "--seeds must"),
    ])
    def test_probe_flags_are_checked_before_any_file_is_read(self, workdir, capsys, flag, value,
                                                             message):
        # A truncated archive and a dataset that does not exist: the usage
        # error still wins, as it does for edit, seq-edit and gender.
        truncated = workdir / "truncated.embedit"
        truncated.write_bytes(init_archive(workdir).read_bytes()[:40])
        capsys.readouterr()
        assert run("probe", "--weights", truncated, "--dataset", workdir / "missing.json",
                   flag, value, "--out", workdir / "x") == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (workdir / "x").exists()

    def test_negative_probe_seed_is_usage_error_before_any_file_is_read(self, workdir, capsys):
        # A good archive and a dataset that is not JSON: the seeds are checked
        # first, so the usage error wins over the data error.
        base = init_archive(workdir)
        dataset = workdir / "probe.json"
        dataset.write_text('{"items": ')
        capsys.readouterr()
        assert run("probe", "--weights", base, "--dataset", dataset, "--seeds=-1,2",
                   "--out", workdir / "x") == 1
        assert capsys.readouterr().err.startswith("error: need at least 2 integer seeds")
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("mode,stop_ratio,dataset", [
        ("manual", "2", "empty"), ("auto", "5", "one_entry"),
    ])
    def test_gender_lambda_outside_unit_interval_is_usage_error(self, workdir, capsys, mode,
                                                                stop_ratio, dataset):
        # Checked before anything is read, in either mode, so neither an empty
        # dataset nor auto mode (which does not use it) hides it.
        base = init_archive(workdir)
        ds = workdir / "gender.jsonl"
        ds.write_text("" if dataset == "empty" else GENDER_LINE)
        capsys.readouterr()
        assert run("gender", "--weights", base, "--dataset", ds, "--mode", mode,
                   "--lambda", stop_ratio, "--out", workdir / "x") == 1
        assert capsys.readouterr().err.startswith("error: stop_ratio must be in [0, 1]")
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("flag,value,code", [
        ("--lr", "-1", 1), ("--lr", "0", 1), ("--l2", "-1", 1), ("--epochs", "0", 1),
        ("--epochs", "-5", 1), ("--lr", "1e200", 2),
    ])
    def test_probe_hyperparameter_out_of_range(self, workdir, capsys, flag, value, code):
        # A finite lr too large for the data overflows in training: a data error.
        base = init_archive(workdir)
        dataset = write_probe_dataset(workdir)
        capsys.readouterr()
        assert run("probe", "--weights", base, "--dataset", dataset, flag, value,
                   "--out", workdir / "x") == code
        err = capsys.readouterr().err
        assert err.startswith(
            "error:" if code == 1 else f"data error: {dataset}: training diverged")
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("command", ["gender", "eval", "seq-edit"])
    def test_empty_dataset_is_data_error_and_writes_nothing(self, workdir, capsys, command):
        base = init_archive(workdir)
        ds = workdir / "empty.jsonl"
        ds.write_text("")
        args = ("--reference", base) if command == "eval" else ()
        capsys.readouterr()
        assert run(command, "--weights", base, *args, "--dataset", ds,
                   "--out", workdir / "x") == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("command,small,flags,message", [
        ("eval", "", ("--dataset", "SMALL"), "data error: SMALL: no edit entries"),
        ("eval", "{", ("--dataset", "SMALL"), "data error: SMALL: line 1: not UTF-8 JSON: "),
        ("eval", '"bear"', ("--dataset", "EDITS", "--sequential-filter", "--exclude", "SMALL"),
         "data error: SMALL: need a JSON list of target words"),
        ("eval", '["bear"]', ("--dataset", "EDITS", "--sequential-filter", "--exclude", "SMALL"),
         "data error: EDITS: no edit entries"),
        ("revert", "{", ("--ledger", "SMALL"), "data error: SMALL: not UTF-8 JSON"),
        ("revert", '{"entries": []}', ("--ledger", "SMALL", "--n", "1"),
         "error: cannot revert 1 of 0 ledger entries"),
        ("probe", "[]", ("--dataset", "SMALL"),
         "data error: SMALL: probe dataset: need a JSON object, got list"),
        ("seq-edit", "", ("--dataset", "SMALL"), "data error: SMALL: no edit entries"),
        ("gender", "", ("--dataset", "SMALL"), "data error: SMALL: no gender entries"),
    ], ids=["eval_empty_dataset", "eval_dataset_not_json", "eval_exclude_not_a_list",
            "eval_every_entry_excluded", "revert_ledger_not_json", "revert_deeper_than_ledger",
            "probe_dataset_not_an_object", "seq_edit_empty_dataset", "gender_empty_dataset"])
    def test_small_inputs_are_read_before_any_archive(self, workdir, capsys, monkeypatch,
                                                      command, small, flags, message):
        # A damaged dataset, ledger or --exclude file exits 2, and a revert
        # deeper than its ledger exits 1, without the archive loads they would
        # cost (two for eval, about 1 GB each at CLIP-L).
        base = init_archive(workdir)
        edits = workdir / "edits.jsonl"
        edits.write_text(json.dumps({"source": "bear", "destination": "wolf",
                                     "target_word": "bear"}) + "\n")
        bad = workdir / "small.json"
        bad.write_text(small)
        names = {"SMALL": bad, "EDITS": edits}
        loads = []
        real = cli.load_weights
        monkeypatch.setattr(cli, "load_weights", lambda path: loads.append(path) or real(path))
        reference = ("--reference", base) if command == "eval" else ()
        capsys.readouterr()
        assert run(command, "--weights", base, *reference, *(names.get(f, f) for f in flags),
                   "--out", workdir / "x") == (2 if message.startswith("data error:") else 1)
        for name, path in names.items():
            message = message.replace(name, str(path))
        assert capsys.readouterr().err.startswith(message)
        assert loads == []
        assert not (workdir / "x").exists()

    def test_encode_that_overflows_outside_the_edit_loop_is_three(self, workdir, capsys):
        # Layer 0's attention scores overflow in every encode: the destination
        # encode of edit, the reference encodes of eval and gender.
        base = init_archive(workdir)
        config, weights, vocab = load_weights(base)
        tensors = dict(weights.named_tensors())
        for name in ("layers.0.wq", "layers.0.wk"):
            tensors[name] = Tensor(tensors[name].array * 1e200)
        bad = workdir / "overflow.embedit"
        save_weights(bad, config, EncoderWeights.from_named(tensors, config), vocab)
        (workdir / "edits.jsonl").write_text(json.dumps(
            {"source": "bear", "destination": "wolf", "target_word": "bear"}) + "\n")
        (workdir / "gender.jsonl").write_text(GENDER_LINE)
        for args in [
            ("edit", "--source", "bear", "--dest", "wolf", "--target", "bear"),
            ("eval", "--reference", bad, "--dataset", workdir / "edits.jsonl"),
            ("gender", "--dataset", workdir / "gender.jsonl"),
        ]:
            capsys.readouterr()
            assert run(*args, "--weights", bad, "--out", workdir / "x") == 3
            assert capsys.readouterr().err.startswith(
                "divergence: attention: scores are not finite")
            assert not (workdir / "x").exists()

    @pytest.mark.parametrize("final_gamma,message", [
        (1e150, "gradient norm became non-finite"), (1e157, "loss became non-finite"),
    ], ids=["gradient", "loss"])
    def test_a_blow_up_in_the_edit_loop_prints_one_divergence_line(
            self, workdir, capsys, final_gamma, message):
        # The final layer norm's scale makes the loss, or only the gradient's
        # square, overflow. The CLI does not turn numpy's warnings into
        # errors, so none may be raised on the way to the one line.
        config, weights, vocab = load_weights(init_archive(workdir, seed=0))
        weights.final_gamma = Tensor(np.full(config.d_model, final_gamma))
        scaled = workdir / "scaled.embedit"
        save_weights(scaled, config, weights, vocab)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("edit", "--weights", scaled, "--source", "a bear",
                       "--dest", "a polar bear", "--target", "bear", "--lambda", 0.0,
                       "--max-iters", 5, "--out", workdir / "x") == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == f"divergence: {message} (iteration 1)\n"
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("final_gamma", [1e154, 1e160, 1e200])
    @pytest.mark.parametrize("command", ["eval", "gender"])
    def test_a_classification_that_overflows_is_three(self, workdir, capsys, command,
                                                      final_gamma):
        # The pooled states are finite, but their norms overflow: the
        # classification is a divergence, reached without a numpy warning.
        config, weights, vocab = load_weights(init_archive(workdir, seed=0))
        weights.final_gamma = Tensor(np.full(config.d_model, final_gamma))
        scaled = workdir / "scaled.embedit"
        save_weights(scaled, config, weights, vocab)
        (workdir / "edits.jsonl").write_text(json.dumps(
            {"source": "bear", "destination": "wolf", "target_word": "bear"}) + "\n")
        (workdir / "gender.jsonl").write_text(GENDER_LINE)
        args = {"eval": ("eval", "--reference", scaled, "--dataset", workdir / "edits.jsonl"),
                "gender": ("gender", "--dataset", workdir / "gender.jsonl")}[command]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*args, "--weights", scaled, "--out", workdir / "x") == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "divergence: classify: a norm or dot product of pooled states is not finite\n")

    @pytest.mark.parametrize("final_gamma", [1e-170, 1e-200])
    def test_eval_classifies_states_whose_squares_underflow(self, workdir, capsys,
                                                            final_gamma):
        # The pooled states are the scale-1 archive's times final_gamma, so
        # eval reports as it does at scale 1, with no numpy warning.
        base = init_archive(workdir, seed=0)
        config, weights, vocab = load_weights(base)
        weights.final_gamma = Tensor(np.full(config.d_model, final_gamma))
        scaled = workdir / "scaled.embedit"
        save_weights(scaled, config, weights, vocab)
        (workdir / "edits.jsonl").write_text(json.dumps(
            {"source": "bear", "destination": "wolf", "target_word": "bear",
             "positives": [["a bear", "a wolf"]], "negatives": [["a cat", "a dog"]]}) + "\n")
        reports = {}
        for archive in (base, scaled):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run("eval", "--weights", archive, "--reference", archive,
                           "--dataset", workdir / "edits.jsonl",
                           "--out", workdir / archive.stem) == 0
            assert [str(w.message) for w in caught] == []
            reports[archive] = (workdir / archive.stem / "report.json").read_text()
        assert reports[scaled] == reports[base]

    @pytest.mark.parametrize("error", [DimensionError, TapeUsageError])
    def test_any_other_package_error_is_one(self, workdir, capsys, monkeypatch, error):
        def fail(args):
            raise error("operands do not fit")

        monkeypatch.setattr(cli, "cmd_report", fail)
        capsys.readouterr()
        assert run("report", "--ledger", workdir / "ledger.json",
                   "--weights", workdir / "base.embedit") == 1
        assert capsys.readouterr().err == "error: operands do not fit\n"

    def test_divergence_is_three(self, workdir, monkeypatch):
        import embedit.optim as optim

        base = init_archive(workdir)
        monkeypatch.setattr(optim.Adam, "step",
                            lambda self, p, g: np.full_like(p, np.inf))
        assert run("edit", "--weights", base, "--source", "bear", "--dest", "wolf",
                   "--target", "bear", "--lambda", 0.0, "--max-iters", 3,
                   "--out", workdir / "x") == 3


def test_readme_names_every_flag_and_only_real_flags():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = {o for p in commands.values() for a in p._actions
             if not isinstance(a, argparse._HelpAction) for o in a.option_strings}
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
    assert sorted(flags - named) == []
    assert sorted(named - flags) == []


def _gender_at_clip_l_widths(workdir) -> dict:
    """`gender --mode manual --lambda 1` on one profession at CLIP-L widths
    (2 layers): the report's rows, and for each read after an edit the test
    prompts whose pooled row is not bitwise the reference read's."""
    workdir = Path(workdir)
    vocab = make_vocab("a teacher female male with dog little nurse tree on the red blue "
                       "cat panda and".split())
    bundle = make_bundle(seed=3, vocab=vocab, d_model=768, n_layers=2, n_heads=12,
                         d_ff=3072, context_length=77)
    save_weights(workdir / "base.embedit", bundle.config, bundle.weights, vocab)
    tests = ["a teacher", "teacher with a dog", "little teacher on the tree with a red cat"]
    (workdir / "gender.jsonl").write_text(json.dumps({
        "profession": "teacher", "validation": "a teacher with the blue cat", "tests": tests,
        "female_ref": "a female teacher with a dog", "male_ref": "a male teacher",
    }) + "\n")
    reads, real = [], cli.encode_pooled

    def spy(b, prompts):
        reads.append(real(b, prompts))
        return reads[-1]

    cli.encode_pooled = spy
    try:
        assert run("gender", "--weights", workdir / "base.embedit", "--dataset",
                   workdir / "gender.jsonl", "--mode", "manual", "--lambda", 1,
                   "--out", workdir / "out") == 0
    finally:
        cli.encode_pooled = real
    rows = json.loads((workdir / "out" / "gender_report.json").read_text())["per_profession"]
    references, after = reads[:len(rows)], reads[len(rows):]
    return {"rows": rows,
            "changed_test_rows": [
                [p for p in tests if a[p].array.tobytes() != r[p].array.tobytes()]
                for r, a in zip(references, after)]}
