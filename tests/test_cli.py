import json

import numpy as np
import pytest

from embedit.cli import main

from conftest import WORDS, diverge_adam


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


def run(*args):
    return main([str(a) for a in args])


def init_archive(workdir, name="base.embedit", seed=42, config="config.json"):
    out = workdir / name
    assert run("init", "--config", workdir / config, "--vocab", workdir / "vocab.json",
               "--seed", seed, "--out", out) == 0
    return out


class TestInit:
    def test_same_seed_gives_byte_identical_archives(self, workdir):
        a = init_archive(workdir, "a.embedit")
        b = init_archive(workdir, "b.embedit")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_exits_one(self, workdir, capsys):
        (workdir / "bad.json").write_text(json.dumps({
            "d_model": 8, "n_layers": 1, "n_heads": 3, "d_ff": 16,
            "context_length": 8,
        }))
        code = run("init", "--config", workdir / "bad.json",
                   "--vocab", workdir / "vocab.json", "--out", workdir / "x.embedit")
        assert code == 1

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
        "no_ids",
    ])
    def test_revert_rejects_ledger_that_does_not_fit(self, workdir, capsys, damage):
        edited, ledger_path = self.edited_with_ledger(workdir)
        ledger = json.loads(ledger_path.read_text())
        entry = ledger["entries"][0]
        (bear,), (row,) = entry["edited_token_ids"], entry["original_rows"]
        vocab_size = len(json.loads((workdir / "vocab.json").read_text())["tokens"]) + 3
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
        else:
            entry["edited_token_ids"] = [bear, bear + 1]
        ledger_path.write_text(json.dumps(ledger))
        capsys.readouterr()
        assert run("revert", "--weights", edited, "--ledger", ledger_path,
                   "--out", workdir / "restored.embedit") == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not (workdir / "restored.embedit").exists()

    def test_revert_deeper_than_ledger_is_usage_error(self, workdir, capsys):
        edited, ledger_path = self.edited_with_ledger(workdir)
        capsys.readouterr()
        assert run("revert", "--weights", edited, "--ledger", ledger_path, "--n", 2,
                   "--out", workdir / "restored.embedit") == 1
        assert capsys.readouterr().err.startswith("error: cannot revert 2 of 1")


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

    def test_failed_sequential_run_keeps_ledger_on_disk(self, workdir):
        base = init_archive(workdir)
        lines = [
            json.dumps({"source": "bear", "destination": "wolf", "target_word": "bear"}),
            json.dumps({"source": "cat", "destination": "dog", "target_word": "bear"}),
        ]
        ds = workdir / "bad.jsonl"
        ds.write_text("\n".join(lines) + "\n")
        code = run("seq-edit", "--weights", base, "--dataset", ds, "--lambda", 0.3,
                   "--max-iters", 50, "--lr", 0.01, "--out", workdir / "seqout")
        assert code == 2
        ledger = json.loads((workdir / "seqout" / "ledger.json").read_text())
        assert len(ledger["entries"]) == 1


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
        assert run("edit", "--weights", base, "--weights2", base, "--source", "bear",
                   "--dest", "wolf", "--target", "bear", "--lambda", 1.0,
                   "--out", workdir / "dual") == 0
        out = capsys.readouterr().out
        assert "modified=16 flops=32" in out
        assert (workdir / "dual" / "edited2.embedit").exists()
        capsys.readouterr()
        assert run("report", "--ledger", workdir / "dual" / "ledger.json",
                   "--ledger2", workdir / "dual" / "ledger2.json",
                   "--d-model", 768, "--d-model2", 1280,
                   "--total-params", 10 ** 9) == 0
        out = capsys.readouterr().out
        assert "modified=2048 flops=4096" in out


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

    def test_probe_writes_report(self, workdir):
        base = init_archive(workdir)
        probe = {
            "label_names": ["red", "yellow"],
            "items": [{"word": w, "label": i % 2} for i, w in enumerate(WORDS)],
        }
        (workdir / "probe.json").write_text(json.dumps(probe))
        assert run("probe", "--weights", base, "--dataset", workdir / "probe.json",
                   "--epochs", 200, "--out", workdir / "probeout") == 0
        report = json.loads((workdir / "probeout" / "probe_report.json").read_text())
        assert 0.0 <= report["mean_accuracy"] <= 100.0
        assert report["seeds"] == [0, 1, 2, 3, 4]


class TestExitCodes:
    def test_usage_error_is_one(self, workdir):
        assert run("edit", "--weights", "x") == 1

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

    def test_missing_file_is_one(self, workdir):
        assert run("edit", "--weights", workdir / "nope.embedit", "--source", "bear",
                   "--dest", "wolf", "--target", "bear", "--out", workdir / "x") == 1

    def test_divergence_is_three(self, workdir, monkeypatch):
        import embedit.optim as optim

        base = init_archive(workdir)
        monkeypatch.setattr(optim.Adam, "step",
                            lambda self, p, g: np.full_like(p, np.inf))
        assert run("edit", "--weights", base, "--source", "bear", "--dest", "wolf",
                   "--target", "bear", "--lambda", 0.0, "--max-iters", 3,
                   "--out", workdir / "x") == 3
