import dataclasses
import errno
import gc
import json
import mmap
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedit import (
    EditHyperparams,
    EditLedger,
    EditRequest,
    EncoderBundle,
    Tensor,
    WteTable,
    archive,
    edit_single,
    init_random_weights,
    load_config,
    load_vocab,
    load_weights,
    revert,
    save_vocab,
    save_weights,
)
from embedit.archive import MAGIC, PAYLOAD_ALIGN
from embedit.cli import main
from embedit.errors import ArchiveFormatError

from conftest import FailingFile, make_config, make_vocab, map_owner


@pytest.fixture
def saved(tmp_path, vocab):
    config = make_config(vocab)
    weights = init_random_weights(config, 42)
    path = tmp_path / "enc.embedit"
    save_weights(path, config, weights, vocab)
    return path, config, weights, vocab


def test_round_trip_is_bitwise(saved):
    path, config, weights, vocab = saved
    config2, weights2, vocab2 = load_weights(path)
    assert config2 == config
    assert vocab2 == vocab
    for (n1, t1), (n2, t2) in zip(weights.named_tensors(), weights2.named_tensors()):
        assert n1 == n2
        assert t1.array.tobytes() == t2.array.tobytes()


def test_same_weights_produce_identical_files(tmp_path, vocab):
    config = make_config(vocab)
    w = init_random_weights(config, 42)
    p1, p2 = tmp_path / "a.embedit", tmp_path / "b.embedit"
    save_weights(p1, config, w, vocab)
    save_weights(p2, config, init_random_weights(config, 42), vocab)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(saved, tmp_path):
    path = saved[0]
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTMAGIC"
    bad = tmp_path / "bad.embedit"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ArchiveFormatError, match="offset 0"):
        load_weights(bad)


def test_header_shape_payload_mismatch(saved, tmp_path):
    path = saved[0]
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    header["tensors"][0]["nbytes"] -= 8
    new_header = json.dumps(header, sort_keys=True).encode()
    bad = tmp_path / "bad.embedit"
    bad.write_bytes(MAGIC + struct.pack("<Q", len(new_header)) + new_header + blob[16 + hlen:])
    with pytest.raises(ArchiveFormatError, match="byte offset"):
        load_weights(bad)


def test_truncated_payload(saved, tmp_path):
    path = saved[0]
    blob = path.read_bytes()
    bad = tmp_path / "bad.embedit"
    bad.write_bytes(blob[:-100])
    with pytest.raises(ArchiveFormatError, match="truncated"):
        load_weights(bad)


def test_a_file_cut_after_its_header_check_is_a_truncated_payload(saved, monkeypatch):
    # The header check sees the whole file; the cut, of the last scalar,
    # comes before the finiteness read, which finds the file ending there.
    path = saved[0]
    end = path.stat().st_size - 8
    check, maps = archive._check_header, []

    def check_then_cut(header, payload_base, size):
        checked = check(header, payload_base, size)
        os.truncate(path, end)
        return checked

    monkeypatch.setattr(archive, "_check_header", check_then_cut)
    monkeypatch.setattr(archive, "_FileMap", lambda *args, **kwargs: maps.append(args))
    with pytest.raises(ArchiveFormatError) as e:
        load_weights(path)
    assert str(e.value) == f"{path}: payload truncated (byte offset {end})"
    assert e.value.offset == end and maps == []


def test_truncated_before_header_length(tmp_path):
    bad = tmp_path / "bad.embedit"
    bad.write_bytes(MAGIC + b"\x00" * 7)
    with pytest.raises(ArchiveFormatError, match=r"truncated before header length "
                                                 r"\(byte offset 15\)"):
        load_weights(bad)


def test_corrupt_header_json(saved, tmp_path):
    path = saved[0]
    blob = bytearray(path.read_bytes())
    blob[20] = 0xFF
    bad = tmp_path / "bad.embedit"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ArchiveFormatError, match="header is not UTF-8 JSON: ") as e:
        load_weights(bad)
    assert str(e.value).startswith(f"{bad}: header is not UTF-8 JSON: ")
    assert e.value.offset == 16


def test_wide_archive_reports_768_params_per_row(tmp_path, vocab):
    config = make_config(vocab, d_model=768, n_layers=1, n_heads=8, d_ff=32)
    weights = init_random_weights(config, 0)
    path = tmp_path / "wide.embedit"
    save_weights(path, config, weights, vocab)
    config2, weights2, _ = load_weights(path)
    assert config2.d_model == 768
    assert weights2.wte.shape[1] == 768


def test_vocab_json_round_trip(tmp_path, vocab):
    path = tmp_path / "vocab.json"
    save_vocab(path, vocab)
    assert load_vocab(path) == vocab


def split_archive(blob: bytes) -> tuple[dict, bytes]:
    (hlen,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16:16 + hlen]), blob[16 + hlen:]


def join_archive(header, payload: bytes) -> bytes:
    raw = json.dumps(header, sort_keys=True).encode()
    return MAGIC + struct.pack("<Q", len(raw)) + raw + payload


def test_archive_bytes_are_magic_header_and_raw_payloads(saved):
    # The header JSON is padded with trailing spaces so that the payload
    # starts on a 64-byte boundary; json.loads reads it with or without them.
    path, config, weights, vocab = saved
    entries, payloads, offset = [], [], 0
    for name, t in weights.named_tensors():
        raw = np.ascontiguousarray(t.array, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(t.shape), "dtype": "f64",
                        "offset": offset, "nbytes": len(raw)})
        payloads.append(raw)
        offset += len(raw)
    header = {"config": config.to_json(), "vocab": vocab.to_json(), "tensors": entries}
    raw = json.dumps(header, sort_keys=True).encode()
    pad = 64 - (16 + len(raw)) % 64
    assert PAYLOAD_ALIGN == 64 and 0 < pad < 64  # the desk header needs padding
    assert path.read_bytes() == (MAGIC + struct.pack("<Q", len(raw) + pad) + raw + b" " * pad
                                 + b"".join(payloads))


def _arrays(weights):
    return [(name, t.base.array if isinstance(t, WteTable) else t.array)
            for name, t in weights.named_tensors()]


def test_a_load_views_one_read_only_map_of_a_padded_payload(saved):
    path, _, weights, _ = saved
    loaded = load_weights(path)[1]
    maps = {id(map_owner(a)) for _, a in _arrays(loaded)}
    assert len(maps) == 1 and isinstance(map_owner(loaded.wte.base.array), mmap.mmap)
    for (name, a), (_, want) in zip(_arrays(loaded), _arrays(weights)):
        assert not a.flags.writeable and a.flags.aligned and a.flags.c_contiguous, name
        assert a.tobytes() == want.tobytes(), name
    # The WTE is the first payload, so its address is the payload's start.
    assert loaded.wte.base.array.ctypes.data % PAYLOAD_ALIGN == 0


def _read_then_edit(bundle) -> tuple[bytes, str]:
    """The bytes of a CLIP-L-width bundle's hidden states for one prompt,
    and the JSON of the ledger of one two-step edit made after that read."""
    states = bundle.encode_prompt("a little polar bear").sequence.array.tobytes()
    ledger = EditLedger()
    edit_single(bundle, EditRequest("a bear", "a polar bear", "bear"),
                EditHyperparams(stop_ratio=0.0, max_iters=2, learning_rate=1e-2), ledger)
    return states, json.dumps(ledger.to_json())


def test_an_unpadded_archive_computes_edits_and_saves_like_its_padded_twin(tmp_path, copies):
    # join_archive writes the header unpadded, as saves did before padding.
    # CLIP-L widths, so that the forwards and the edit run through BLAS on
    # the unaligned views.
    vocab = make_vocab()
    config = make_config(vocab, d_model=768, n_layers=1, n_heads=12, d_ff=3072)
    padded, old = tmp_path / "padded.embedit", tmp_path / "unpadded.embedit"
    save_weights(padded, config, init_random_weights(config, 3), vocab)
    header, payload = split_archive(padded.read_bytes())
    old.write_bytes(join_archive(header, payload))
    payload_start = old.stat().st_size - len(payload)
    assert payload_start % 8 != 0
    twin, loaded = load_weights(padded)[1], load_weights(old)[1]
    owner = map_owner(loaded.wte.base.array)
    assert isinstance(owner, mmap.mmap)
    for (name, a), (_, want) in zip(_arrays(loaded), _arrays(twin)):
        assert map_owner(a) is owner and not a.flags.aligned and not a.flags.writeable, name
        assert a.tobytes() == want.tobytes(), name
    # Saving it writes the padded layout, in one kernel copy of its payload.
    save_weights(tmp_path / "resaved.embedit", config, loaded, vocab)
    assert (tmp_path / "resaved.embedit").read_bytes() == padded.read_bytes()
    assert copies == [(len(payload), payload_start)]
    assert _read_then_edit(EncoderBundle(config, loaded, vocab)) == \
        _read_then_edit(EncoderBundle(config, twin, vocab))


@pytest.fixture
def copies(monkeypatch):
    """The (count, source offset) of each os.copy_file_range call, which
    still copies."""
    calls, real = [], os.copy_file_range

    def spy(src, dst, count, offset_src=None, offset_dst=None):
        calls.append((count, offset_src))
        return real(src, dst, count, offset_src, offset_dst)

    monkeypatch.setattr(archive.os, "copy_file_range", spy)
    return calls


@pytest.fixture
def writes(monkeypatch):
    """The (file position, byte count) of each write that a save makes to
    its archive's file."""
    calls, real = [], archive.write_atomically

    class Recording:
        def __init__(self, f):
            self._f = f

        def __getattr__(self, name):
            return getattr(self._f, name)

        def write(self, data):
            calls.append((self._f.tell(), memoryview(data).nbytes))
            return self._f.write(data)

    monkeypatch.setattr(archive, "write_atomically",
                        lambda path, write: real(path, lambda f: write(Recording(f))))
    return calls


def _header_writes(path) -> list:
    """The writes of an archive's magic, header length and header."""
    payload_start = path.stat().st_size - len(split_archive(path.read_bytes())[1])
    return [(0, 8), (8, 8), (16, payload_start - 16)]


def test_save_over_the_archive_a_load_mapped_writes_its_bytes(saved, tmp_path, copies):
    # `revert --weights X --out X` loads X, then renames a new file over it;
    # the map keeps the old inode alive, so the mapped tensors read the same
    # bytes throughout, and the save copies its payload from that inode.
    path, _, weights, _ = saved
    before = path.read_bytes()
    config, loaded, vocab = load_weights(path)
    EditLedger().save(tmp_path / "ledger.json")
    assert main(["revert", "--weights", str(path), "--ledger", str(tmp_path / "ledger.json"),
                 "--out", str(path)]) == 0
    assert path.read_bytes() == before
    assert copies and sum(count for count, _ in copies) == len(split_archive(before)[1])
    for (name, a), (_, want) in zip(_arrays(loaded), _arrays(weights)):
        assert a.tobytes() == want.tobytes(), name


def test_a_loaded_archive_saves_its_payload_in_one_copy_per_unedited_range(saved, tmp_path,
                                                                             copies, writes):
    path, config, _, vocab = saved
    payload_start = path.stat().st_size - len(split_archive(path.read_bytes())[1])
    weights = load_weights(path)[1]
    save_weights(tmp_path / "same.embedit", config, weights, vocab)
    assert copies == [(path.stat().st_size - payload_start, payload_start)]
    assert writes == _header_writes(path)
    # Rows 0, 1, 5, 6 and the last override the table: the payload is still
    # one copy, with the table's base, and then each overriding row is
    # written over its base row.
    copies.clear()
    writes.clear()
    ids = [0, 1, 5, 6, config.vocab_size - 1]
    weights.set_wte_rows(ids, weights.wte.rows(ids) * 2.0)
    save_weights(tmp_path / "edited.embedit", config, weights, vocab)
    row = config.d_model * 8
    assert copies == [(path.stat().st_size - payload_start, payload_start)]
    assert writes == _header_writes(path) + [(payload_start + i * row, row) for i in ids]


def _copy_that(kind, monkeypatch) -> list:
    """Stand in for os.copy_file_range: `missing` removes it, `exdev`
    refuses every call, `enosys` copies 100 bytes then refuses, `eio`
    copies 100 bytes then fails with an I/O error, `zero` copies 100 bytes
    then returns 0. Returns the count of each call."""
    real, calls = os.copy_file_range, []
    if kind == "missing":
        monkeypatch.delattr(archive.os, "copy_file_range")
        return calls

    def copy(src, dst, count, offset_src, offset_dst):
        calls.append(count)
        if kind == "exdev":
            raise OSError(errno.EXDEV, "cross-device link")
        if len(calls) == 1:
            return real(src, dst, min(count, 100), offset_src, offset_dst)
        if kind == "enosys":
            raise OSError(errno.ENOSYS, "function not implemented")
        if kind == "eio":
            raise OSError(errno.EIO, "input/output error")
        return 0

    monkeypatch.setattr(archive.os, "copy_file_range", copy)
    return calls


@pytest.mark.parametrize("edited", [False, True], ids=["unedited", "edited"])
@pytest.mark.parametrize("kind", ["missing", "exdev", "enosys"])
def test_a_save_that_cannot_copy_writes_the_rest_from_the_map(saved, tmp_path, monkeypatch,
                                                               writes, kind, edited):
    path, config, weights, vocab = saved
    header = _header_writes(path)
    payload_start, size = header[-1][0] + header[-1][1], path.stat().st_size
    loaded = load_weights(path)[1]
    ids = [0, 5, config.vocab_size - 1] if edited else []
    if edited:
        for w in (weights, loaded):
            w.set_wte_rows(ids, w.wte.rows(ids) + 1.0)
    save_weights(tmp_path / "streamed.embedit", config, weights, vocab)
    calls = _copy_that(kind, monkeypatch)
    writes.clear()
    save_weights(path, config, loaded, vocab)
    assert path.read_bytes() == (tmp_path / "streamed.embedit").read_bytes()
    # The payload is one range, edited or not; enosys refuses the call after
    # its partial copy. The rest of the range is written from the map, then
    # each overriding row over its base row.
    assert len(calls) == {"missing": 0, "exdev": 1, "enosys": 2}[kind]
    copied = 100 if kind == "enosys" else 0
    row = config.d_model * 8
    assert writes == header + [(payload_start + copied, size - payload_start - copied)] + [
        (payload_start + i * row, row) for i in ids]


def test_a_copy_that_ends_early_raises_and_leaves_the_old_archive(saved, monkeypatch):
    path, config, _, vocab = saved
    before = path.read_bytes()
    loaded = load_weights(path)[1]
    calls = _copy_that("zero", monkeypatch)
    with pytest.raises(ArchiveFormatError, match="ends early"):
        save_weights(path, config, loaded, vocab)
    assert calls[0] == len(split_archive(before)[1]) and len(calls) == 2
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_a_copy_error_outside_the_refusals_raises_and_leaves_the_old_archive(saved,
                                                                            monkeypatch):
    # Only a refusal of the pair of files falls back to the map; any other
    # error is the save's.
    path, config, _, vocab = saved
    before = path.read_bytes()
    loaded = load_weights(path)[1]
    calls = _copy_that("eio", monkeypatch)
    with pytest.raises(OSError) as exc:
        save_weights(path, config, loaded, vocab)
    assert exc.value.errno == errno.EIO
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_a_dropped_load_closes_its_file(saved):
    # An earlier test's garbage cycle (a caught exception's traceback holds
    # its frame) may still hold a map; collect it before counting, and keep
    # the collector off so that the drop alone must close each file.
    gc.collect()
    fds = len(os.listdir("/proc/self/fd"))
    gc.disable()
    try:
        for _ in range(50):
            weights = load_weights(saved[0])[1]
            assert len(os.listdir("/proc/self/fd")) > fds
            del weights
        assert len(os.listdir("/proc/self/fd")) == fds
    finally:
        gc.enable()


def _tensor(header, name):
    return next(e for e in header["tensors"] if e["name"] == name)


def _swap_first_two(h):
    h["tensors"][0], h["tensors"][1] = h["tensors"][1], h["tensors"][0]


def _drop(container, key):
    del container[key]


HEADER_DAMAGE = {
    "header_not_object": lambda h: [h],
    "extra_top_level_key": lambda h: h.update(extra=1),
    "config_not_object": lambda h: h.update(config=[8]),
    "config_string_size": lambda h: h["config"].update(d_model="8"),
    "config_nan_eps": lambda h: h["config"].update(eps=float("nan")),
    "config_huge_layer_count": lambda h: h["config"].update(n_layers=10**12),
    "vocab_splits_not_object": lambda h: h["vocab"].update(splits=[]),
    "vocab_float_id": lambda h: h["vocab"]["tokens"].update(bear=4.0),
    "vocab_size_mismatch": lambda h: h["config"].update(vocab_size=h["config"]["vocab_size"] + 1),
    "tensors_not_list": lambda h: h.update(tensors=5),
    "entry_not_object": lambda h: h["tensors"].__setitem__(0, 5),
    "entry_extra_key": lambda h: h["tensors"][0].update(extra=1),
    "missing_shape": lambda h: _drop(h["tensors"][0], "shape"),
    "missing_nbytes": lambda h: _drop(h["tensors"][3], "nbytes"),
    "missing_name": lambda h: _drop(h["tensors"][3], "name"),
    "string_offset": lambda h: h["tensors"][0].update(offset="0"),
    "bool_offset": lambda h: h["tensors"][0].update(offset=False),
    "negative_offset": lambda h: h["tensors"][1].update(offset=-8),
    "overlapping": lambda h: h["tensors"][2].update(offset=h["tensors"][2]["offset"] - 8),
    "gap": lambda h: h["tensors"][2].update(offset=h["tensors"][2]["offset"] + 8),
    "out_of_order": _swap_first_two,
    "negative_dim": lambda h: _tensor(h, "positional").update(shape=[-8, -8]),
    "float_dim": lambda h: _tensor(h, "positional").update(shape=[8.0, 8]),
    "transposed_shape": lambda h: _tensor(h, "wte").update(shape=_tensor(h, "wte")["shape"][::-1]),
    "bad_dtype": lambda h: h["tensors"][0].update(dtype="f32"),
    "unknown_name": lambda h: h["tensors"][0].update(name="wte2"),
    "duplicate_name": lambda h: _tensor(h, "layers.0.bk").update(name="layers.0.bq"),
    "missing_tensor": lambda h: _drop(h["tensors"], -1),
}


@pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
def test_damaged_header_is_rejected_before_any_payload_is_read(saved, tmp_path, monkeypatch,
                                                                damage):
    header, payload = split_archive(saved[0].read_bytes())
    header = HEADER_DAMAGE[damage](header) or header  # only header_not_object returns one
    bad = tmp_path / "bad.embedit"
    bad.write_bytes(join_archive(header, payload))
    reads, maps = [], []
    monkeypatch.setattr(archive, "_read_exactly", lambda f, a: reads.append(a.shape))
    monkeypatch.setattr(archive, "_FileMap", lambda *a, **k: maps.append(a))
    with pytest.raises(ArchiveFormatError, match=r"byte offset \d+"):
        load_weights(bad)
    assert reads == [] and maps == []


@pytest.mark.parametrize("extra", [b"\x00" * 8, b"\x00"])
def test_trailing_bytes_after_the_payload_are_rejected(saved, tmp_path, extra):
    blob = saved[0].read_bytes()
    bad = tmp_path / "bad.embedit"
    bad.write_bytes(blob + extra)
    with pytest.raises(ArchiveFormatError, match=f"trailing.*byte offset {len(blob)}"):
        load_weights(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_names_tensor_and_offset(saved, tmp_path, value):
    blob = saved[0].read_bytes()
    header, payload = split_archive(blob)
    at = len(blob) - len(payload) + _tensor(header, "layers.1.wv")["offset"] + 24
    damaged = bytearray(blob)
    damaged[at:at + 8] = np.float64(value).tobytes()
    bad = tmp_path / "bad.embedit"
    bad.write_bytes(bytes(damaged))
    with pytest.raises(ArchiveFormatError,
                       match=rf"layers\.1\.wv: payload is not finite \(byte offset {at - 24}\)"):
        load_weights(bad)


@pytest.mark.parametrize("load", [load_weights, load_config])
def test_a_load_error_starts_with_the_archive_path_and_keeps_its_offset(saved, tmp_path,
                                                                        load):
    bad = tmp_path / "bad.embedit"
    bad.write_bytes(saved[0].read_bytes()[:100])
    with pytest.raises(ArchiveFormatError) as e:
        load(bad)
    assert str(e.value) == f"{bad}: truncated inside header (byte offset 100)"
    assert e.value.offset == 100


# A 40-byte buffer reads each tensor in several pieces, the last one short.
@pytest.mark.parametrize("buffer_bytes", [40, archive.CHECK_BUFFER_BYTES])
@pytest.mark.parametrize("name,scalar", [("wte", 101), ("final_beta", -1)])
def test_nan_in_the_first_or_last_payload_names_tensor_and_offset(saved, tmp_path, monkeypatch,
                                                                    buffer_bytes, name, scalar):
    blob = saved[0].read_bytes()
    header, payload = split_archive(blob)
    entry = _tensor(header, name)
    start = len(blob) - len(payload) + entry["offset"]
    at = start + scalar % (entry["nbytes"] // 8) * 8
    damaged = bytearray(blob)
    damaged[at:at + 8] = np.float64(np.nan).tobytes()
    bad = tmp_path / "bad.embedit"
    bad.write_bytes(bytes(damaged))
    monkeypatch.setattr(archive, "CHECK_BUFFER_BYTES", buffer_bytes)
    with pytest.raises(ArchiveFormatError,
                       match=rf"tensor {name}: payload is not finite \(byte offset {start}\)"):
        load_weights(bad)
    # The same buffer passes the undamaged archive.
    assert load_weights(saved[0])[1].wte.array.tobytes() == saved[2].wte.array.tobytes()


@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()])
def test_save_that_raises_leaves_old_archive_and_no_temporary_file(saved, monkeypatch, error):
    path, config, _, vocab = saved
    before = path.read_bytes()
    monkeypatch.setattr(archive, "open",
                        lambda *a, **k: FailingFile(open(*a, **k), 6, error), raising=False)
    with pytest.raises(type(error)):
        save_weights(path, config, init_random_weights(config, 7), vocab)
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_save_that_raises_creates_no_file(tmp_path, vocab, monkeypatch):
    config = make_config(vocab)
    monkeypatch.setattr(archive, "open",
                        lambda *a, **k: FailingFile(open(*a, **k), 4, OSError("disk full")),
                        raising=False)
    with pytest.raises(OSError):
        save_weights(tmp_path / "new.embedit", config, init_random_weights(config, 0), vocab)
    assert list(tmp_path.iterdir()) == []


def test_every_writer_makes_its_directory(saved, tmp_path):
    path, config, weights, vocab = saved
    save_weights(tmp_path / "a" / "enc.embedit", config, weights, vocab)
    save_vocab(tmp_path / "b" / "c" / "vocab.json", vocab)
    EditLedger().save(tmp_path / "d" / "ledger.json")
    assert (tmp_path / "a" / "enc.embedit").read_bytes() == path.read_bytes()
    assert load_vocab(tmp_path / "b" / "c" / "vocab.json") == vocab
    assert len(EditLedger.load(tmp_path / "d" / "ledger.json")) == 0


def test_save_through_a_symlink_replaces_the_file_it_points_to(saved, tmp_path):
    path, config, _, vocab = saved
    link = tmp_path / "link.embedit"
    link.symlink_to(path.name)
    other = init_random_weights(config, 7)
    save_weights(link, config, other, vocab)
    assert link.is_symlink()
    _, loaded, _ = load_weights(path)
    assert loaded.wte.array.tobytes() == other.wte.array.tobytes()


def test_save_replaces_an_existing_archive(saved):
    path, config, _, vocab = saved
    other = init_random_weights(config, 7)
    save_weights(path, config, other, vocab)
    _, loaded, _ = load_weights(path)
    assert loaded.wte.array.tobytes() == other.wte.array.tobytes()
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_overrides_save_the_bytes_of_their_merged_table(tmp_path, vocab):
    config = make_config(vocab)
    weights = init_random_weights(config, 3)
    ids = [0, 1, 5, 6, config.vocab_size - 1]  # the first and last rows, and neighbours
    weights.set_wte_rows(ids, weights.wte.rows(ids) * 2.0)
    merged = dataclasses.replace(weights, wte=WteTable(Tensor(weights.wte.array)))
    assert weights.wte.override_ids == tuple(ids) and merged.wte.override_ids == ()
    save_weights(tmp_path / "overrides.embedit", config, weights, vocab)
    save_weights(tmp_path / "merged.embedit", config, merged, vocab)
    assert (tmp_path / "overrides.embedit").read_bytes() == \
        (tmp_path / "merged.embedit").read_bytes()


def test_an_edit_then_a_full_revert_saves_the_base_archive(saved, tmp_path):
    path, config, _, vocab = saved
    weights = load_weights(path)[1]
    bundle, ledger = EncoderBundle(config, weights, vocab), EditLedger()
    hyper = EditHyperparams(stop_ratio=0.0, max_iters=2, learning_rate=1e-2)
    edit_single(bundle, EditRequest("a bear", "a polar bear", "bear"), hyper, ledger)
    edit_single(bundle, EditRequest("a red tree", "a blue tree", "red tree"), hyper, ledger)
    assert len(weights.wte.override_ids) == 3
    revert(weights, ledger, len(ledger))
    assert weights.wte.override_ids == () and weights.wte.array is weights.wte.base.array
    save_weights(tmp_path / "restored.embedit", config, weights, vocab)
    assert (tmp_path / "restored.embedit").read_bytes() == path.read_bytes()


def test_save_of_a_tensor_the_config_does_not_call_for_makes_no_file(tmp_path, vocab):
    config = make_config(vocab)
    weights = init_random_weights(config, 0)
    weights.wte = WteTable(Tensor(weights.wte.array.T.copy()))
    with pytest.raises(ValueError, match=r"wte: shape \[8, 27\], config calls for \[27, 8\]"):
        save_weights(tmp_path / "new.embedit", config, weights, vocab)
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def desk_archive(tmp_path_factory):
    """A desk archive's bytes and a scratch path for damaged copies."""
    vocab = make_vocab(splits={"icecream": ["ice", "cream"]})
    config = make_config(vocab)
    d = tmp_path_factory.mktemp("fuzz")
    save_weights(d / "base.embedit", config, init_random_weights(config, 42), vocab)
    return (d / "base.embedit").read_bytes(), d / "damaged.embedit"


def load_or_format_error(path, blob: bytes) -> None:
    """Only ArchiveFormatError may escape load_weights for damaged bytes."""
    path.write_bytes(blob)
    try:
        load_weights(path)
    except ArchiveFormatError as e:
        assert e.offset is not None


def _position(data, blob: bytes) -> int:
    # Half the positions land in the magic, length and header, which make up
    # about a third of a desk archive.
    (hlen,) = struct.unpack("<Q", blob[8:16])
    end = 16 + hlen if data.draw(st.booleans()) else len(blob)
    return data.draw(st.integers(0, end - 1))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_byte_damage_raises_only_archive_format_error(desk_archive, data):
    blob, path = desk_archive
    damaged = bytearray(blob)
    kind = data.draw(st.sampled_from(["flip", "truncate", "insert"]))
    if kind == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            damaged[_position(data, blob)] ^= data.draw(st.integers(1, 255))
    elif kind == "truncate":
        del damaged[_position(data, blob):]
    else:
        at = _position(data, blob)
        damaged[at:at] = data.draw(st.binary(min_size=1, max_size=16))
    load_or_format_error(path, bytes(damaged))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def _slots(node):
    """Every (container, key) pair inside a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_header_damage_raises_only_archive_format_error(desk_archive, data):
    blob, path = desk_archive
    header, payload = split_archive(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_slots(header))
        node, key = data.draw(st.sampled_from(slots))
        kind = data.draw(st.sampled_from(["replace", "nudge", "delete", "duplicate"]))
        if kind == "replace":
            node[key] = data.draw(JSON_VALUES)
        elif kind == "nudge" and isinstance(node[key], int):
            node[key] += data.draw(st.integers(-16, 16))
        elif kind == "delete" and len(slots) > 1:
            del node[key]
        elif kind == "duplicate" and isinstance(node, list):
            node.insert(key, node[key])
    load_or_format_error(path, join_archive(header, payload))
