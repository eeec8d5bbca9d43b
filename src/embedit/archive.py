"""Single-file weight archive and standalone vocabulary JSON.

Archive layout:

    bytes 0..8    magic b"EMBEDIT1"
    bytes 8..16   header length, unsigned 64-bit little-endian
    header        UTF-8 JSON: {"config": {...}, "vocab": {...},
                  "tensors": [{"name", "shape", "dtype": "f64",
                               "offset", "nbytes"}, ...]}
    payload       raw little-endian float64 tensor data; each tensor's
                  "offset" is relative to the start of the payload section
                  (= 16 + header length)

Save followed by load is bitwise lossless. The loader accepts exactly the
tensors the config calls for, each once, with payloads laid out back to back
from offset 0 to the end of the file. Every file the package writes (archive,
vocab, ledger and the CLI's JSON and text reports) goes through one atomic
write, write_atomically.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import struct
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .autodiff import Tensor
from .encoder import EncoderConfig, EncoderWeights, Vocab, tensor_shapes
from .errors import ArchiveFormatError, json_object, read_json

MAGIC = b"EMBEDIT1"
_HEADER_LEN_END = len(MAGIC) + 8


def load_vocab(path: str | Path) -> Vocab:
    """Read a standalone vocabulary JSON file."""
    obj = read_json(path, ArchiveFormatError)
    try:
        return Vocab.from_json(obj)
    except ValueError as e:
        raise ArchiveFormatError(f"bad vocab: {e}") from e


def save_vocab(path: str | Path, vocab: Vocab) -> None:
    """Write the vocab's JSON atomically (write_atomically)."""
    text = json.dumps(vocab.to_json(), indent=2, sort_keys=True) + "\n"
    write_atomically(path, lambda f: f.write(text.encode("utf-8")))


def save_weights(
    path: str | Path,
    config: EncoderConfig,
    weights: EncoderWeights,
    vocab: Vocab,
) -> None:
    """Write config, vocab, and all tensors to one archive file, atomically
    (write_atomically). Each tensor is written from its own buffer, with no
    bytes copy.
    """
    arrays = [(name, np.ascontiguousarray(t.array, dtype="<f8"))
              for name, t in weights.named_tensors()]
    entries = []
    offset = 0
    for name, a in arrays:
        entries.append({
            "name": name,
            "shape": list(a.shape),
            "dtype": "f64",
            "offset": offset,
            "nbytes": a.nbytes,
        })
        offset += a.nbytes
    header = {
        "config": config.to_json(),
        "vocab": vocab.to_json(),
        "tensors": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    def write(f) -> None:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for _, a in arrays:
            f.write(memoryview(a).cast("B"))

    write_atomically(path, write)


def write_atomically(path: str | Path, write: Callable[[BinaryIO], None]) -> None:
    """Call write() on a new temporary file in the target's directory, then
    rename it over `path` in one step. If anything raises, the temporary
    file is removed and any earlier file at `path` is left as it was. A
    symlink at `path` keeps pointing at the replaced file.
    """
    path = Path(os.path.realpath(path))
    # Created with open(..., "xb") rather than mkstemp, which would narrow the
    # file's permissions to 0600.
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_weights(path: str | Path) -> tuple[EncoderConfig, EncoderWeights, Vocab]:
    """Read an archive; raises ArchiveFormatError (with a byte offset) on damage.

    The whole header is checked against the file's size before any payload
    is read. Each payload is then read straight into its tensor's array, so
    the weights are held once.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_HEADER_LEN_END)
        if head[: len(MAGIC)] != MAGIC:
            raise ArchiveFormatError(f"bad magic, expected {MAGIC!r}", offset=0)
        if len(head) < _HEADER_LEN_END:
            raise ArchiveFormatError("truncated before header length", offset=len(head))
        (header_len,) = struct.unpack("<Q", head[len(MAGIC):])
        if header_len > size - _HEADER_LEN_END:
            raise ArchiveFormatError("truncated inside header", offset=size)
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
            raise ArchiveFormatError(
                f"header is not valid JSON: {e}", offset=_HEADER_LEN_END
            ) from e
        start = _HEADER_LEN_END + header_len
        config, vocab, index = _check_header(header, start, size)

        tensors: dict[str, Tensor] = {}
        for name, shape in index:
            a = np.empty(shape, dtype="<f8")
            _read_exactly(f, a)
            if not np.isfinite(a).all():
                raise ArchiveFormatError(f"tensor {name}: payload is not finite", offset=start)
            # Native byte order: no copy on a little-endian host.
            tensors[name] = Tensor._wrap(a.astype(np.float64, copy=False))
            start += a.nbytes
    return config, EncoderWeights.from_named(tensors, config), vocab


def _read_exactly(f, a: np.ndarray) -> None:
    view = memoryview(a).cast("B")
    while view:
        n = f.readinto(view)
        if not n:
            raise ArchiveFormatError("payload truncated", offset=f.tell())
        view = view[n:]


def _check_header(header, payload_base: int, size: int):
    """Check the whole header against the file's size; return the config,
    the vocab, and (name, shape) pairs in payload order.

    The tensor index must name exactly the tensors the config calls for,
    once each and with their shapes, and lay their payloads out in order,
    back to back from offset 0 to the end of the file.
    """
    def bad(message: str, offset: int = _HEADER_LEN_END) -> ArchiveFormatError:
        return ArchiveFormatError(message, offset=offset)

    json_object(header, {"config": (dict,), "vocab": (dict,), "tensors": (list,)}, bad, "header")
    try:
        config = EncoderConfig.from_json(header["config"])
    except ValueError as e:
        raise bad(f"bad config in header: {e}") from e
    try:
        vocab = Vocab.from_json(header["vocab"])
    except ValueError as e:
        raise bad(f"bad vocab: {e}") from e
    if vocab.vocab_size != config.vocab_size:
        raise bad(f"vocab has {vocab.vocab_size} ids, config says {config.vocab_size}")

    entries = header["tensors"]
    if config.n_layers > len(entries):  # also bounds the work of tensor_shapes
        raise bad(f"config calls for {config.n_layers} layers, "
                  f"header lists {len(entries)} tensors")
    expected = tensor_shapes(config)
    index: dict[str, tuple[int, ...]] = {}
    end = 0
    for k, entry in enumerate(entries):
        json_object(entry, {"name": (str,), "shape": (list,), "dtype": (str,),
                            "offset": (int,), "nbytes": (int,)}, bad, f"tensor entry {k}")
        name, shape = entry["name"], entry["shape"]
        if name not in expected:
            raise bad(f"tensor entry {k}: unknown tensor name {name!r}")
        if name in index:
            raise bad(f"tensor {name}: listed twice")
        # 8.0 == 8 and True == 1: the type check keeps those out.
        if not (all(type(s) is int for s in shape) and tuple(shape) == expected[name]):
            raise bad(f"tensor {name}: shape {shape!r}, config calls for {list(expected[name])}")
        if entry["dtype"] != "f64":
            raise bad(f"tensor {name}: unsupported dtype {entry['dtype']!r}")
        offset, nbytes = entry["offset"], entry["nbytes"]
        if offset != end:
            raise bad(f"tensor {name}: payload offset {offset}, expected {end} "
                      "(payloads must be in order, back to back, without overlap)",
                      offset=payload_base + end)
        want = math.prod(shape) * 8
        if nbytes != want:
            raise bad(f"tensor {name}: shape {shape} needs {want} bytes, "
                      f"header says {nbytes}", offset=payload_base + offset)
        index[name] = expected[name]
        end += nbytes
    missing = [name for name in expected if name not in index]
    if missing:
        raise bad(f"archive is missing tensor {missing[0]!r}")
    if payload_base + end > size:
        raise bad("payload truncated", offset=size)
    if payload_base + end < size:
        raise bad("trailing bytes after the last payload", offset=payload_base + end)
    return config, vocab, list(index.items())
