"""Single-file weight archive and standalone vocabulary JSON.

Archive layout:

    bytes 0..8    magic b"EMBEDIT1"
    bytes 8..16   header length, unsigned 64-bit little-endian
    header        UTF-8 JSON: {"config": {...}, "vocab": {...},
                  "tensors": [{"name", "shape", "dtype": "f64",
                               "offset", "nbytes"}, ...]},
                  padded by save with trailing spaces so that the payload
                  starts at a multiple of PAYLOAD_ALIGN bytes
    payload       raw little-endian float64 tensor data; each tensor's
                  "offset" is relative to the start of the payload section
                  (= 16 + header length)

The tensor index is a function of the config (_tensor_index): save writes
it, and load accepts exactly it, with the payloads filling the file to its
end. Load views its tensors in one read-only map of the file, which holds a
descriptor of that file while it lives, so an archive must not be rewritten
in place while a process holds it loaded. An archive saved before the
padding loads the same way: its views are unaligned, and numpy computes on
them with the same bits; saving it copies its payload in the kernel like any
loaded archive's and pads it. Save writes each tensor whole (the WTE as its
base), copying each range that still views such a map from the mapped file
in the kernel, then each overriding WTE row over its base row.
Save followed by load is bitwise lossless.
Every file the package writes (archive, vocab, ledger and the CLI's JSON and
text reports) goes through one atomic write, write_atomically, which renames
a new file over the old one and so leaves a mapped file's contents as they
were.
"""

from __future__ import annotations

import errno
import json
import math
import os
import secrets
import struct
import weakref
from mmap import ACCESS_READ, mmap
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .autodiff import Tensor
from .encoder import EncoderConfig, EncoderWeights, Vocab, WteTable, tensor_shapes
from .errors import ArchiveFormatError, json_object, parse_json, read_json, reading

MAGIC = b"EMBEDIT1"
_HEADER_LEN_END = len(MAGIC) + 8
# Save pads the header so that the payload, and with it every tensor view of
# a page-aligned map, starts on a cache line.
PAYLOAD_ALIGN = 64
# Load's finiteness check reads the payload through one buffer of this size.
CHECK_BUFFER_BYTES = 1 << 20
# The errors with which copy_file_range refuses a pair of files, rather than
# failing to copy: save writes the rest of such a range from the map instead.
_NO_KERNEL_COPY = frozenset({errno.EXDEV, errno.ENOSYS, errno.EOPNOTSUPP, errno.EINVAL})


class _FileMap(mmap):
    """The read-only map load_weights makes of a whole archive: `fd` is a
    descriptor of its file, closed when the map is freed, and `address` the
    address of its first byte."""


def load_vocab(path: str | Path) -> Vocab:
    """A vocabulary JSON file's Vocab, read by read_json as ArchiveFormatError."""
    return read_json(path, ArchiveFormatError, Vocab.from_json)


def save_vocab(path: str | Path, vocab: Vocab) -> None:
    """Write the vocab's JSON with write_json."""
    write_json(path, vocab.to_json())


def save_weights(
    path: str | Path,
    config: EncoderConfig,
    weights: EncoderWeights,
    vocab: Vocab,
) -> None:
    """Write config, vocab, and all tensors to one archive file, atomically
    (write_atomically). The header JSON is padded with trailing spaces so
    that the payload starts at a multiple of PAYLOAD_ALIGN bytes. The WTE is
    written as its base, then each overriding row over its base row, so no
    merged table is built. Tensors that view a loaded archive's map are
    copied from that archive's file in the kernel, tensors adjacent there in
    one range (_payload_ranges), so their pages are never read into the
    process; every other tensor is written from its own buffer, with no
    bytes copy. A tensor whose shape is not the one the config calls for
    raises ValueError before any file is made.
    """
    index = _tensor_index(config)
    tensors = list(weights.named_tensors())
    for entry, (_, t) in zip(index, tensors, strict=True):
        if list(t.shape) != entry["shape"]:
            raise ValueError(f"tensor {entry['name']}: shape {list(t.shape)}, "
                             f"config calls for {entry['shape']}")
    blocks = [np.ascontiguousarray((t.base if isinstance(t, WteTable) else t).array, dtype="<f8")
              for _, t in tensors]
    header = {"config": config.to_json(), "vocab": vocab.to_json(), "tensors": index}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    header_bytes += b" " * (-(_HEADER_LEN_END + len(header_bytes)) % PAYLOAD_ALIGN)
    wte = weights.wte
    wte_at = _HEADER_LEN_END + len(header_bytes) + index[0]["offset"]

    def write(f) -> None:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for source, start, stop in _payload_ranges(blocks):
            if isinstance(source, _FileMap):
                _copy_range(f, source, start, stop)
            else:
                f.write(memoryview(source).cast("B"))
        for i, row in zip(wte.override_ids, wte.rows(wte.override_ids).astype("<f8")):
            f.seek(wte_at + i * row.nbytes)
            f.write(row.tobytes())

    write_atomically(path, write)


def _payload_ranges(blocks: list[np.ndarray]) -> list[tuple]:
    """The payload as (source, start, stop) in file order: bytes start..stop
    of a loaded archive's map, adjacent blocks of one map merged, or a block
    that views no such map, whole."""
    ranges: list[tuple] = []
    for a in blocks:
        owner = a
        while isinstance(owner, (np.ndarray, memoryview)):
            owner = owner.obj if isinstance(owner, memoryview) else owner.base
        if not isinstance(owner, _FileMap):
            ranges.append((a, 0, a.nbytes))
            continue
        start = a.ctypes.data - owner.address
        stop = start + a.nbytes
        if ranges and ranges[-1][0] is owner and ranges[-1][2] == start:
            start = ranges.pop()[1]
        ranges.append((owner, start, stop))
    return ranges


def _copy_range(f, mapped: _FileMap, start: int, stop: int) -> None:
    """Append bytes start..stop of the file that `mapped` maps to f, copied
    in the kernel (os.copy_file_range). Where that call is missing or
    refuses the pair of files, even after a partial copy, the rest is
    written from the map. A copy that ends before `stop` raises."""
    copy = getattr(os, "copy_file_range", None)
    f.flush()
    at, done = f.tell() - start, start  # byte k of the mapped file lands at at + k
    while copy is not None and done < stop:
        try:
            n = copy(mapped.fd, f.fileno(), stop - done, done, at + done)
        except OSError as e:
            if e.errno not in _NO_KERNEL_COPY:
                raise
            break
        if not n:
            raise ArchiveFormatError("the loaded archive's file ends early: it was "
                                     "truncated after the load", offset=done)
        done += n
    f.seek(at + done)
    if done < stop:
        with memoryview(mapped) as view:
            f.write(view[done:stop])


def write_atomically(path: str | Path, write: Callable[[BinaryIO], None]) -> None:
    """Call write() on a new temporary file in the target's directory, then
    rename it over `path` in one step. The directory is made first if it is
    missing. If anything raises, the temporary file is removed and any
    earlier file at `path` is left as it was. A symlink at `path` keeps
    pointing at the replaced file.
    """
    path = Path(os.path.realpath(path))
    path.parent.mkdir(parents=True, exist_ok=True)
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


def write_text(path: str | Path, text: str) -> None:
    """Write text as UTF-8 through write_atomically."""
    write_atomically(path, lambda f: f.write(text.encode("utf-8")))


def write_json(path: str | Path, obj) -> None:
    """write_text of obj's JSON, indented by 2 with sorted keys, and a newline."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _tensor_index(config: EncoderConfig) -> list[dict]:
    """The header's "tensors" list for `config`: every tensor in
    tensor_shapes() order, float64, payloads back to back from offset 0."""
    index, offset = [], 0
    for name, shape in tensor_shapes(config).items():
        nbytes = math.prod(shape) * 8
        index.append({"name": name, "shape": list(shape), "dtype": "f64",
                      "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return index


def load_weights(path: str | Path) -> tuple[EncoderConfig, EncoderWeights, Vocab]:
    """Read an archive, under reading(path, ArchiveFormatError): damage
    raises ArchiveFormatError starting with the path, with a byte offset.

    The whole header is checked against the file's size before any payload
    is read, and every payload is checked for NaN and infinity through one
    buffer of CHECK_BUFFER_BYTES before anything is mapped. Each tensor is
    then a read-only view of one map of the file, so the weights are held
    once, by the page cache, and a page is read only when it is first used:
    an encode touches the WTE rows of its prompt's ids alone. An archive
    saved before payloads were padded gives unaligned views, on which numpy
    computes the same bits, and saves padded. The map is a _FileMap: a
    descriptor of the file stays open until the map is freed, so that save
    can copy the viewed bytes from it.
    """
    with reading(path, ArchiveFormatError), open(path, "rb") as f:
        config, vocab, index = _read_header(f, os.fstat(f.fileno()).st_size)
        start = f.tell()
        _check_finite(f, start, index)
        mapped = _FileMap(f.fileno(), 0, access=ACCESS_READ)
        mapped.fd = os.dup(f.fileno())
    weakref.finalize(mapped, os.close, mapped.fd)
    mapped.address = np.frombuffer(mapped, dtype=np.uint8).ctypes.data
    tensors: dict[str, Tensor] = {}
    for entry in index:
        a = np.frombuffer(mapped, dtype="<f8", count=entry["nbytes"] // 8,
                          offset=start + entry["offset"])
        # Native byte order: no copy on a little-endian host.
        a = a.astype(np.float64, copy=False).reshape(entry["shape"])
        tensors[entry["name"]] = Tensor._wrap(a)
    return config, EncoderWeights.from_named(tensors, config), vocab


def _check_finite(f, start: int, index: list[dict]) -> None:
    """Read the payloads from f, which is at `start`, through one bounded
    buffer; raise ArchiveFormatError naming the first tensor that holds NaN
    or infinity and its offset."""
    buf = np.empty(CHECK_BUFFER_BYTES // 8, dtype="<f8")
    finite = np.empty(len(buf), dtype=bool)
    for entry in index:
        left = entry["nbytes"] // 8
        while left:
            n = min(left, len(buf))
            _read_exactly(f, buf[:n])
            if not np.isfinite(buf[:n], out=finite[:n]).all():
                raise ArchiveFormatError(f"tensor {entry['name']}: payload is not finite",
                                         offset=start + entry["offset"])
            left -= n


def load_config(path: str | Path) -> EncoderConfig:
    """An archive's config, from its header alone. The header is checked as
    load_weights checks it, errors naming the path, but no payload is read."""
    with reading(path, ArchiveFormatError), open(path, "rb") as f:
        return _read_header(f, os.fstat(f.fileno()).st_size)[0]


def _read_exactly(f, a: np.ndarray) -> None:
    # A buffered regular file fills the buffer unless the file ends first.
    if f.readinto(a) < a.nbytes:
        raise ArchiveFormatError("payload truncated", offset=f.tell())


def _read_header(f, size: int):
    """Read and check the header of an archive of `size` bytes; return what
    _check_header does, leaving f at the first payload."""
    head = f.read(_HEADER_LEN_END)
    if head[: len(MAGIC)] != MAGIC:
        raise ArchiveFormatError(f"bad magic, expected {MAGIC!r}", offset=0)
    if len(head) < _HEADER_LEN_END:
        raise ArchiveFormatError("truncated before header length", offset=len(head))
    (header_len,) = struct.unpack("<Q", head[len(MAGIC):])
    if header_len > size - _HEADER_LEN_END:
        raise ArchiveFormatError("truncated inside header", offset=size)
    header = parse_json(f.read(header_len),
                        lambda m: ArchiveFormatError(f"header is {m}", offset=_HEADER_LEN_END))
    return _check_header(header, _HEADER_LEN_END + header_len, size)


def _check_header(header, payload_base: int, size: int):
    """Check the whole header against the file's size; return the config,
    the vocab and the tensor index.

    The tensor index must be exactly the one the config calls for
    (_tensor_index), compared as canonical JSON so that 8.0 is not 8 and
    false is not 0, and its payloads must end where the file does.
    """
    def bad(message: str, offset: int = _HEADER_LEN_END) -> ArchiveFormatError:
        return ArchiveFormatError(message, offset=offset)

    json_object(header, {"config": (dict,), "vocab": (dict,), "tensors": (list,)}, bad, "header")
    try:
        config = EncoderConfig.from_json(header["config"])
        vocab = Vocab.from_json(header["vocab"])
    except ValueError as e:
        raise bad(str(e)) from e
    if vocab.vocab_size != config.vocab_size:
        raise bad(f"vocab has {vocab.vocab_size} ids, config says {config.vocab_size}")

    entries = header["tensors"]
    if config.n_layers > len(entries):  # also bounds the work of tensor_shapes
        raise bad(f"config calls for {config.n_layers} layers, "
                  f"header lists {len(entries)} tensors")
    index = _tensor_index(config)
    for k in range(max(len(entries), len(index))):
        # json.dumps never writes a bare `none`, so it marks a missing entry.
        got = json.dumps(entries[k], sort_keys=True) if k < len(entries) else "none"
        want = json.dumps(index[k], sort_keys=True) if k < len(index) else "none"
        if got != want:
            raise bad(f"tensor entry {k} is {got}, config calls for {want}")
    end = payload_base + index[-1]["offset"] + index[-1]["nbytes"]
    if end > size:
        raise bad("payload truncated", offset=size)
    if end < size:
        raise bad("trailing bytes after the last payload", offset=end)
    return config, vocab, index
