"""Canonical bit-sequence types, encodings, and sample-set manifests.

Bits are stored packed, eight per byte MSB-first, next to an explicit bit
count, so a full 20-source experiment (~95 Mbit) stays cache-friendly.
Three file encodings are supported:

``ascii01``
    Characters ``0``/``1``; whitespace ignored.
``packed-msb``
    Each byte contributes 8 bits, most significant first; trailing padding
    bits are zero and are dropped on read using the declared length.
``hex``
    Each hex character, either case, contributes 4 bits, most significant
    first; whitespace ignored.  Written in lower case.

The text encodings check their characters with ``bytes.translate``, and hex
goes through :mod:`binascii` both ways.

Every input format lives here: :func:`save_sample_set` writes a source's sample
files and manifest and :func:`load_sample_set` reads them back, :func:`read_json`
reads manifests and plans and :func:`write_json` writes them from ``_document``, and
:func:`parse_timestamp` reads each of their times, a trailing ``Z`` or no offset as UTC.
"""

from __future__ import annotations

import binascii
import json
import operator
import os
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from pathlib import Path, PurePath

import numpy as np

from .errors import (
    DomainError,
    DuplicateIndex,
    EmptyInput,
    EmptySequence,
    EmptySet,
    InvalidCharacter,
    LengthMismatch,
    ManifestError,
    RandsuiteError,
    check_int,
)

__all__ = [
    "ENCODINGS",
    "BitSequence",
    "SampleSet",
    "Manifest",
    "ManifestEntry",
    "parse_bits",
    "serialize_bits",
    "load_manifest",
    "save_manifest",
    "load_sample_set",
    "save_sample_set",
    "concat_chronological",
    "ones_before",
    "atomic_write",
]

# Each encoding: the extension of the sample files written in it, the bits
# each character (each byte, for packed-msb) holds, and a text encoding's
# alphabet.  An encoder pads a stream with fewer zero bits than one unit holds.
_FORMATS = {
    "ascii01": ("txt", 1, b"01"),
    "packed-msb": ("bin", 8, None),
    "hex": ("hex", 4, b"0123456789abcdefABCDEF"),
}
ENCODINGS = tuple(_FORMATS)

_WHITESPACE = b" \t\r\n\x0b\x0c"

# numpy holds array sizes and bit offsets as int64: the largest bit count or byte size.
MAX_SIZE = 2 ** 63 - 1

# _LEADING_MASKS[s]: the first s bits, in stream order, of 8 packed bytes
# read as a little-endian 64-bit word.
_LEADING_MASKS = np.packbits(np.arange(64) < np.arange(65)[:, None], axis=1).view("<u8")[:, 0]


class BitSequence:
    """An immutable, ordered sequence of bits with provenance metadata.

    Parameters
    ----------
    bits : array_like
        At least one value in {0, 1} (bools accepted), in stream order; none
        raises :class:`~randsuite.errors.EmptySequence`.
    source_id : str
        Opaque source label, e.g. ``"qubit-17"``.
    sample_index : int
        Nonnegative ordinal of this sample within its source.
    timestamp : datetime, optional
        UTC acquisition instant, when known.

    Equality compares the bit content only; provenance metadata is an
    annotation, not part of the value.
    """

    __slots__ = ("_packed", "_n", "source_id", "sample_index", "timestamp")

    def __init__(self, bits, *, source_id: str = "", sample_index: int = 0,
                 timestamp: datetime | None = None):
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise DomainError(f"bits must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise EmptySequence("a BitSequence needs at least one bit")
        if arr.dtype == np.bool_:
            arr = arr.astype(np.uint8)
        elif arr.dtype.kind in "iu":
            if not ((arr == 0) | (arr == 1)).all():
                raise DomainError("every bit must be exactly 0 or 1")
            arr = arr.astype(np.uint8)
        else:
            raise DomainError(f"bits must be integers or bools, got dtype {arr.dtype}")
        self._init_packed(np.packbits(arr), int(arr.size), source_id,
                          check_int("sample_index", sample_index, 0), timestamp)

    def _init_packed(self, packed, n, source_id, sample_index, timestamp):
        if timestamp is not None and not isinstance(timestamp, datetime):
            raise DomainError(f"timestamp must be a datetime or None, got {timestamp!r}")
        # Invariant: ceil(n/8) bytes whose padding bits after bit n are zero;
        # the popcount-based counters rely on it.
        packed = np.ascontiguousarray(packed, dtype=np.uint8)
        packed.setflags(write=False)
        object.__setattr__(self, "_packed", packed)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "source_id", source_id)
        object.__setattr__(self, "sample_index", sample_index)
        object.__setattr__(self, "timestamp", timestamp)

    def __setattr__(self, name, value):
        raise AttributeError("BitSequence is immutable")

    @classmethod
    def _from_packed(cls, packed, n, *, source_id: str = "", sample_index: int = 0,
                     timestamp: datetime | None = None) -> "BitSequence":
        """Adopt pre-packed bytes without revalidating them (internal)."""
        self = cls.__new__(cls)
        self._init_packed(packed, n, source_id, sample_index, timestamp)
        return self

    @property
    def n(self) -> int:
        """Number of bits."""
        return self._n

    @property
    def packed(self) -> np.ndarray:
        """The packed (MSB-first) byte view; read-only."""
        return self._packed

    def asarray(self) -> np.ndarray:
        """Unpack to a uint8 array of 0/1 values."""
        return np.unpackbits(self._packed, count=self._n)

    def count_ones(self) -> int:
        return int(np.bitwise_count(self._packed).sum(dtype=np.int64))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(f"bit index {i} out of range for length {self._n}")
        return int((self._packed[i >> 3] >> (7 - (i & 7))) & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitSequence):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._packed, other._packed)

    def __hash__(self):
        return hash((self._n, self._packed.tobytes()))

    def __repr__(self):
        head = "".join(map(str, np.unpackbits(self._packed[:2], count=min(self._n, 16))))
        dots = "..." if self._n > 16 else ""
        return (f"BitSequence(n={self._n}, bits={head}{dots}, "
                f"source_id={self.source_id!r}, sample_index={self.sample_index})")


def _format(encoding) -> tuple[str, int, bytes | None]:
    """The ``_FORMATS`` row of ``encoding``; ManifestError for any other value."""
    # Membership in the tuple, not the dict: an unhashable value such as a
    # JSON list is unknown, not a TypeError.
    if encoding not in ENCODINGS:
        raise ManifestError(f"unknown encoding {encoding!r}; expected one of {ENCODINGS}")
    return _FORMATS[encoding]


def _decode(raw: bytes, encoding: str) -> tuple[np.ndarray, int]:
    """Packed MSB-first bytes of a stream, zero-padded to a whole byte, and its bit count."""
    _, unit, alphabet = _format(encoding)
    if alphabet is None:
        return np.frombuffer(raw, dtype=np.uint8), unit * len(raw)
    payload = raw.translate(None, _WHITESPACE)
    # What the alphabet leaves is the outside characters, in stream order.
    outside = payload.translate(None, alphabet)
    if outside:
        # A byte from 0x80 up is no character of any alphabet here (UTF-8
        # makes one of several such bytes), so it is named by its value.
        byte = outside[0]
        what = (f"character {chr(byte)!r}" if byte < 0x80
                else f"byte {byte:#04x} at offset {raw.index(byte)}")
        raise InvalidCharacter(f"unexpected {what} in {encoding} input")
    if encoding == "hex":
        packed = binascii.unhexlify(payload + b"0" * (len(payload) % 2))
        return np.frombuffer(packed, dtype=np.uint8), unit * len(payload)
    return np.packbits(np.frombuffer(payload, dtype=np.uint8) - ord("0")), len(payload)


def parse_bits(raw: bytes | str, encoding: str, *, length: int | None = None) -> BitSequence:
    """Decode a byte stream into a :class:`BitSequence`.

    Parameters
    ----------
    raw : bytes or str
        Input stream.  ``str`` is accepted for the text encodings.
    encoding : {"ascii01", "packed-msb", "hex"}
    length : int, optional
        Declared bit count, a positive integer (else DomainError).  When given,
        trailing padding bits (which must be zero) are dropped, and any other
        size disagreement raises :class:`~randsuite.errors.LengthMismatch`.

    Raises
    ------
    InvalidCharacter
        Any character outside the encoding's alphabet (whitespace is
        ignored in the text encodings).  The message names the first one:
        an ASCII character quoted, a byte from 0x80 up by its value and
        offset (``0xc3 at offset 2``), a non-ASCII ``str`` character quoted
        with its index.
    EmptyInput
        The stream decodes to zero bits.
    """
    if isinstance(raw, str):
        try:
            raw = raw.encode("ascii")
        except UnicodeEncodeError as exc:
            _decode(raw[:exc.start].encode("ascii"), encoding)  # names an earlier bad character
            raise InvalidCharacter(f"unexpected character {raw[exc.start]!r} at index "
                                   f"{exc.start} in {encoding} input") from exc
    else:
        raw = bytes(raw)  # immutable: a packed-msb sample keeps a view of it
    packed, n = _decode(raw, encoding)
    if n == 0:
        raise EmptyInput(f"no bits decoded from {encoding} input")
    if length is not None:
        length = check_int("length", length, 1)
        if not 0 <= n - length < _format(encoding)[1]:
            raise LengthMismatch(f"decoded {n} bits but {length} were declared")
        # Padding of under a byte leaves ceil(length/8) bytes; every bit
        # of the last byte after the declared length must be zero.
        if packed[-1] & ((1 << (8 * packed.size - length)) - 1):
            raise LengthMismatch(f"nonzero padding bits after declared length {length}")
        n = length
    return BitSequence._from_packed(packed, n)


def _encode(packed: np.ndarray, n: int, encoding: str) -> bytes:
    """The file bytes of the n-bit stream packed MSB-first in ``packed``; inverse of _decode."""
    _, unit, alphabet = _format(encoding)
    if alphabet is None:
        return packed.tobytes()
    if encoding == "hex":
        return binascii.hexlify(packed)[:-(-n // unit)]
    return (np.unpackbits(packed, count=n) + ord("0")).tobytes()


def serialize_bits(seq: BitSequence, encoding: str) -> bytes:
    """Encode a sequence into bytes; inverse of :func:`parse_bits`.

    ``packed-msb`` and ``hex`` zero-pad the final byte/nibble, so a length that
    is no multiple of 8 or 4 round-trips only with ``parse_bits(..., length=n)``.
    """
    return _encode(seq.packed, seq.n, encoding)


class SampleSet:
    """Chronologically ordered samples from one source, all the same length.

    ``packed`` is one read-only ``(m, ceil(n/8))`` uint8 matrix: row i is
    sample ``sample_indices[i]``, taken at ``timestamps[i]``, in ascending
    index order.  Only an integer indexes a set; an item is a BitSequence
    view of its row, with the set's ``source_id``.  A set holds at least one
    sample (none raises :class:`~randsuite.errors.EmptySet`), and its
    ``declared_length`` is the first sample's length.
    """

    __slots__ = ("packed", "sample_indices", "timestamps", "source_id", "declared_length")

    def __init__(self, samples, *, source_id: str | None = None):
        samples = sorted(samples, key=lambda s: s.sample_index)
        if not samples:
            raise EmptySet("a SampleSet needs at least one sample")
        if source_id is None:
            source_id = samples[0].source_id
        declared_length = samples[0].n
        seen = set()
        for s in samples:
            if s.n != declared_length:
                raise LengthMismatch(f"sample {s.sample_index} has {s.n} bits, "
                                     f"sample {samples[0].sample_index} has {declared_length}")
            if s.sample_index in seen:
                raise DuplicateIndex(f"duplicate sample_index {s.sample_index}")
            seen.add(s.sample_index)
        packed = np.array([s.packed for s in samples], dtype=np.uint8)
        self._init_rows(packed.reshape(len(samples), -(-declared_length // 8)),
                        tuple(s.sample_index for s in samples),
                        tuple(s.timestamp for s in samples), source_id, declared_length)

    def _init_rows(self, *values):
        values[0].setflags(write=False)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_rows(cls, packed, sample_indices, timestamps, source_id,
                   declared_length) -> "SampleSet":
        """Adopt ``packed``, whose row r is sample ``sample_indices[r]``, without checks."""
        self = cls.__new__(cls)
        self._init_rows(packed, sample_indices, timestamps, source_id, declared_length)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SampleSet is immutable")

    def __len__(self):
        return len(self.sample_indices)

    def __getitem__(self, i: int) -> BitSequence:
        i = operator.index(i)  # a slice raises TypeError
        return BitSequence._from_packed(self.packed[i], self.declared_length,
                                        source_id=self.source_id,
                                        sample_index=self.sample_indices[i],
                                        timestamp=self.timestamps[i])

    def total_bits(self) -> int:
        return len(self) * self.declared_length

    def __repr__(self):
        return (f"SampleSet(source_id={self.source_id!r}, samples={len(self)}, "
                f"declared_length={self.declared_length})")


def concat_chronological(sample_set: SampleSet) -> BitSequence:
    """Join all samples, in sample_index order, into one long sequence (a view if 8 | n)."""
    packed, n = sample_set.packed, sample_set.declared_length
    if n % 8:
        packed = np.packbits(np.unpackbits(packed, axis=1, count=n))
    return BitSequence._from_packed(packed.reshape(-1), sample_set.total_bits(),
                                    source_id=sample_set.source_id)


def ones_before(packed: np.ndarray, positions) -> np.ndarray:
    """Ones among the first t bits of each packed row, for every t in ``positions``.

    ``packed`` is ``(rows, bytes)``; ``positions`` is a non-decreasing 1-D
    array of bit offsets in ``[0, 8 * bytes]``, else DomainError.  The
    result is ``(rows, len(positions))`` int64.  Each row is read as 64-bit
    words (zero-padded to a whole word), whose popcounts are summed
    cumulatively in place, in the narrowest unsigned type that holds the
    row's ones: for rows under 512 MB, half a byte per packed byte.  The ones
    before t are those of the words up to t's word, less that word's bits
    from t on.
    """
    positions = np.asarray(positions, dtype=np.int64)
    rows, width = packed.shape
    if positions.size and not 0 <= positions.min() <= positions.max() <= 8 * width:
        raise DomainError(f"positions must lie in [0, {8 * width}]")
    count = -(-width // 8)
    if width % 8 or not packed.flags.c_contiguous:
        padded = np.zeros((rows, 8 * count), dtype=np.uint8)
        padded[:, :width] = packed
        packed = padded
    words = packed.view("<u8")
    ones = np.bitwise_count(words, out=np.empty((rows, count), np.min_scalar_type(8 * width)))
    np.cumsum(ones, axis=1, out=ones)
    word = np.minimum(positions // 64, count - 1)
    after = ~_LEADING_MASKS[positions - 64 * word]
    return (ones[:, word] - np.bitwise_count(words[:, word] & after)).astype(np.int64)


@dataclass(frozen=True)
class ManifestEntry:
    """One sample file: a relative path that stays below the manifest's directory."""

    path: str
    encoding: str
    sample_index: int
    timestamp: datetime | None = None

    def __post_init__(self):
        if self.encoding not in ENCODINGS:
            raise ManifestError(f"unknown encoding {self.encoding!r} for {self.path!r}")
        if not isinstance(self.path, str):
            raise ManifestError(f"entry path must be a string, got {self.path!r}")
        parts = PurePath(self.path)
        if parts.anchor or ".." in parts.parts:
            raise ManifestError(f"entry path {self.path!r} leaves the manifest directory; "
                                f"use a relative path without '..'")
        object.__setattr__(self, "sample_index", check_int(
            f"sample_index of {self.path!r}", self.sample_index, 0, error=ManifestError))
        if self.timestamp is not None and not isinstance(self.timestamp, datetime):
            raise ManifestError(f"timestamp of {self.path!r} must be a datetime or None, "
                                f"got {self.timestamp!r}")


@dataclass(frozen=True)
class Manifest:
    """Declares the files making up one source's sample set.

    ``base_dir`` anchors the entry paths; :func:`load_manifest` sets it to
    the manifest file's directory.  A ``source_id`` that contains ``/`` or
    NUL raises :class:`~randsuite.errors.ManifestError`, since output file
    names are built from it, and so do ``entries`` that list no sample file.
    """

    declared_length: int
    source_id: str
    entries: tuple[ManifestEntry, ...]
    base_dir: Path = Path(".")

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "base_dir", Path(self.base_dir))
        object.__setattr__(self, "declared_length", check_int(
            "declared_length", self.declared_length, 1, MAX_SIZE, error=ManifestError))
        if not isinstance(self.source_id, str) or {"/", "\0"} & set(self.source_id):
            raise ManifestError(f"source_id {self.source_id!r} must be a string without '/' "
                                f"or NUL: it names output files")
        paths = set()
        indices = set()
        for e in self.entries:
            if e.path in paths:
                raise ManifestError(f"duplicate path {e.path!r}")
            paths.add(e.path)
            if e.sample_index in indices:
                raise DuplicateIndex(f"duplicate sample_index {e.sample_index}")
            indices.add(e.sample_index)
        if not self.entries:
            raise ManifestError("entries lists no sample file")


def parse_timestamp(value, what: str) -> datetime | None:
    """The ISO 8601 string ``value`` as an aware datetime, ``None`` as ``None``.

    A trailing ``Z`` and a time with no UTC offset both read as UTC.  A
    value that is no string raises TypeError, and one that is no ISO 8601
    time ValueError, each naming it as ``what``.
    """
    if value is None:
        return None
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {value!r}")
    try:
        ts = datetime.fromisoformat(value[:-1] + "+00:00" if value.endswith("Z") else value)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc
    return ts if ts.tzinfo is not None else ts.replace(tzinfo=timezone.utc)


def _built(what, build, doc):
    """``build(doc)``, with any error it meets in ``doc`` named by ``what``.

    This is how every loader names its input.  A
    :class:`~randsuite.errors.RandsuiteError` keeps its type and gets the prefix
    ``<what>: ``.  A KeyError, TypeError or ValueError (a missing field, a value
    of the wrong kind) becomes a ManifestError ``<what> is malformed: ...``.
    """
    try:
        return build(doc)
    except RandsuiteError as exc:
        raise type(exc)(f"{what}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"{what} is malformed: {exc}") from exc


def _built_list(doc, key: str, build) -> tuple:
    """``build`` of each item of the JSON list ``doc[key]``, item i named ``<key>[i]``."""
    items = doc[key]
    if not isinstance(items, list):
        raise ManifestError(f"{key} must be a JSON list, got {items!r}")
    return tuple(_built(f"{key}[{i}]", build, item) for i, item in enumerate(items))


def _object(pairs) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict; a repeated key raises ValueError."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def read_json(path, what: str, build):
    """``build`` of the JSON document at ``path``, its errors named ``<what> <path>``.

    Text that is not UTF-8 (or UTF-16/32), not JSON, or an object that gives a
    key twice raises :class:`~randsuite.errors.ManifestError`; see :func:`_built`
    for the rest.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_bytes(), object_pairs_hook=_object)
    except ValueError as exc:
        raise ManifestError(f"{what} {path} is not valid JSON: {exc}") from exc
    return _built(f"{what} {path}", build, doc)


def write_json(path, doc) -> None:
    """Commit ``doc`` to ``path`` as JSON: indent 2, sorted keys, a final newline."""
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# The key a record field is written under, or None for a field left out.
_DOC_KEYS = {"qubit_models": "qubits", "base_dir": None}


def _document(record) -> dict:
    """The JSON document of a dataclass record: a key per field that is not None, named by
    ``_DOC_KEYS``.  A nested record becomes its document, a tuple of records a list of them,
    and a datetime its ``isoformat()``."""
    doc = {}
    for field in fields(record):
        key = _DOC_KEYS.get(field.name, field.name)
        value = getattr(record, field.name)
        if isinstance(value, tuple):
            value = [_document(item) for item in value]
        elif is_dataclass(value):
            value = _document(value)
        elif isinstance(value, datetime):
            value = value.isoformat()
        if key is not None and value is not None:
            doc[key] = value
    return doc


def load_manifest(path) -> Manifest:
    """Read a manifest JSON file; entry paths resolve against its directory.

    A :class:`~randsuite.errors.RandsuiteError` it raises starts with ``manifest <path>``.
    """
    path = Path(path)

    def entry(e):
        return ManifestEntry(path=e["path"], encoding=e["encoding"],
                             sample_index=e["sample_index"],
                             timestamp=parse_timestamp(e.get("timestamp"), "timestamp"))

    def build(doc):
        return Manifest(declared_length=doc["declared_length"], source_id=doc["source_id"],
                        entries=_built_list(doc, "entries", entry), base_dir=path.parent)
    return read_json(path, "manifest", build)


def atomic_write(path, text: str) -> None:
    """Commit ``text`` to ``path``: write a temp file beside it, then rename it into place.

    Readers see the old file or the whole new one, never a part of it.  The
    temp file has an unpredictable name and is created as open() creates a
    file, 0o666 less the umask, so outputs match files written in place.  The
    text is written as UTF-8 with no newline translation.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_manifest(manifest: Manifest, path) -> None:
    """Write a manifest as JSON (paths are stored as given, not resolved)."""
    write_json(path, _document(manifest))


def save_sample_set(sample_set: SampleSet, directory, encoding: str = "packed-msb") -> Path:
    """Write each row to ``directory/sample_<index>.<ext>``, then ``manifest.json``; return it.

    The inverse of ``load_sample_set(load_manifest(path))`` when the set's
    timestamps are aware or None.  The manifest is checked before the
    directory is touched.  The manifest is the commit point: the old one is
    removed first and the new one written last, so a write that stops
    part-way leaves no manifest.
    """
    extension = _format(encoding)[0]
    n = sample_set.declared_length
    manifest = Manifest(n, sample_set.source_id, [
        ManifestEntry(f"sample_{index:05d}.{extension}", encoding, index, timestamp)
        for index, timestamp in zip(sample_set.sample_indices, sample_set.timestamps)])
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path.unlink(missing_ok=True)
    for row, entry in zip(sample_set.packed, manifest.entries):
        (directory / entry.path).write_bytes(_encode(row, n, encoding))
    save_manifest(manifest, manifest_path)
    return manifest_path


def load_sample_set(manifest: Manifest) -> SampleSet:
    """Load and validate every file a manifest declares, each parsed and copied into its row.

    Raises
    ------
    LengthMismatch, InvalidCharacter, EmptyInput
        A file decodes to a bit count other than ``declared_length``, holds a
        character outside its encoding or decodes to no bits; the message
        starts with the offending path.
    """
    entries = sorted(manifest.entries, key=lambda e: e.sample_index)
    n = manifest.declared_length
    for i, entry in enumerate(entries):
        file_path = manifest.base_dir / entry.path
        row = _built(file_path, lambda raw: parse_bits(raw, entry.encoding, length=n),
                     file_path.read_bytes()).packed
        if not i:
            # Allocated once the first file has matched the declared length,
            # so a length that no file could match fails as that file's
            # LengthMismatch, not as an allocation of the declared size.
            packed = np.empty((len(entries), row.size), dtype=np.uint8)
        packed[i] = row
    return SampleSet._from_rows(packed, tuple(e.sample_index for e in entries),
                                tuple(e.timestamp for e in entries), manifest.source_id, n)
