"""Bit-sequence parsing, serialization, sample sets, and manifests."""

import hashlib
import json
import os
import re
import stat
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randsuite as rs
from randsuite import (
    BitSequence,
    Manifest,
    ManifestEntry,
    SampleSet,
    concat_chronological,
    load_manifest,
    load_sample_set,
    parse_bits,
    save_manifest,
    serialize_bits,
)
from randsuite.bitseq import ones_before
from randsuite.errors import (
    DomainError,
    DuplicateIndex,
    EmptyInput,
    EmptySequence,
    EmptySet,
    InvalidCharacter,
    LengthMismatch,
    ManifestError,
)

import reference


class TestParseBits:
    def test_ascii01_worked_sequence(self):
        seq = parse_bits("1001100010", "ascii01")
        assert seq.n == 10
        assert list(seq.asarray()) == [1, 0, 0, 1, 1, 0, 0, 0, 1, 0]

    def test_ascii01_ignores_whitespace(self):
        seq = parse_bits(b" 10 01\n1000\t10 \r\n", "ascii01")
        assert list(seq.asarray()) == [1, 0, 0, 1, 1, 0, 0, 0, 1, 0]

    def test_packed_msb_single_byte(self):
        seq = parse_bits(bytes([0xA0]), "packed-msb")
        assert list(seq.asarray()) == [1, 0, 1, 0, 0, 0, 0, 0]

    def test_hex_nibbles(self):
        seq = parse_bits("F0", "hex")
        assert list(seq.asarray()) == [1, 1, 1, 1, 0, 0, 0, 0]
        assert parse_bits("f0", "hex") == seq

    # The first bad character is named: an ASCII one quoted, a byte from
    # 0x80 up by its value and offset in the bytes (whitespace counted),
    # and a non-ASCII str character quoted with its index.
    @pytest.mark.parametrize("raw,encoding,named", [
        ("10021", "ascii01", "character '2'"),
        ("FG", "hex", "character 'G'"),
        ("01\u00e9", "ascii01", "character '\u00e9' at index 2"),
        (b"01\xc3\xa9", "ascii01", "byte 0xc3 at offset 2"),
        (b"0 1\n\xff0", "ascii01", "byte 0xff at offset 4"),
        (b"01z\xc3\xa9", "ascii01", "character 'z'"),
        ("z01\u00e9", "ascii01", "character 'z'"),
        (b"ab \xc3\xa9", "hex", "byte 0xc3 at offset 3"),
        ("a\u20acg", "hex", "character '\u20ac' at index 1"),
        (b"a\x80", "hex", "byte 0x80 at offset 1"),
    ])
    def test_invalid_character(self, raw, encoding, named):
        with pytest.raises(InvalidCharacter) as err:
            parse_bits(raw, encoding)
        assert str(err.value) == f"unexpected {named} in {encoding} input"

    def test_invalid_hex_character_is_named(self):
        with pytest.raises(InvalidCharacter, match="'g'"):
            parse_bits("aB3 gZ", "hex")

    def test_hex_encoding_is_lower_case_zero_padded(self):
        seq = BitSequence([1, 0, 1, 0, 0, 1, 0, 1, 1, 1])
        assert serialize_bits(seq, "hex") == b"a5c"

    @pytest.mark.parametrize("raw,encoding", [("", "ascii01"), (b"", "packed-msb"),
                                              ("  \n ", "ascii01"), ("", "hex")])
    def test_empty_input(self, raw, encoding):
        with pytest.raises(EmptyInput):
            parse_bits(raw, encoding)

    def test_declared_length_drops_zero_padding(self):
        seq = parse_bits(bytes([0b10110000]), "packed-msb", length=4)
        assert list(seq.asarray()) == [1, 0, 1, 1]

    def test_declared_length_rejects_nonzero_padding(self):
        with pytest.raises(LengthMismatch):
            parse_bits(bytes([0b10111000]), "packed-msb", length=4)

    @pytest.mark.parametrize("raw,encoding,length,error", [
        # a5c is 1010 0101 1100: bit 9 is set, bits 10 and 11 are not
        ("a5c", "hex", 12, None), ("a5c", "hex", 10, None),
        ("a5c", "hex", 9, "nonzero padding bits after declared length 9"),
        ("a5c", "hex", 8, "decoded 12 bits but 8 were declared"),
        (bytes([0xA5, 0xC0]), "packed-msb", 10, None),
        (bytes([0xA5, 0xC0]), "packed-msb", 9, "nonzero padding bits after declared length 9"),
        (bytes([0xA5, 0xC0]), "packed-msb", 8, "decoded 16 bits but 8 were declared"),
    ])
    def test_declared_length_checks_each_padding_bit(self, raw, encoding, length, error):
        if error is None:
            seq = parse_bits(raw, encoding, length=length)
            assert seq.n == length
            assert "".join(map(str, seq.asarray())) == "101001011100"[:length]
        else:
            with pytest.raises(LengthMismatch, match=error):
                parse_bits(raw, encoding, length=length)

    def test_declared_length_rejects_size_mismatch(self):
        with pytest.raises(LengthMismatch):
            parse_bits(bytes([0xFF, 0xFF]), "packed-msb", length=4)
        with pytest.raises(LengthMismatch):
            parse_bits("101", "ascii01", length=4)

    @pytest.mark.parametrize("encoding, alphabet, width", [
        ("ascii01", "01", 1), ("hex", "0123456789abcdefABCDEF", 4)], ids=["ascii01", "hex"])
    def test_decodes_as_each_character_does(self, encoding, alphabet, width):
        """Every length up to 40 characters, in mixed case with whitespace
        between them, decodes to each character's int() value, MSB first.
        With characters from outside the alphabet, bytes >= 0x80 included,
        the first of them is named: an ASCII character quoted, a byte from
        0x80 up by its value and offset."""
        whitespace = " \t\r\n\x0b\x0c"
        outside = [chr(b) for b in range(256) if chr(b) not in alphabet + whitespace]
        rng = np.random.Generator(np.random.PCG64(width))
        for length in range(1, 41):
            for _ in range(5):
                chars = rng.choice(list(alphabet), size=length).tolist()
                spaced = [c + "".join(rng.choice(list(whitespace), size=rng.integers(3)))
                          for c in chars]
                expected = [int(bit) for c in chars
                            for bit in format(int(c, 2 ** width), f"0{width}b")]
                seq = parse_bits("".join(spaced).encode("latin-1"), encoding)
                assert (seq.n, seq.asarray().tolist()) == (len(expected), expected)
                # Indices, not rng.choice: numpy strings drop a trailing NUL.
                bad = [outside[i] for i in rng.integers(len(outside), size=2)]
                first, second = sorted(rng.integers(len(spaced) + 1, size=2).tolist())
                spaced.insert(second, bad[1])
                spaced.insert(first, bad[0])
                text = "".join(spaced)
                named = (repr(bad[0]) if bad[0] < "\x80"
                         else f"byte {ord(bad[0]):#04x} at offset {text.index(bad[0])}")
                with pytest.raises(InvalidCharacter, match=re.escape(named)):
                    parse_bits(text.encode("latin-1"), encoding)

    @pytest.mark.parametrize("encoding", ["bogus", ["hex"]])
    def test_unknown_encoding_is_a_manifest_error(self, tmp_path, encoding):
        # A list is unhashable: the encoding is looked up by membership.
        message = re.escape(f"unknown encoding {encoding!r}; expected one of {rs.ENCODINGS}")
        with pytest.raises(ManifestError, match=message):
            parse_bits(b"01", encoding)
        with pytest.raises(ManifestError, match=message):
            serialize_bits(BitSequence([0, 1]), encoding)
        with pytest.raises(ManifestError, match=message):
            rs.save_sample_set(SampleSet([BitSequence([0, 1])]), tmp_path / "q", encoding)
        assert not (tmp_path / "q").exists()


class TestRoundTrip:
    @pytest.mark.parametrize("encoding", ["ascii01", "packed-msb", "hex"])
    @given(data=st.binary(min_size=1, max_size=64), n_drop=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_length(self, encoding, data, n_drop):
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        n = max(1, bits.size - n_drop)
        seq = BitSequence(bits[:n])
        payload = serialize_bits(seq, encoding)
        assert parse_bits(payload, encoding, length=seq.n) == seq

    @pytest.mark.parametrize("encoding", ["ascii01", "packed-msb", "hex"])
    def test_round_trip_million_bits(self, encoding):
        rng = np.random.Generator(np.random.PCG64(7))
        n = 10 ** 6 - 3  # not a multiple of 8 or 4 on purpose
        seq = BitSequence(rng.integers(0, 2, size=n, dtype=np.uint8))
        assert parse_bits(serialize_bits(seq, encoding), encoding, length=n) == seq


class TestBitSequence:
    def test_immutability_and_metadata(self):
        ts = datetime(2019, 5, 9, 11, 24, 27, tzinfo=timezone.utc)
        seq = BitSequence([1, 0, 1], source_id="qubit-00", sample_index=3, timestamp=ts)
        assert (seq.n, len(seq)) == (3, 3)
        assert (seq.source_id, seq.sample_index, seq.timestamp) == ("qubit-00", 3, ts)
        with pytest.raises(AttributeError):
            seq.source_id = "other"

    def test_equality_is_content_only(self):
        a = BitSequence([1, 0, 1], source_id="a", sample_index=0)
        b = BitSequence([1, 0, 1], source_id="b", sample_index=9)
        assert a == b
        assert a != BitSequence([1, 0, 0])
        assert a != BitSequence([1, 0, 1, 0])

    def test_hash_agrees_with_equality(self):
        a = BitSequence([1, 0, 1], source_id="a", sample_index=0)
        b = BitSequence([1, 0, 1], source_id="b", sample_index=9)
        assert hash(a) == hash(b)
        assert len({a, b, BitSequence([1, 0, 1, 0])}) == 2
        assert a.__eq__("101") is NotImplemented
        assert (a == "101") is False

    def test_indexing_and_counts(self):
        seq = BitSequence([1, 0, 0, 1, 1, 0, 0, 0, 1, 0])
        assert [seq[i] for i in range(10)] == [1, 0, 0, 1, 1, 0, 0, 0, 1, 0]
        assert seq.count_ones() == 4
        with pytest.raises(IndexError):
            seq[10]

    def test_rejects_non_bits(self):
        with pytest.raises(DomainError):
            BitSequence([0, 1, 2])
        with pytest.raises(DomainError):
            BitSequence([0.5, 1.0])
        with pytest.raises(DomainError, match="one-dimensional"):
            BitSequence([[0, 1], [1, 0]])
        with pytest.raises(DomainError, match="sample_index must be >= 0, got -1"):
            BitSequence([0, 1], sample_index=-1)

    @pytest.mark.parametrize("bits", [[], np.zeros(0, bool), np.zeros(0, np.uint8)])
    def test_rejects_no_bits(self, bits):
        with pytest.raises(EmptySequence, match="^a BitSequence needs at least one bit$"):
            BitSequence(bits)

    @pytest.mark.parametrize("n,shown", [(3, "100"), (16, "1001001001001001"),
                                         (17, "1001001001001001...")])
    def test_repr_shows_the_first_16_bits(self, n, shown):
        seq = BitSequence(np.arange(n) % 3 == 0, source_id="qubit-00", sample_index=2)
        assert repr(seq) == (f"BitSequence(n={n}, bits={shown}, "
                             f"source_id='qubit-00', sample_index=2)")

    def test_repr_unpacks_only_the_bits_it_shows(self):
        import tracemalloc

        seq = BitSequence(np.ones(1 << 20, np.uint8))
        tracemalloc.start()
        try:
            text = repr(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.startswith(f"BitSequence(n={1 << 20}, bits={'1' * 16}...,")
        # Unpacking the whole sequence would take a byte per bit.
        assert peak < 1 << 14


class TestSampleSetAndConcat:
    def test_repr_and_immutability(self, bits):
        s = SampleSet([bits("10", sample_index=4), bits("01", sample_index=1)],
                      source_id="qubit-07")
        assert repr(s) == "SampleSet(source_id='qubit-07', samples=2, declared_length=2)"
        for name in ("source_id", "packed", "other"):
            with pytest.raises(AttributeError, match="SampleSet is immutable"):
                setattr(s, name, None)
        assert s.source_id == "qubit-07"

    def test_concat_two_samples(self, bits):
        s = SampleSet([bits("10", sample_index=0), bits("01", sample_index=1)])
        joined = concat_chronological(s)
        assert list(joined.asarray()) == [1, 0, 0, 1]

    def test_concat_single_sample_identity(self, bits):
        seq = bits("10110")
        joined = concat_chronological(SampleSet([seq]))
        assert joined == seq

    @pytest.mark.parametrize("samples", [[], (), iter([])])
    def test_rejects_no_samples(self, samples):
        with pytest.raises(EmptySet, match="^a SampleSet needs at least one sample$"):
            SampleSet(samples)

    def test_concat_boundaries_and_length(self, random_bits):
        members = [
            BitSequence(random_bits(24, seed=i).asarray(), sample_index=i)
            for i in range(5)
        ]
        joined = concat_chronological(SampleSet(members))
        assert joined.n == sum(m.n for m in members)
        arr = joined.asarray()
        for i, m in enumerate(members):
            # spot-check both sides of every sample boundary
            assert arr[i * 24] == m[0]
            assert arr[(i + 1) * 24 - 1] == m[23]
            assert np.array_equal(arr[i * 24:(i + 1) * 24], m.asarray())

    def test_sorts_chronologically(self, bits):
        s = SampleSet([bits("11", sample_index=2), bits("00", sample_index=0),
                       bits("01", sample_index=1)])
        assert [m.sample_index for m in s] == [0, 1, 2]
        assert list(concat_chronological(s).asarray()) == [0, 0, 0, 1, 1, 1]

    def test_rejects_mixed_lengths(self, bits):
        with pytest.raises(LengthMismatch):
            SampleSet([bits("10", sample_index=0), bits("011", sample_index=1)])

    def test_rejects_duplicate_indices(self, bits):
        with pytest.raises(DuplicateIndex):
            SampleSet([bits("10", sample_index=0), bits("01", sample_index=0)])

    def test_packed_matrix_is_read_only(self, bits):
        s = SampleSet([bits("1011", sample_index=0), bits("0110", sample_index=1)])
        assert s.packed.shape == (2, 1)
        with pytest.raises(ValueError):
            s.packed[0, 0] = 0
        with pytest.raises(ValueError):
            s[0].packed[0] = 0

    def test_shuffled_input_gives_ascending_rows_and_equal_items(self, random_bits):
        ts = datetime(2019, 1, 1, tzinfo=timezone.utc)
        members = [BitSequence(random_bits(13, seed=i).asarray(), source_id="q",
                               sample_index=3 * i, timestamp=ts.replace(hour=i))
                   for i in range(6)]
        shuffled = [members[i] for i in (4, 0, 5, 2, 1, 3)]
        s = SampleSet(shuffled)
        assert s.sample_indices == (0, 3, 6, 9, 12, 15)
        assert s.timestamps == tuple(m.timestamp for m in members)
        for row, m in zip(s.packed, members):
            assert np.array_equal(row, m.packed)
        assert list(s) == members
        for item, m in zip(s, members):
            assert (item.source_id, item.sample_index, item.timestamp) == \
                (m.source_id, m.sample_index, m.timestamp)
        assert s[-1] == members[-1] and s[-1].sample_index == 15

    def test_whole_byte_concat_views_the_matrix(self, random_bits):
        s = SampleSet([BitSequence(random_bits(16, seed=i).asarray(), sample_index=i)
                       for i in range(3)])
        assert np.shares_memory(concat_chronological(s).packed, s.packed)

    def test_slice_raises(self, bits):
        s = SampleSet([bits("10", sample_index=0), bits("01", sample_index=1)])
        with pytest.raises(TypeError):
            s[0:1]
        with pytest.raises(IndexError):
            s[2]

    def test_experiment_scale_total_bits(self):
        # 579 samples x 8192 bits joined chronologically
        packed = np.zeros(1024, dtype=np.uint8)
        members = [
            BitSequence._from_packed(packed, 8192, sample_index=i)
            for i in range(579)
        ]
        s = SampleSet(members)
        assert s.total_bits() == 4_743_168
        assert concat_chronological(s).n == 4_743_168


# Aware times with whole-minute offsets.
TIMES = st.datetimes(timezones=st.builds(lambda minutes: timezone(timedelta(minutes=minutes)),
                                         st.integers(-1439, 1439)))


@st.composite
def manifests(draw):
    """Manifests of 1-3 entries in any encoding, each with or without a timestamp."""
    indices = draw(st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=3, unique=True))
    entries = tuple(
        ManifestEntry(f"sample_{i}" + draw(st.text(max_size=6).filter(lambda s: "/" not in s)),
                      draw(st.sampled_from(rs.ENCODINGS)), index, draw(st.none() | TIMES))
        for i, index in enumerate(indices))
    source_id = draw(st.text(max_size=8).filter(lambda s: not {"/", "\0"} & set(s)))
    return Manifest(draw(st.integers(1, 2 ** 63 - 1)), source_id, entries)


class TestManifest:
    # Every field the writer puts in a manifest, the hand-written reader takes back.
    @given(manifest=manifests())
    @settings(max_examples=60, deadline=None)
    def test_any_manifest_round_trips(self, tmp_path_factory, manifest):
        path = tmp_path_factory.getbasetemp() / "round_trip" / "manifest.json"
        save_manifest(manifest, path)
        assert load_manifest(path) == replace(manifest, base_dir=path.parent)

    def _write_fixture(self, tmp_path, contents, declared_length=8, encoding="ascii01"):
        entries = []
        for i, payload in enumerate(contents):
            name = f"sample_{i}.txt"
            (tmp_path / name).write_bytes(payload)
            entries.append(ManifestEntry(path=name, encoding=encoding, sample_index=i))
        return Manifest(declared_length=declared_length, source_id="src",
                        entries=tuple(entries), base_dir=tmp_path)

    def test_load_sample_set(self, tmp_path):
        manifest = self._write_fixture(tmp_path, [b"10101010", b"11110000", b"00001111"])
        s = load_sample_set(manifest)
        assert len(s) == 3
        assert s.total_bits() == 24
        assert s.source_id == "src"

    def test_descending_entries_load_in_index_order(self, tmp_path):
        payloads = {5: b"11110000", 3: b"10101010", 1: b"00000001"}
        for i, payload in payloads.items():
            (tmp_path / f"s{i}.txt").write_bytes(payload)
        manifest = Manifest(
            declared_length=8, source_id="src", base_dir=tmp_path,
            entries=tuple(ManifestEntry(f"s{i}.txt", "ascii01", i, datetime(
                2019, 1, 1, i, tzinfo=timezone.utc)) for i in payloads))
        s = load_sample_set(manifest)
        assert s.sample_indices == (1, 3, 5)
        assert [ts.hour for ts in s.timestamps] == [1, 3, 5]
        assert s.packed[:, 0].tolist() == [0b00000001, 0b10101010, 0b11110000]
        assert [seq.sample_index for seq in s] == [1, 3, 5]

    def test_length_mismatch_reports_path(self, tmp_path):
        manifest = self._write_fixture(tmp_path, [b"10101010", b"1111000"])
        with pytest.raises(LengthMismatch) as err:
            load_sample_set(manifest)
        assert "sample_1.txt" in str(err.value)
        assert "decoded 7 bits but 8 were declared" in str(err.value)

    def test_invalid_byte_reports_path_and_offset(self, tmp_path):
        manifest = self._write_fixture(tmp_path, [b"10101010", "0101010\u00e9".encode()],
                                       declared_length=8)
        with pytest.raises(InvalidCharacter) as err:
            load_sample_set(manifest)
        assert str(err.value) == (f"{tmp_path / 'sample_1.txt'}: "
                                  "unexpected byte 0xc3 at offset 7 in ascii01 input")

    def test_duplicate_index_rejected(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"10101010")
        (tmp_path / "b.txt").write_bytes(b"01010101")
        with pytest.raises(DuplicateIndex):
            Manifest(declared_length=8, source_id="src", base_dir=tmp_path,
                     entries=(ManifestEntry("a.txt", "ascii01", 0),
                              ManifestEntry("b.txt", "ascii01", 0)))

    def test_negative_index_rejected(self):
        with pytest.raises(ManifestError, match="sample_index"):
            Manifest(declared_length=8, source_id="src",
                     entries=(ManifestEntry("a.txt", "ascii01", -1),))

    def test_duplicate_path_rejected(self):
        with pytest.raises(ManifestError):
            Manifest(declared_length=8, source_id="src",
                     entries=(ManifestEntry("a.txt", "ascii01", 0),
                              ManifestEntry("a.txt", "ascii01", 1)))

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ManifestError):
            Manifest(declared_length=8, source_id="src",
                     entries=(ManifestEntry("a.txt", "utf-9", 0),))

    def test_json_round_trip(self, tmp_path):
        ts = datetime(2019, 5, 9, 11, 24, 27, tzinfo=timezone.utc)
        manifest = Manifest(
            declared_length=16, source_id="qubit-03",
            entries=(ManifestEntry("x.bin", "packed-msb", 0, ts),
                     ManifestEntry("y.bin", "packed-msb", 1)))
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.declared_length == 16
        assert loaded.source_id == "qubit-03"
        assert loaded.entries[0].timestamp == ts
        assert loaded.entries[1].timestamp is None
        assert loaded.base_dir == tmp_path

    @pytest.mark.parametrize("entry_path", ["/etc/passwd", "../outside.txt",
                                            "sub/../../outside.txt"])
    def test_entry_paths_cannot_leave_the_manifest_directory(self, tmp_path, entry_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "declared_length": 8, "source_id": "src",
            "entries": [{"path": entry_path, "encoding": "ascii01", "sample_index": 0}]}))
        with pytest.raises(ManifestError, match="leaves the manifest directory"):
            load_manifest(path)

    # A Manifest lists at least one entry, and a manifest file that lists none is named.
    @pytest.mark.parametrize("entries, message", [
        ([], "entries lists no sample file"),
        ({}, "entries must be a JSON list, got {}"),
    ])
    def test_a_manifest_file_lists_at_least_one_sample(self, tmp_path, entries, message):
        with pytest.raises(ManifestError, match="^entries lists no sample file$"):
            Manifest(declared_length=8, source_id="src", entries=())
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"declared_length": 8, "source_id": "src",
                                    "entries": entries}))
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert str(err.value) == f"manifest {path}: {message}"

    def test_entry_paths_may_name_subdirectories(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "a.txt").write_bytes(b"10101010")
        path = tmp_path / "manifest.json"
        save_manifest(Manifest(declared_length=8, source_id="src",
                               entries=(ManifestEntry("sub/a.txt", "ascii01", 0),)), path)
        assert len(load_sample_set(load_manifest(path))) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError):
            load_manifest(path)
        path.write_text(json.dumps({"source_id": "x"}))
        with pytest.raises(ManifestError):
            load_manifest(path)
        path.write_bytes(b'\xff{"source_id": "x"}')
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest(path)


# SHA-256 over the manifest and sample files that save_sample_set writes for
# three seeded samples (see _pinned_set), file by file in name order; recorded
# from the writer whose hex and ascii01 codecs were numpy lookup tables,
# before bytes.translate and binascii replaced them.  At 1001 and 1002 bits a
# hex file ends in a partial nibble, at 1004 it has an odd nibble count with
# no partial one, and at 1024 neither; 1001 pads the last packed byte, 1024
# does not.
SAMPLE_FILE_PINS = {
    (1001, "ascii01"): "8178867571dbe469edd2d011a0b3c83fbb75754cd21b8b46d56d44f8a66092af",
    (1001, "packed-msb"): "93ff6eda3fcd60d7cb3f648f4693ec364f2f2ea3a13425630ce08846fb7a8bc4",
    (1001, "hex"): "de5d10a6e6a56272e467e34fac6d838f165bc35aad116f55e8f9c3174fb0d55b",
    (1002, "ascii01"): "3f0fb6acf7761eab08a901489379e0abb4e46435d62bfb45b18a396c8d99c96e",
    (1002, "packed-msb"): "7ac9495fc135fbfc049642e947d6fcaf946693d917f2ecd3e0ee8063fff1ec4d",
    (1002, "hex"): "f855794df9c484757783131a907b3bba8765ff6e68c27e3cd2b1bd27de46e7fc",
    (1004, "ascii01"): "8a27e0f510ca2d381a96d68dfee540467f029e3ef485dfa3c86b31168dca9d9a",
    (1004, "packed-msb"): "6e6f3a37b25fffec0911c3e52deb3020532afb3456d5643a15ccd237cee7b60c",
    (1004, "hex"): "2215da9c7471a7dd7e992be8f09f38bfa60d96768153366c4c9cf2f4ad6017eb",
    (1024, "ascii01"): "3a54efd9cb73fae3473bb9eadb443cfc3c13f3ae10fae898ab9068e93ba89814",
    (1024, "packed-msb"): "f6d250a5aa29ab986531db70bfa88a152008d8e0b0ddc07932ef476de49e1c1c",
    (1024, "hex"): "5307d55391f2253f9c4b61f02eebbcf7fddf92fcd11e76d192126cc7b7ec9137",
}


def _pinned_set(n):
    """Three seeded n-bit samples with aware and missing timestamps."""
    rng = np.random.Generator(np.random.PCG64(n))
    packed = np.packbits(rng.integers(0, 2, size=(3, n), dtype=np.uint8), axis=1)
    start = datetime(2019, 5, 9, 11, 24, 27, tzinfo=timezone.utc)
    return SampleSet._from_rows(packed, (0, 4, 100000), (start, None, start.replace(hour=12)),
                                "qubit-07", n)


class TestSaveSampleSet:
    @pytest.mark.parametrize("n, encoding", sorted(SAMPLE_FILE_PINS))
    def test_sample_files_match_pinned_digests(self, tmp_path, n, encoding):
        saved = _pinned_set(n)
        manifest = rs.save_sample_set(saved, tmp_path / "q", encoding)
        digest = hashlib.sha256()
        for path in sorted(manifest.parent.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == SAMPLE_FILE_PINS[n, encoding]
        assert np.array_equal(load_sample_set(load_manifest(manifest)).packed, saved.packed)

    @pytest.mark.parametrize("encoding", ["ascii01", "packed-msb", "hex"])
    @pytest.mark.parametrize("n", [1001, 8190, 8192])
    @pytest.mark.parametrize("aware", [False, True])
    def test_round_trip(self, tmp_path, encoding, n, aware):
        rng = np.random.Generator(np.random.PCG64(n))
        packed = np.packbits(rng.integers(0, 2, size=(3, n), dtype=np.uint8), axis=1)
        start = datetime(2019, 5, 9, 11, 24, 27, tzinfo=timezone.utc)
        timestamps = (start, None, start.replace(hour=12)) if aware else (None,) * 3
        saved = SampleSet._from_rows(packed, (0, 4, 100000), timestamps, "qubit-07", n)
        manifest = rs.save_sample_set(saved, tmp_path / "q", encoding)
        assert manifest == tmp_path / "q" / "manifest.json"
        loaded = load_sample_set(load_manifest(manifest))
        assert np.array_equal(loaded.packed, saved.packed)
        assert (loaded.sample_indices, loaded.timestamps) == ((0, 4, 100000), timestamps)
        assert (loaded.source_id, loaded.declared_length) == ("qubit-07", n)
        assert [serialize_bits(s, encoding) for s in saved] == [
            (tmp_path / "q" / e.path).read_bytes() for e in load_manifest(manifest).entries]

    def test_rejects_a_bad_source_id_before_writing(self, tmp_path):
        packed = np.packbits(np.ones((1, 16), dtype=np.uint8), axis=1)
        bad = SampleSet._from_rows(packed, (0,), (None,), "a/b", 16)
        with pytest.raises(ManifestError, match="source_id"):
            rs.save_sample_set(bad, tmp_path / "q")
        assert not (tmp_path / "q").exists()

    def test_write_experiment_builds_no_bit_sequence(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a BitSequence was built")

        monkeypatch.setattr(BitSequence, "_from_packed", refuse)
        plan = rs.unbiased_plan(num_qubits=2, samples_per_qubit=3, shots_per_sample=100)
        for encoding in rs.ENCODINGS:
            assert len(rs.write_experiment(plan, tmp_path / encoding, encoding)) == 2

    # Python 3.10's datetime.fromisoformat rejects a trailing Z.
    @pytest.mark.parametrize("text", ["2019-05-09T11:24:27Z", "2019-05-09T11:24:27"])
    def test_z_or_no_offset_reads_as_utc_in_manifests_and_plans(self, tmp_path, text):
        (tmp_path / "a.txt").write_bytes(b"10101010")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "declared_length": 8, "source_id": "s",
            "entries": [{"path": "a.txt", "encoding": "ascii01", "sample_index": 0,
                         "timestamp": text}]}))
        doc = rs.sim.plan_to_dict(rs.unbiased_plan(num_qubits=1, samples_per_qubit=2))
        doc["start_time"] = text
        (tmp_path / "plan.json").write_text(json.dumps(doc))
        expected = datetime(2019, 5, 9, 11, 24, 27, tzinfo=timezone.utc)
        assert load_manifest(tmp_path / "manifest.json").entries[0].timestamp == expected
        assert rs.load_plan(tmp_path / "plan.json").start_time == expected

    @pytest.mark.parametrize("value", [5, ["2019-01-01"]])
    def test_timestamp_must_be_a_string(self, tmp_path, value):
        (tmp_path / "manifest.json").write_text(json.dumps({
            "declared_length": 8, "source_id": "s",
            "entries": [{"path": "a.txt", "encoding": "ascii01", "sample_index": 0,
                         "timestamp": value}]}))
        with pytest.raises(ManifestError, match="timestamp must be a string"):
            load_manifest(tmp_path / "manifest.json")


WRITERS = ["write_report_json", "write_results_csv", "write_entropy_csv",
           "write_deviation_csv", "write_band_json", "save_manifest", "save_plan"]


@pytest.fixture(scope="module")
def writers():
    """Each public writer bound to a small output of its kind: path -> None."""
    plan = rs.unbiased_plan(num_qubits=1, samples_per_qubit=4, shots_per_sample=1024,
                            master_seed=5)
    [sample_set] = rs.generate_experiment(plan)
    report = rs.run_suite(sample_set)
    series = rs.entropy_series(sample_set)
    deviation = rs.deviation_series(concat_chronological(sample_set))
    manifest = Manifest(declared_length=8, source_id="s",
                        entries=(ManifestEntry("a.txt", "ascii01", 0),))
    return {
        "write_report_json": lambda path: rs.write_report_json(report, path),
        "write_results_csv": lambda path: rs.write_results_csv(report, path),
        "write_entropy_csv": lambda path: rs.write_entropy_csv(series, path),
        "write_deviation_csv": lambda path: rs.write_deviation_csv(deviation, path),
        "write_band_json": lambda path: rs.write_band_json(
            {sample_set.source_id: rs.ones_band(sample_set, 0.01)}, 0.01, path),
        "save_manifest": lambda path: save_manifest(manifest, path),
        "save_plan": lambda path: rs.save_plan(plan, path),
    }


@pytest.mark.parametrize("name", WRITERS)
def test_writer_commits_atomically_with_normal_mode(tmp_path, monkeypatch, writers, name):
    path = tmp_path / "out" / "file"
    old_umask = os.umask(0o022)
    try:
        writers[name](path)
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert os.listdir(path.parent) == ["file"]

    path.write_bytes(b"previous contents\n")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        writers[name](path)
    assert path.read_bytes() == b"previous contents\n"
    assert os.listdir(path.parent) == ["file"]


# The umask is process-wide: a writer that set it, even for a moment, would
# change the mode of a file that another thread creates meanwhile.
@pytest.mark.parametrize("name", WRITERS)
def test_writer_leaves_the_umask_alone(tmp_path, monkeypatch, writers, name):
    def umask(mask):
        raise AssertionError("os.umask called")

    old_umask = os.umask(0o022)
    try:
        monkeypatch.setattr(os, "umask", umask)
        writers[name](tmp_path / "file")
    finally:
        monkeypatch.undo()
        os.umask(old_umask)
    assert stat.S_IMODE((tmp_path / "file").stat().st_mode) == 0o644
    assert os.listdir(tmp_path) == ["file"]


class TestOnesBefore:
    """Segment popcounts against a cumulative sum over the unpacked bits."""

    @pytest.mark.parametrize("n", [8, 13, 1001, 8192])
    @pytest.mark.parametrize("block", [2, 3, 10, 128])
    def test_matches_cumsum_reference(self, n, block):
        rng = np.random.Generator(np.random.PCG64(n * block))
        bits = rng.integers(0, 2, size=(3, n), dtype=np.uint8)
        bits[1] = 1  # every segment full
        bits[2, : n // 2] = 0  # leading empty segments
        packed = np.packbits(bits, axis=1)
        expected = reference.ones_before(bits)
        positions = np.arange(0, n + 1, block)
        assert np.array_equal(ones_before(packed, positions), expected[:, positions])
        # repeated positions, the very start and the very end
        positions = np.array([0, 0, 1, n // 2, n // 2, n, n])
        assert np.array_equal(ones_before(packed, positions), expected[:, positions])

    # All-ones rows whose counts reach 2^8 and 2^16 and pass them by 8: the
    # cumulative counts take the narrowest unsigned type that holds a row's
    # ones.  The strides put positions inside words and bytes.
    @pytest.mark.parametrize("n", [248, 256, 264, 2 ** 16 - 8, 2 ** 16, 2 ** 16 + 8,
                                   2 ** 16 + 13])
    @pytest.mark.parametrize("stride", [1, 7, 64, 8192])
    def test_exact_at_count_type_edges(self, n, stride):
        packed = np.packbits(np.ones((2, n), dtype=np.uint8), axis=1)
        positions = np.concatenate([np.arange(0, n + 1, stride), [n]])
        expected = np.broadcast_to(positions, (2, len(positions)))
        assert np.array_equal(ones_before(packed, positions), expected)

    def test_one_segment_of_over_2_16_bits(self):
        n = 2 ** 16 + 4099
        rng = np.random.Generator(np.random.PCG64(16))
        bits = rng.integers(0, 2, size=(2, n), dtype=np.uint8)
        bits[1] = 1
        positions = np.array([n])
        result = ones_before(np.packbits(bits, axis=1), positions)
        assert result.tolist() == [[int(bits[0].sum())], [n]]

    def test_empty_segments(self):
        bits = np.random.Generator(np.random.PCG64(17)).integers(0, 2, size=(3, 1001),
                                                                 dtype=np.uint8)
        expected = reference.ones_before(bits)
        packed = np.packbits(bits, axis=1)
        for positions in ([], [0], [0, 0, 0], [500, 500, 1001, 1001], [1001] * 4):
            positions = np.array(positions, dtype=np.int64)
            assert np.array_equal(ones_before(packed, positions), expected[:, positions])

    @pytest.mark.parametrize("positions", [[-1], [0, 129], [129]])
    def test_positions_outside_the_row_are_rejected(self, positions):
        packed = np.full((1, 16), 0xFF, dtype=np.uint8)
        with pytest.raises(DomainError, match=r"positions must lie in \[0, 128\]"):
            ones_before(packed, positions)
        assert ones_before(packed, [0, 128]).tolist() == [[0, 128]]

    def test_strided_rows_equal_contiguous_ones(self):
        bits = np.random.Generator(np.random.PCG64(18)).integers(0, 2, size=(6, 640),
                                                                 dtype=np.uint8)
        packed = np.packbits(bits, axis=1)
        positions = np.arange(0, 513, 24)
        assert np.array_equal(ones_before(packed[::2, 8:72], positions),
                              ones_before(np.ascontiguousarray(packed[::2, 8:72]), positions))

    def test_deviation_shape_takes_bounded_memory(self):
        """One experiment-scale source's deviation series, 579 * 8192 bits at
        stride 8192: the cumulative word counts take half a byte per packed
        byte, where a cast of every byte's count to int64 took 9."""
        import tracemalloc

        width = 579 * 1024
        packed = np.random.Generator(np.random.PCG64(19)).integers(
            0, 256, size=(1, width), dtype=np.uint8)
        positions = np.arange(8192, 8 * width + 1, 8192)
        ones_before(packed, positions)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ones_before(packed, positions)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < width
