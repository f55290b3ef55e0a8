import errno
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddirac.lattice import MAX_HEADER_BYTES, Cochain, LatticeBox, random_cochain
from ddirac.multiindex import ALL_INDEXES, NSLOTS, SLOT_OF, as_string


def _header(header: dict, **dumps) -> bytes:
    """A header line as any JSON encoder writes it; compact by default."""
    dumps.setdefault("separators", (",", ":"))
    return json.dumps(header, **dumps).encode() + b"\n"


def _floats(values) -> bytes:
    """Values as the payload holds them: little-endian float64 bytes."""
    return np.asarray(values, dtype="<f8").tobytes()


def _expected_file(w: Cochain, **dumps) -> bytes:
    """The file of `w`, built without ddirac's writer: the header, then the
    float64 bytes of each nonzero slot in canonical order."""
    slots = [slot for slot in range(NSLOTS) if np.any(w.data[slot])]
    header = {"schema_version": 4, "extents": list(w.box.extents),
              "scalar_kind": w.scalar_kind, "tilde": w.tilde,
              "slots": [as_string(ALL_INDEXES[slot]) for slot in slots]}
    return _header(header, **dumps) + b"".join(
        _floats(w.data[slot].view(np.float64)) for slot in slots)


def _split(raw: bytes) -> tuple[dict, bytes]:
    line, _, payload = raw.partition(b"\n")
    return json.loads(line), payload


def _real_1x1x1x2(slots, payload=_floats([1.5, -2.0])) -> bytes:
    """A real-kind 1x1x1x2 file (two floats per slot) listing `slots`."""
    return _header({"schema_version": 4, "extents": [1, 1, 1, 2], "scalar_kind": "real",
                    "tilde": False, "slots": slots}) + payload


def test_json_round_trip(rng, tmp_path):
    box = LatticeBox((2, 3, 2, 2))
    w = random_cochain(box, rng)
    path = tmp_path / "form.json"
    w.save(path)
    back = Cochain.load(path)
    assert back.box.extents == box.extents
    assert back.scalar_kind == w.scalar_kind
    assert back.tilde == w.tilde
    assert (back - w).max_abs() == 0.0


def test_round_trip_preserves_kind_and_tilde(rng, tmp_path):
    w = random_cochain(LatticeBox((2, 2, 2, 2)), rng, scalar_kind="real")
    w = w.like(w.data, tilde=True)
    path = tmp_path / "tilde.json"
    w.save(path)
    back = Cochain.load(path)
    assert back.scalar_kind == "real" and back.tilde


def test_zero_components_are_omitted(rng, tmp_path):
    box = LatticeBox((2, 2, 2, 2))
    w = random_cochain(box, rng, degrees={1})
    path = tmp_path / "form.json"
    w.save(path)
    header, payload = _split(path.read_bytes())
    assert header["slots"] == ["0", "1", "2", "3"]
    assert header["extents"] == [2, 2, 2, 2]
    assert len(payload) == 4 * box.npoints * 16  # (re, im) pairs of float64


#: 1.0, 2.0, 3.0, 4.0 as little-endian float64 bytes.
ONE_TO_FOUR = _floats([1.0, 2.0, 3.0, 4.0])


def test_interleaved_layout_is_row_major(tmp_path):
    box = LatticeBox((1, 1, 1, 2))
    data = np.zeros((16,) + box.extents, dtype=np.complex128)
    data[0, 0, 0, 0, 0] = 1.0 + 2.0j
    data[0, 0, 0, 0, 1] = 3.0 + 4.0j
    path = tmp_path / "form.json"
    Cochain(box, data).save(path)
    assert _split(path.read_bytes()) == ({"schema_version": 4, "extents": [1, 1, 1, 2],
                                          "scalar_kind": "complex", "tilde": False,
                                          "slots": [""]}, ONE_TO_FOUR)


def test_real_layout_is_row_major(tmp_path):
    box = LatticeBox((1, 1, 2, 2))
    data = np.zeros((16,) + box.extents)
    data[0, 0, 0] = [[1.0, 2.0], [3.0, 4.0]]
    path = tmp_path / "form.json"
    Cochain(box, data, "real").save(path)
    assert _split(path.read_bytes())[1] == ONE_TO_FOUR


def test_bad_component_length_rejected(rng, tmp_path):
    """A truncated file: the payload is two floats short."""
    w = random_cochain(LatticeBox((2, 2, 2, 2)), rng, degrees={0})
    path = tmp_path / "bad.json"
    path.write_bytes(_expected_file(w)[:-16])
    with pytest.raises(ValueError, match="payload ends after 240 of 256 bytes "
                                         r"\(1 slots × 32 floats\)"):
        Cochain.load(path)


def test_real_component_of_interleaved_length_rejected(rng, tmp_path):
    """A real-kind slot is N floats: N (re, im) pairs leave bytes over."""
    w = random_cochain(LatticeBox((1, 1, 1, 2)), rng, scalar_kind="real", degrees={0})
    path = tmp_path / "bad.json"
    path.write_bytes(_real_1x1x1x2(
        [""], _floats([v for x in w.data[0].ravel() for v in (x, 0.0)])))
    with pytest.raises(ValueError, match=r"bytes follow the 16-byte payload "
                                         r"\(1 slots × 2 floats\)"):
        Cochain.load(path)


@pytest.mark.parametrize("extra", [b"\n", b"\0", _floats([0.0])])
def test_bytes_after_the_payload_rejected(tmp_path, extra):
    path = tmp_path / "bad.json"
    path.write_bytes(_real_1x1x1x2(["01"]) + extra)
    with pytest.raises(ValueError, match="bytes follow the 16-byte payload"):
        Cochain.load(path)


def test_nested_component_list_rejected(tmp_path):
    """Any slot name that is not a string is rejected, a nested list too."""
    path = tmp_path / "bad.json"
    path.write_bytes(_real_1x1x1x2([["", "01"]], _floats([1.5, -2.0] * 2)))
    with pytest.raises(ValueError, match=re.escape("not a multi-index name: ['', '01']")):
        Cochain.load(path)


#: Each wrong name for the slot '01', in the `slots` list of a real 1x1x1x2
#: file: values of the wrong type, and names that are not the canonical
#: digits of a multi-index (other Unicode digits: `test_slot_listed_twice_rejected`).
WRONG_COMPONENTS = {
    "string_list": ["01"],
    "bool_list": [True],
    "float_and_bool": [1.0, True],
    "number": 1,
    "null": None,
    "version_2_floats": [1.5, -2.0],
    "padded": " 01 ",
    "inner_spaces": "0 1",
    "not_digits": "e01",
    "unsorted": "10",
}


@pytest.mark.parametrize("case", WRONG_COMPONENTS)
def test_wrong_component_type_or_text_rejected(tmp_path, case):
    """A slot is named only by its canonical ASCII digits: a number, a list,
    null or padding raise, naming the value."""
    value = WRONG_COMPONENTS[case]
    path = tmp_path / "bad.json"
    path.write_bytes(_real_1x1x1x2([value]))
    with pytest.raises(ValueError, match=re.escape(f"not a multi-index name: {value!r}")):
        Cochain.load(path)
    # the same file naming the slot '01' loads
    path.write_bytes(_real_1x1x1x2(["01"]))
    assert Cochain.load(path).component((0, 1)).ravel().tolist() == [1.5, -2.0]


@pytest.mark.parametrize("second", ["01", "٠١", "０１"])
def test_slot_listed_twice_rejected(tmp_path, second):
    """Two entries for one slot: the second must not silently win, whatever
    digits spell it."""
    path = tmp_path / "bad.json"
    path.write_bytes(_real_1x1x1x2(["01", second], _floats([1.5, -2.0, 7.0, 8.0])))
    with pytest.raises(ValueError, match="component '01' is listed twice"
                       if second == "01" else "not a multi-index name"):
        Cochain.load(path)


#: Header lines (a newline is added) and the error each one gives.
MALFORMED = {
    '': "Expecting value",
    'schema_version 4': "Expecting value",
    '[1, 2]': "malformed .*'list' object has no attribute 'get'",
    '{"schema_version": 4}': "malformed .*KeyError\\('extents'\\)",
    '{"schema_version": 4, "extents": 4}': "malformed .*'int' object is not iterable",
    '{"schema_version": 4, "extents": [1.9, 1, 1, true]}':
        "extents must be integers, got \\[1.9, 1, 1, True\\]",
    '{"schema_version": 4, "extents": [2, 2, 2, true]}': "extents must be integers",
    '{"schema_version": 4, "extents": [1, 1, 1, 1], "scalar_kind": "quaternion"}':
        "scalar_kind must be 'real' or 'complex', got 'quaternion'",
    '{"schema_version": 4, "extents": [1, 1, 1, 1], "scalar_kind": "complex", '
    '"tilde": "no", "slots": []}':
        "tilde must be true or false, got 'no'",
    '{"schema_version": 4, "extents": [1, 1, 1, 1], "scalar_kind": "complex", '
    '"tilde": false, "slots": {"0": [""]}}':
        "malformed .*slots must be a list, got 'dict'",
    # every key that `save` writes is required: none has a default
    '{"schema_version": 4, "extents": [2, 2, 2, 2]}': "malformed .*KeyError\\('scalar_kind'\\)",
    '{"schema_version": 4, "extents": [2, 2, 2, 2], "scalar_kind": "real", "slots": []}':
        "malformed .*KeyError\\('tilde'\\)",
    '{"schema_version": 4, "extents": [2, 2, 2, 2], "scalar_kind": "real", "tilde": false}':
        "malformed .*KeyError\\('slots'\\)",
}


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_document_rejected(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text + "\n")
    with pytest.raises(ValueError, match=MALFORMED[text]):
        Cochain.load(path)


def test_header_must_end_in_a_newline(tmp_path):
    """A header alone, without the newline: not a file `save` writes."""
    path = tmp_path / "bad.json"
    path.write_bytes(_real_1x1x1x2([], b"")[:-1])
    with pytest.raises(ValueError, match="header line must end in a newline"):
        Cochain.load(path)
    path.write_bytes(_real_1x1x1x2([], b""))
    assert not Cochain.load(path).data.any()


def _padded_header(length: int) -> bytes:
    """A real 1x1x1x2 file whose header line, padded with spaces inside the
    JSON object, is `length` bytes long with its newline."""
    raw = _real_1x1x1x2(["01"])
    spaces = length - raw.index(b"\n") - 1
    return b"{" + b" " * spaces + raw[1:]


def test_overlong_header_line_is_not_read_whole(tmp_path):
    """With no newline near its start, a file is refused after the first
    MAX_HEADER_BYTES + 1 bytes; a header of MAX_HEADER_BYTES is read."""
    path = tmp_path / "bad.json"
    path.write_bytes(_padded_header(MAX_HEADER_BYTES + 1))
    with pytest.raises(ValueError, match=f"no header line in the first {MAX_HEADER_BYTES} "
                                         "bytes; files of schema_version 4"):
        Cochain.load(path)
    path.write_bytes(_padded_header(MAX_HEADER_BYTES))
    assert Cochain.load(path).component((0, 1)).ravel().tolist() == [1.5, -2.0]


def test_bad_multiindex_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(_real_1x1x1x2(["7"]))
    with pytest.raises(ValueError, match="not a multi-index name: '7'"):
        Cochain.load(path)


@pytest.mark.parametrize("version", [None, 0, 1, 2, 3, "4", 5])
def test_other_schema_version_rejected(rng, tmp_path, version):
    w = random_cochain(LatticeBox((1, 1, 1, 1)), rng)
    header, payload = _split(_expected_file(w))
    if version is None:
        del header["schema_version"]
    else:
        header["schema_version"] = version
    path = tmp_path / "other.json"
    path.write_bytes(_header(header) + payload)
    with pytest.raises(ValueError, match=re.escape(
            f"schema_version must be 4, got {version!r}")):
        Cochain.load(path)


#: A version-3 file of the real 1x1x1x2 form with e01 = (1.5, -2.0): one line
#: of JSON with each slot as the hex digits of its bytes, and no newline.
VERSION_3 = ('{"schema_version":3,"extents":[1,1,1,2],"scalar_kind":"real",'
             '"tilde":false,"components":{"2":{"01":"'
             + _floats([1.5, -2.0]).hex() + '"}}}')


def test_version_3_file_rejected(tmp_path):
    """Version-3 files are not read, and no converter ships: a small one is
    read as a header and names its version, a large one hits the cap."""
    path = tmp_path / "v3.json"
    path.write_text(VERSION_3)
    with pytest.raises(ValueError, match="schema_version must be 4, got 3"):
        Cochain.load(path)
    long_line = VERSION_3.replace('"01":"', '"01":"' + "0" * MAX_HEADER_BYTES)
    path.write_text(long_line)
    with pytest.raises(ValueError, match="schema_version 4 start with one, and "
                                         "earlier versions are one line of JSON"):
        Cochain.load(path)


#: NaN payloads beside the default one: a signalling NaN, a negative NaN
#: and the largest payload, as little-endian float64 bytes.
NAN_BITS = [bytes.fromhex(h) for h in ("010000000000f07f", "000000000000f8ff",
                                       "ffffffffffffffff")]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), None])
def test_non_finite_component_rejected(rng, tmp_path, bad):
    """The bit patterns of NaN and of +-inf are refused, and a null is no
    slot name at all."""
    w = random_cochain(LatticeBox((1, 1, 1, 2)), rng, degrees={0})
    path = tmp_path / "bad.json"
    header, payload = _split(_expected_file(w))
    if bad is None:
        header["slots"] = [None]
        path.write_bytes(_header(header) + payload)
        with pytest.raises(ValueError, match="not a multi-index name: None"):
            Cochain.load(path)
        return
    flat = w.data[0].ravel().view(np.float64).copy()
    flat[1] = bad
    payloads = [_floats(flat)]
    if bad != bad:
        payloads += [_floats(flat[:1]) + nan + _floats(flat[2:]) for nan in NAN_BITS]
    for payload in payloads:
        path.write_bytes(_header(header) + payload)
        with pytest.raises(ValueError, match="component '': non-finite"):
            Cochain.load(path)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_save_writes_one_json_document(rng, tmp_path, kind):
    """One compact JSON header line, then the payload and nothing more."""
    w = random_cochain(LatticeBox((2, 3, 1, 2)), rng, scalar_kind=kind, degrees={0, 2})
    path = tmp_path / "form.json"
    w.save(path)
    raw = path.read_bytes()
    assert raw == _expected_file(w)
    header, payload = _split(raw)
    assert header["slots"] == ["", "01", "02", "03", "12", "13", "23"]
    assert b" " not in raw[:raw.index(b"\n")]
    assert len(payload) == 7 * w.data[0].nbytes
    back = Cochain.load(path)
    assert back.scalar_kind == kind
    assert back.data.dtype == w.data.dtype
    assert back.data.tobytes() == w.data.tobytes()


_MAX, _TINY = 1.7976931348623157e308, 5e-324  # largest float64, smallest subnormal

#: A 1x1x1x2 form of each kind, by slot, and its file, byte for byte.
#: 1.0 is 000000000000f03f, -0.0 0000000000000080, the smallest subnormal
#: 0100000000000000 and +max ffffffffffffef7f (little-endian float64 bytes).
PINNED = {
    "real": ({(): [1.0, -0.0], (1, 2): [-_MAX, -_TINY], (0, 1, 2, 3): [_TINY, _MAX]},
             b'{"schema_version":4,"extents":[1,1,1,2],"scalar_kind":"real",'
             b'"tilde":false,"slots":["","12","0123"]}\n'
             + bytes.fromhex("000000000000f03f0000000000000080"
                             "ffffffffffffefff0100000000000080"
                             "0100000000000000ffffffffffffef7f")),
    "complex": ({(): [complex(1.0, -0.0), complex(_TINY, _MAX)],
                 (0, 3): [complex(-_MAX, 0.0), complex(-0.0, -_TINY)]},
                b'{"schema_version":4,"extents":[1,1,1,2],"scalar_kind":"complex",'
                b'"tilde":false,"slots":["","03"]}\n'
                + bytes.fromhex("000000000000f03f0000000000000080"
                                "0100000000000000ffffffffffffef7f"
                                "ffffffffffffefff0000000000000000"
                                "00000000000000800100000000000080")),
}


@pytest.mark.parametrize("kind", PINNED)
def test_file_bytes_are_pinned(tmp_path, kind):
    """The exact bytes of a version-4 file, so that any change to the
    writer shows; they load back bit-identically."""
    slots, expected = PINNED[kind]
    box = LatticeBox((1, 1, 1, 2))
    data = np.zeros((NSLOTS,) + box.extents, dtype=np.float64 if kind == "real"
                    else np.complex128)
    for mi, values in slots.items():
        data[SLOT_OF[mi]] = values
    w = Cochain(box, data, kind)
    path = tmp_path / "pinned.json"
    w.save(path)
    assert path.read_bytes() == expected
    back = Cochain.load(path)
    assert back.scalar_kind == kind
    assert back.data.tobytes() == w.data.tobytes()


def test_real_kind_file_loads_as_float64(rng, tmp_path):
    """A real-kind slot is its N floats in row-major order, with no
    imaginary parts."""
    w = random_cochain(LatticeBox((2, 2, 1, 2)), rng, scalar_kind="real", degrees={2})
    path = tmp_path / "real.json"
    w.save(path)
    header, payload = _split(path.read_bytes())
    assert header["scalar_kind"] == "real"
    assert payload[:w.data[0].nbytes] == _floats(w.component((0, 1)).ravel(order="C"))
    back = Cochain.load(path)
    assert back.scalar_kind == "real" and back.data.dtype == np.float64
    assert np.array_equal(back.data, w.data)


def _with_extremes(w):
    """`w` with the largest and smallest magnitudes and a signed zero."""
    flat = w.data[0].reshape(-1)
    flat[:5] = (1.7976931348623157e308, -1.7976931348623157e308, -5e-324, -0.0,
                2.2250738585072014e-308)
    return w


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_stdlib_written_file_reloads_bit_identically(rng, tmp_path, kind):
    """A file written without ddirac (the stdlib encoder's ', ' separators,
    then `ndarray.tobytes`) loads exactly, +-max, a subnormal and -0.0
    included."""
    w = _with_extremes(random_cochain(LatticeBox((2, 3, 1, 2)), rng, scalar_kind=kind,
                                      degrees={0, 3}))
    path = tmp_path / "stdlib.json"
    path.write_bytes(_expected_file(w, separators=None))
    assert b'", "' in path.read_bytes()
    back = Cochain.load(path)
    assert back.scalar_kind == kind and back.data.dtype == w.data.dtype
    assert back.data.tobytes() == w.data.tobytes()


def test_file_reads_by_hand(rng, tmp_path):
    """The README's recipe: the header by `json`, the payload by numpy."""
    w = random_cochain(LatticeBox((2, 3, 1, 2)), rng, degrees={1, 4})
    path = tmp_path / "form.json"
    w.save(path)
    with open(path, "rb") as f:
        h = json.loads(f.readline())
        a = np.fromfile(f, "<f8")
    slots = a.view(np.complex128).reshape((len(h["slots"]),) + tuple(h["extents"]))
    for name, values in zip(h["slots"], slots):
        assert np.array_equal(values, w.component(tuple(map(int, name))))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _finite_forms(draw):
    """Forms with arbitrary finite float64 entries, some slots all ±0."""
    extents = draw(st.tuples(*[st.integers(1, 2)] * 4))
    kind = draw(st.sampled_from(["real", "complex"]))
    shape = (NSLOTS,) + extents
    data = draw(hnp.arrays(np.float64, shape, elements=_FINITE))
    if kind == "complex":
        real = data
        data = np.empty(shape, np.complex128)
        data.real = real
        data.imag = draw(hnp.arrays(np.float64, shape, elements=_FINITE))
    for slot in draw(st.sets(st.integers(0, NSLOTS - 1))):
        data[slot] = draw(st.sampled_from([0.0, -0.0]))
    return Cochain(LatticeBox(extents), data, kind)


@given(_finite_forms())
@settings(max_examples=60, deadline=None)
def test_finite_forms_reload_bit_identically(tmp_path_factory, w):
    path = tmp_path_factory.mktemp("forms") / "form.json"
    w.save(path)
    assert path.read_bytes() == _expected_file(w)
    back = Cochain.load(path)
    expected = w.data.copy()
    for slot in range(NSLOTS):
        if not np.any(w.data[slot]):
            expected[slot] = 0.0  # an all-zero slot is omitted from the file
    assert back.scalar_kind == w.scalar_kind and back.data.dtype == w.data.dtype
    assert back.data.tobytes() == expected.tobytes()


#: Each token the header refuses, with the reason it gives.
NON_FINITE_TOKENS = {
    "NaN": "non-finite number NaN in the header",
    "Infinity": "non-finite number Infinity in the header",
    "-Infinity": "non-finite number -Infinity in the header",
    "1e400": "extents must be integers, got \\[inf, 1, 1, 2\\]",
}


@pytest.mark.parametrize("token", NON_FINITE_TOKENS)
def test_non_finite_token_in_file_rejected(tmp_path, token):
    """A bare non-finite token in the header is refused, where Python's json
    module would read it as a float."""
    path = tmp_path / "bad.json"
    raw = _real_1x1x1x2(["01"])
    path.write_bytes(raw.replace(b'"extents":[1,', f'"extents":[{token},'.encode()))
    with pytest.raises(ValueError, match=NON_FINITE_TOKENS[token]):
        Cochain.load(path)
    # the same file with the extent 1 loads
    path.write_bytes(raw)
    assert Cochain.load(path).data[SLOT_OF[(0, 1)], 0, 0, 0, 1] == -2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan])
def test_save_refuses_non_finite_data_and_writes_nothing(rng, tmp_path, bad):
    w = random_cochain(LatticeBox((2, 2, 1, 2)), rng, degrees={2})
    w.data[7, 1, 0, 0, 1] = bad
    path = tmp_path / "form.json"
    with pytest.raises(ValueError, match="component '03': non-finite"):
        w.save(path)
    assert not path.exists()
    path.write_text("earlier contents")
    with pytest.raises(ValueError, match="non-finite"):
        w.save(path)
    assert path.read_text() == "earlier contents"


def test_save_over_a_longer_file_leaves_only_the_new_bytes(rng, tmp_path):
    path = tmp_path / "form.json"
    small = random_cochain(LatticeBox((2, 2, 1, 2)), rng, scalar_kind="real", degrees={2})
    path.write_bytes(b"x" * 100_000)
    small.save(path)
    assert path.read_bytes() == _expected_file(small)
    random_cochain(LatticeBox((3, 3, 2, 2)), rng).save(path)
    small.save(path)
    assert path.read_bytes() == _expected_file(small)
    assert Cochain.load(path).data.tobytes() == small.data.tobytes()


def test_failed_save_leaves_an_empty_file(rng, tmp_path, monkeypatch):
    """A save that stops part way must not leave its start in front of the
    end of the file it was writing over."""
    path = tmp_path / "form.json"
    path.write_bytes(b"x" * 100_000)
    w = random_cochain(LatticeBox((2, 2, 1, 2)), rng)
    written = []

    def header_then_disk_full(fd, data):
        if written:  # the header went out whole; the payload does not
            raise OSError(errno.ENOSPC, "No space left on device")
        written.append(len(data))
        return os.pwrite(fd, data, 0)

    monkeypatch.setattr(os, "write", header_then_disk_full)
    with pytest.raises(OSError, match="No space"):
        w.save(path)
    monkeypatch.undo()
    assert written and path.read_bytes() == b""


def test_save_to_a_device_writes_without_truncating(rng):
    random_cochain(LatticeBox((2, 2, 1, 2)), rng).save(os.devnull)


def test_save_allocates_no_copy_of_the_data(rng, tmp_path, peak_over_input):
    """Each slot's bytes go to the file from the array itself."""
    w = random_cochain(LatticeBox((8, 8, 8, 8)), rng, scalar_kind="real",
                       degrees={0, 2, 4})
    path = tmp_path / "form.json"
    assert peak_over_input(lambda form: form.save(path), w) < 0.1
    assert path.read_bytes() == _expected_file(w)


def test_load_of_a_real_form_allocates_one_full_size_array(rng, tmp_path,
                                                           peak_over_input):
    """A real-kind file enters as float64, read straight into the result: no
    complex buffer, and no copy of the file beside it."""
    w = random_cochain(LatticeBox((8, 8, 8, 8)), rng, scalar_kind="real",
                       degrees={0, 2, 4})
    path = tmp_path / "form.json"
    w.save(path)
    assert Cochain.load(path).data.tobytes() == w.data.tobytes()
    assert peak_over_input(lambda _: Cochain.load(path), w) < 1.1


def test_payload_follows_the_listed_order(tmp_path):
    """`save` lists slots in canonical order, but a file may list them in any
    order: the payload holds them in the order listed."""
    path = tmp_path / "form.json"
    path.write_bytes(_real_1x1x1x2(["02", "01"], _floats([7.0, 8.0, 1.5, -2.0])))
    back = Cochain.load(path)
    assert back.component((0, 1)).ravel().tolist() == [1.5, -2.0]
    assert back.component((0, 2)).ravel().tolist() == [7.0, 8.0]
