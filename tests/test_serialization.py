import errno
import json
import os
import re

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddirac.lattice import Cochain, LatticeBox, random_cochain
from ddirac.multiindex import NSLOTS, SLOT_OF


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


def test_zero_components_are_omitted(rng):
    box = LatticeBox((2, 2, 2, 2))
    w = random_cochain(box, rng, degrees={1})
    doc = w.to_json_dict()
    assert set(doc["components"]) == {"1"}
    assert set(doc["components"]["1"]) == {"0", "1", "2", "3"}
    assert doc["extents"] == [2, 2, 2, 2]


def _hex(values) -> str:
    """A component as the file holds it: the hex digits of the values'
    little-endian float64 bytes."""
    return np.asarray(values, dtype="<f8").tobytes().hex()


#: 1.0, 2.0, 3.0, 4.0 as little-endian float64 bytes, in hex.
ONE_TO_FOUR = "000000000000f03f" "0000000000000040" "0000000000000840" "0000000000001040"


def test_interleaved_layout_is_row_major():
    box = LatticeBox((1, 1, 1, 2))
    data = np.zeros((16,) + box.extents, dtype=np.complex128)
    data[0, 0, 0, 0, 0] = 1.0 + 2.0j
    data[0, 0, 0, 0, 1] = 3.0 + 4.0j
    doc = Cochain(box, data).to_json_dict()
    assert doc["components"]["0"][""] == ONE_TO_FOUR


def test_real_layout_is_row_major():
    box = LatticeBox((1, 1, 2, 2))
    data = np.zeros((16,) + box.extents)
    data[0, 0, 0] = [[1.0, 2.0], [3.0, 4.0]]
    doc = Cochain(box, data, "real").to_json_dict()
    assert doc["components"]["0"][""] == ONE_TO_FOUR


def test_bad_component_length_rejected(rng, tmp_path):
    w = random_cochain(LatticeBox((2, 2, 2, 2)), rng, degrees={0})
    doc = w.to_json_dict()
    doc["components"]["0"][""] = doc["components"]["0"][""][:-32]  # two floats short
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="component '': expected 32 floats as 512 hex"):
        Cochain.load(path)


def test_real_component_of_interleaved_length_rejected(rng):
    """A real-kind slot is N floats: N (re, im) pairs are the wrong length."""
    w = random_cochain(LatticeBox((1, 1, 1, 2)), rng, scalar_kind="real", degrees={0})
    doc = w.to_json_dict()
    doc["components"]["0"][""] = _hex([v for x in w.data[0].ravel() for v in (x, 0.0)])
    with pytest.raises(ValueError, match="expected 2 floats as 32 hex digits"):
        Cochain.from_json_dict(doc)


def test_nested_component_list_rejected(rng):
    """Any component that is not a string is rejected, a nested list too."""
    w = random_cochain(LatticeBox((1, 1, 1, 2)), rng, degrees={0})
    doc = w.to_json_dict()
    flat = w.data[0].ravel().view(np.float64).tolist()
    doc["components"]["0"][""] = [flat[:2], flat[2:]]
    with pytest.raises(ValueError, match="component '': expected a string of hex "
                                         "digits, got 'list'"):
        Cochain.from_json_dict(doc)


#: Each wrong component for the real 1x1x1x2 slot '01' (two floats), and the
#: reason it is rejected.
WRONG_COMPONENTS = {
    "string_list": (["1.5"], "expected a string of hex digits, got 'list'"),
    "bool_list": ([True], "expected a string of hex digits, got 'list'"),
    "float_and_bool": ([1.0, True], "expected a string of hex digits, got 'list'"),
    "number": (1.5, "expected a string of hex digits, got 'float'"),
    "null": (None, "expected a string of hex digits, got 'NoneType'"),
    "version_2_floats": ([1.5, -2.0], "expected a string of hex digits, got 'list'"),
    "not_hex": ("zz" + _hex([1.5, -2.0])[2:], "non-hexadecimal number found"),
    "padded": (" " + _hex([1.5, -2.0]) + " ", "expected 2 floats as 32 hex digits"),
    # the right length, but fromhex skips the spaces and decodes 15 bytes
    "inner_spaces": (_hex([1.5, -2.0])[:-2] + "  ", "expected 2 floats as 32 hex digits"),
    "odd_length": (_hex([1.5, -2.0])[:-1], "component '01': .*fromhex"),
}


@pytest.mark.parametrize("case", WRONG_COMPONENTS)
def test_wrong_component_type_or_text_rejected(case):
    """A component loads only as a string of exactly 16 hex digits per float:
    a number, a list, null or padded digits raise, naming the component."""
    value, reason = WRONG_COMPONENTS[case]
    doc = Cochain(LatticeBox((1, 1, 1, 2)), None, "real").to_json_dict()
    doc["components"] = {"2": {"01": value}}
    with pytest.raises(ValueError, match="component '01'") as info:
        Cochain.from_json_dict(doc)
    assert re.search(reason, str(info.value))
    # the same document with the slot's digits loads
    doc["components"]["2"]["01"] = _hex([1.5, -2.0])
    assert Cochain.from_json_dict(doc).component((0, 1)).ravel().tolist() == [1.5, -2.0]


MALFORMED = {
    '[1, 2]': "malformed .*'list' object has no attribute 'get'",
    '{"schema_version": 3}': "malformed .*KeyError\\('extents'\\)",
    '{"schema_version": 3, "extents": 4}': "malformed .*'int' object is not iterable",
    '{"schema_version": 3, "extents": [1, 1, 1, 1], "scalar_kind": "complex", '
    '"components": [1]}':
        "malformed .*'list' object has no attribute 'items'",
    '{"schema_version": 3, "extents": [1, 1, 1, 1], "scalar_kind": "complex", '
    '"components": {"0": {"": {}}}}':
        "malformed .*'dict'",
    '{"schema_version": 3, "extents": [1.9, 1, 1, true]}':
        "extents must be integers, got \\[1.9, 1, 1, True\\]",
    '{"schema_version": 3, "extents": [2, 2, 2, true]}': "extents must be integers",
    '{"schema_version": 3, "extents": [1, 1, 1, 1], "scalar_kind": "real", '
    '"components": {"1": {"": "000000000000e03f"}}}':
        "component '' has degree 0, filed under '1'",
    '{"schema_version": 3, "extents": [1, 1, 1, 1], "scalar_kind": "complex", '
    '"components": {}, "tilde": "no"}':
        "tilde must be true or false, got 'no'",
    # every key that `save` writes is required: none has a default
    '{"schema_version": 3, "extents": [2, 2, 2, 2]}': "malformed .*KeyError\\('scalar_kind'\\)",
    '{"schema_version": 3, "extents": [2, 2, 2, 2], "scalar_kind": "real", "tilde": false}':
        "malformed .*KeyError\\('components'\\)",
    '{"schema_version": 3, "extents": [2, 2, 2, 2], "scalar_kind": "real", "components": {}}':
        "malformed .*KeyError\\('tilde'\\)",
    '{"schema_version": 3, "extents": [1, 1, 1, 1], "scalar_kind": "quaternion"}':
        "scalar_kind must be 'real' or 'complex', got 'quaternion'",
}


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_document_rejected(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=MALFORMED[text]):
        Cochain.load(path)


def test_bad_multiindex_key_rejected(rng):
    doc = random_cochain(LatticeBox((1, 1, 1, 1)), rng).to_json_dict()
    doc["components"]["1"]["7"] = _hex([0.0, 0.0])
    with pytest.raises(ValueError):
        Cochain.from_json_dict(doc)


@pytest.mark.parametrize("version", [None, 0, 1, 2, "3"])
def test_other_schema_version_rejected(rng, version):
    doc = random_cochain(LatticeBox((1, 1, 1, 1)), rng).to_json_dict()
    if version is None:
        del doc["schema_version"]
    else:
        doc["schema_version"] = version
    with pytest.raises(ValueError, match="schema_version"):
        Cochain.from_json_dict(doc)


#: NaN payloads beside the default one: a signalling NaN, a negative NaN
#: and the largest payload, as little-endian float64 bytes in hex.
NAN_BITS = ["010000000000f07f", "000000000000f8ff", "ffffffffffffffff"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), None])
def test_non_finite_component_rejected(rng, bad):
    """The bit patterns of NaN and of +-inf are refused, and a null is no
    component at all."""
    w = random_cochain(LatticeBox((1, 1, 1, 2)), rng, degrees={0})
    doc = w.to_json_dict()
    flat = w.data[0].ravel().view(np.float64).copy()
    if bad is None:
        doc["components"]["0"][""] = None
        with pytest.raises(ValueError, match="component '': expected a string"):
            Cochain.from_json_dict(doc)
        return
    flat[1] = bad
    patterns = [_hex(flat)]
    if bad != bad:
        patterns += [_hex(flat[:1]) + nan + _hex(flat[2:]) for nan in NAN_BITS]
    for digits in patterns:
        doc["components"]["0"][""] = digits
        with pytest.raises(ValueError, match="component '': non-finite"):
            Cochain.from_json_dict(doc)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_save_writes_one_json_document(rng, tmp_path, kind):
    w = random_cochain(LatticeBox((2, 3, 1, 2)), rng, scalar_kind=kind, degrees={0, 2})
    path = tmp_path / "form.json"
    w.save(path)
    assert path.read_bytes() == orjson.dumps(w.to_json_dict())
    assert json.loads(path.read_text()) == w.to_json_dict()
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
             b'{"schema_version":3,"extents":[1,1,1,2],"scalar_kind":"real",'
             b'"tilde":false,"components":{'
             b'"0":{"":"000000000000f03f0000000000000080"},'
             b'"2":{"12":"ffffffffffffefff0100000000000080"},'
             b'"4":{"0123":"0100000000000000ffffffffffffef7f"}}}'),
    "complex": ({(): [complex(1.0, -0.0), complex(_TINY, _MAX)],
                 (0, 3): [complex(-_MAX, 0.0), complex(-0.0, -_TINY)]},
                b'{"schema_version":3,"extents":[1,1,1,2],"scalar_kind":"complex",'
                b'"tilde":false,"components":{'
                b'"0":{"":"000000000000f03f0000000000000080'
                b'0100000000000000ffffffffffffef7f"},'
                b'"2":{"03":"ffffffffffffefff0000000000000000'
                b'00000000000000800100000000000080"}}}'),
}


@pytest.mark.parametrize("kind", PINNED)
def test_file_bytes_are_pinned(tmp_path, kind):
    """The exact bytes of a version-3 file, so that any change to the
    encoder shows; they load back bit-identically."""
    slots, expected = PINNED[kind]
    box = LatticeBox((1, 1, 1, 2))
    data = np.zeros((NSLOTS,) + box.extents, dtype=np.float64 if kind == "real"
                    else np.complex128)
    for mi, values in slots.items():
        data[SLOT_OF[mi]] = values
    w = Cochain(box, data, kind)
    assert orjson.dumps(w.to_json_dict()) == expected
    path = tmp_path / "pinned.json"
    w.save(path)
    assert path.read_bytes() == expected
    for back in (Cochain.from_json_dict(orjson.loads(expected)), Cochain.load(path)):
        assert back.scalar_kind == kind
        assert back.data.tobytes() == w.data.tobytes()


def test_real_kind_file_loads_as_float64(rng, tmp_path):
    """A real-kind component is the slot's N floats in row-major order, with
    no imaginary parts."""
    w = random_cochain(LatticeBox((2, 2, 1, 2)), rng, scalar_kind="real", degrees={2})
    doc = w.to_json_dict()
    assert doc["scalar_kind"] == "real"
    digits = doc["components"]["2"]["01"]
    assert digits == _hex(w.component((0, 1)).ravel(order="C"))
    path = tmp_path / "real.json"
    path.write_text(json.dumps(doc))
    back = Cochain.load(path)
    assert back.scalar_kind == "real" and back.data.dtype == np.float64
    assert np.array_equal(back.data, w.data)
    assert back.to_json_dict() == doc


def _with_extremes(w):
    """`w` with the largest and smallest magnitudes and a signed zero."""
    flat = w.data[0].reshape(-1)
    flat[:5] = (1.7976931348623157e308, -1.7976931348623157e308, -5e-324, -0.0,
                2.2250738585072014e-308)
    return w


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_stdlib_written_file_reloads_bit_identically(rng, tmp_path, kind):
    """Files written by the stdlib encoder (', ' separators) still load
    exactly, +-max, a subnormal and -0.0 included."""
    w = _with_extremes(random_cochain(LatticeBox((2, 3, 1, 2)), rng, scalar_kind=kind,
                                      degrees={0, 3}))
    path = tmp_path / "stdlib.json"
    path.write_text(json.dumps(w.to_json_dict()))
    assert '", "' in path.read_text()
    back = Cochain.load(path)
    assert back.scalar_kind == kind and back.data.dtype == w.data.dtype
    assert back.data.tobytes() == w.data.tobytes()


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
    assert path.read_bytes() == orjson.dumps(w.to_json_dict())
    back = Cochain.load(path)
    expected = w.data.copy()
    for slot in range(NSLOTS):
        if not np.any(w.data[slot]):
            expected[slot] = 0.0  # an all-zero slot is omitted from the file
    assert back.scalar_kind == w.scalar_kind and back.data.dtype == w.data.dtype
    assert back.data.tobytes() == expected.tobytes()


#: Each token orjson refuses, with the reason it gives.
NON_FINITE_TOKENS = {
    "NaN": "unexpected character",
    "Infinity": "unexpected character",
    "-Infinity": "no digit after minus sign",
    "1e400": "number is infinity",
}


@pytest.mark.parametrize("token", NON_FINITE_TOKENS)
def test_non_finite_token_in_file_rejected(tmp_path, token):
    """A bare non-finite token in place of a component is not JSON."""
    path = tmp_path / "bad.json"
    text = ('{"schema_version": 3, "extents": [1, 1, 1, 1], '
            '"scalar_kind": "complex", "tilde": false, '
            f'"components": {{"0": {{"": {token}}}}}}}')
    path.write_text(text)
    with pytest.raises(ValueError, match=NON_FINITE_TOKENS[token]):
        Cochain.load(path)
    # the same document with the digits of 1.5 + 0j loads
    path.write_text(text.replace(token, f'"{_hex([1.5, 0.0])}"'))
    assert Cochain.load(path).data[0, 0, 0, 0, 0] == 1.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan])
def test_save_refuses_non_finite_data_and_writes_nothing(rng, tmp_path, bad):
    w = random_cochain(LatticeBox((2, 2, 1, 2)), rng, degrees={2})
    w.data[7, 1, 0, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        w.to_json_dict()
    path = tmp_path / "form.json"
    with pytest.raises(ValueError, match="non-finite"):
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
    assert path.read_bytes() == orjson.dumps(small.to_json_dict())
    random_cochain(LatticeBox((3, 3, 2, 2)), rng).save(path)
    small.save(path)
    assert path.read_bytes() == orjson.dumps(small.to_json_dict())
    assert Cochain.load(path).data.tobytes() == small.data.tobytes()


def test_failed_save_leaves_an_empty_file(rng, tmp_path, monkeypatch):
    """A save that stops part way must not leave its start in front of the
    end of the file it was writing over."""
    path = tmp_path / "form.json"
    path.write_bytes(b"x" * 100_000)
    w = random_cochain(LatticeBox((2, 2, 1, 2)), rng)
    written = []

    def half_then_disk_full(fd, data):
        if written:
            raise OSError(errno.ENOSPC, "No space left on device")
        written.append(len(data) // 2)
        return os.pwrite(fd, data[:written[0]], 0)

    monkeypatch.setattr(os, "write", half_then_disk_full)
    with pytest.raises(OSError, match="No space"):
        w.save(path)
    monkeypatch.undo()
    assert written and path.read_bytes() == b""


def test_save_to_a_device_writes_without_truncating(rng):
    random_cochain(LatticeBox((2, 2, 1, 2)), rng).save(os.devnull)


def test_load_of_a_real_form_allocates_one_full_size_array(rng, peak_over_input):
    """A real-kind document enters as float64: no complex buffer, and no
    full-size temporary beside the result."""
    w = random_cochain(LatticeBox((8, 8, 8, 8)), rng, scalar_kind="real",
                       degrees={0, 2, 4})
    doc = orjson.loads(orjson.dumps(w.to_json_dict()))
    assert Cochain.from_json_dict(doc).data.tobytes() == w.data.tobytes()
    assert peak_over_input(lambda _: Cochain.from_json_dict(doc), w) < 1.5
