import errno
import json
import os

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddirac.lattice import BoundaryPolicy, Cochain, LatticeBox, random_cochain
from ddirac.multiindex import NSLOTS


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
    w = random_cochain(LatticeBox((2, 2, 2, 2)), rng, scalar_kind="real", tilde=True)
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


def test_interleaved_layout_is_row_major():
    box = LatticeBox((1, 1, 1, 2))
    data = np.zeros((16,) + box.extents, dtype=np.complex128)
    data[0, 0, 0, 0, 0] = 1.0 + 2.0j
    data[0, 0, 0, 0, 1] = 3.0 + 4.0j
    doc = Cochain(box, data).to_json_dict()
    assert doc["components"]["0"][""] == [1.0, 2.0, 3.0, 4.0]


def test_load_respects_policy(rng, tmp_path):
    w = random_cochain(LatticeBox((2, 2, 2, 2)), rng)
    path = tmp_path / "p.json"
    w.save(path)
    back = Cochain.load(path, BoundaryPolicy.ZERO_EXTEND)
    assert back.box.policy is BoundaryPolicy.ZERO_EXTEND


def test_bad_component_length_rejected(rng, tmp_path):
    w = random_cochain(LatticeBox((2, 2, 2, 2)), rng, degrees={0})
    doc = w.to_json_dict()
    doc["components"]["0"][""] = doc["components"]["0"][""][:-2]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        Cochain.load(path)


def test_nested_component_list_rejected(rng):
    doc = random_cochain(LatticeBox((1, 1, 1, 2)), rng, degrees={0}).to_json_dict()
    flat = doc["components"]["0"][""]
    doc["components"]["0"][""] = [flat[:2], flat[2:]]
    with pytest.raises(ValueError, match="flat list"):
        Cochain.from_json_dict(doc)


@pytest.mark.parametrize("text", [
    '[1, 2]',
    '{"schema_version": 1}',
    '{"schema_version": 1, "extents": 4}',
    '{"schema_version": 1, "extents": [1, 1, 1, 1], "components": [1]}',
    '{"schema_version": 1, "extents": [1, 1, 1, 1], "components": {"0": {"": {}}}}',
    '{"schema_version": 1, "extents": [1, 1, 1, 1], "tilde": "no"}',
])
def test_malformed_document_rejected(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        Cochain.load(path)


def test_bad_multiindex_key_rejected(rng):
    doc = random_cochain(LatticeBox((1, 1, 1, 1)), rng).to_json_dict()
    doc["components"]["1"]["7"] = [0.0, 0.0]
    with pytest.raises(ValueError):
        Cochain.from_json_dict(doc)


@pytest.mark.parametrize("version", [None, 0, 2, "1"])
def test_other_schema_version_rejected(rng, version):
    doc = random_cochain(LatticeBox((1, 1, 1, 1)), rng).to_json_dict()
    if version is None:
        del doc["schema_version"]
    else:
        doc["schema_version"] = version
    with pytest.raises(ValueError, match="schema_version"):
        Cochain.from_json_dict(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), None])
def test_non_finite_component_rejected(rng, bad):
    doc = random_cochain(LatticeBox((1, 1, 1, 2)), rng, degrees={0}).to_json_dict()
    doc["components"]["0"][""][1] = bad
    with pytest.raises(ValueError, match="non-finite"):
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


def test_real_kind_file_loads_as_float64(rng, tmp_path):
    """The on-disk format keeps its zero imaginary parts for the real kind."""
    w = random_cochain(LatticeBox((2, 2, 1, 2)), rng, scalar_kind="real", degrees={2})
    doc = w.to_json_dict()
    assert doc["scalar_kind"] == "real"
    flat = doc["components"]["2"]["01"]
    assert flat[1::2] == [0.0] * (len(flat) // 2)
    path = tmp_path / "real.json"
    path.write_text(json.dumps(doc))
    back = Cochain.load(path)
    assert back.scalar_kind == "real" and back.data.dtype == np.float64
    assert np.array_equal(back.data, w.data)
    assert back.to_json_dict() == doc


def _with_extremes(w):
    """`w` with the largest and smallest magnitudes and a signed zero."""
    flat = w.data[0].reshape(-1)
    flat[:4] = (1.7976931348623157e308, -5e-324, -0.0, 2.2250738585072014e-308)
    return w


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_stdlib_written_file_reloads_bit_identically(rng, tmp_path, kind):
    """Files written by the stdlib encoder (', ' separators, '1e+308'
    exponents) still load exactly."""
    w = _with_extremes(random_cochain(LatticeBox((2, 3, 1, 2)), rng, scalar_kind=kind,
                                      degrees={0, 3}))
    path = tmp_path / "stdlib.json"
    path.write_text(json.dumps(w.to_json_dict()))
    assert "e+308" in path.read_text()
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


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_token_in_file_rejected(tmp_path, token):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1, "extents": [1, 1, 1, 1], '
                    '"scalar_kind": "complex", "tilde": false, '
                    f'"components": {{"0": {{"": [{token}, 0.0]}}}}}}')
    with pytest.raises(ValueError):
        Cochain.load(path)


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
