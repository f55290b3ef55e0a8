import json

import numpy as np
import pytest

from ddirac.lattice import BoundaryPolicy, Cochain, LatticeBox, random_cochain


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
