import pytest

from ddirac import multiindex as mi


def test_basis_counts_per_degree():
    assert [len(mi.enumerate_basis(r)) for r in range(5)] == [1, 4, 6, 4, 1]
    assert mi.NSLOTS == 16


def test_canonical_order_is_degree_then_lex():
    assert mi.ALL_INDEXES[0] == ()
    assert mi.ALL_INDEXES[1:5] == ((0,), (1,), (2,), (3,))
    assert mi.ALL_INDEXES[5] == (0, 1)
    assert mi.ALL_INDEXES[-1] == (0, 1, 2, 3)
    # slot lookup is the inverse of the canonical order
    for slot, index in enumerate(mi.ALL_INDEXES):
        assert mi.SLOT_OF[index] == slot


def test_enumerate_basis_rejects_bad_degree():
    with pytest.raises(ValueError):
        mi.enumerate_basis(5)
    with pytest.raises(ValueError):
        mi.enumerate_basis(-1)


def test_validate_rejects_unsorted_and_repeated():
    with pytest.raises(ValueError):
        mi.validate((1, 0))
    with pytest.raises(ValueError):
        mi.validate((2, 2))
    with pytest.raises(ValueError):
        mi.validate((4,))
    assert mi.validate([0, 3]) == (0, 3)


def test_complement_partitions_directions():
    for index in mi.ALL_INDEXES:
        comp = mi.complement(index)
        assert sorted(index + comp) == [0, 1, 2, 3]


def test_levi_civita_known_values():
    assert mi.levi_civita(()) == 1
    assert mi.levi_civita((0,)) == 1          # (0,1,2,3)
    assert mi.levi_civita((1,)) == -1         # (1,0,2,3)
    assert mi.levi_civita((0, 2)) == -1       # (0,2,1,3)
    assert mi.levi_civita((1, 3)) == -1       # (1,3,0,2): 3 inversions
    assert mi.levi_civita((0, 1, 2, 3)) == 1


def test_levi_civita_squares_to_one():
    for index in mi.ALL_INDEXES:
        assert mi.levi_civita(index) in (-1, 1)
        # complement pairing: sign(I, I^c) * sign(I^c, I) = (-1)^(r(4-r))
        r = len(index)
        expected = (-1) ** (r * (4 - r))
        assert mi.levi_civita(index) * mi.levi_civita(mi.complement(index)) == expected


def test_string_round_trip():
    for index in mi.ALL_INDEXES:
        assert mi.from_string(mi.as_string(index)) == index
    assert mi.as_string(()) == ""
    assert mi.as_string((0, 2, 3)) == "023"


@pytest.mark.parametrize("name", ["٠١", "０１", "10", "001", " 01", "01 ", "0 1", "e01",
                                  "4", "01234"])
def test_from_string_reads_only_canonical_names(name):
    """int() reads any Unicode decimal digit: were "٠١" read as (0, 1), a
    cochain file could name one slot twice."""
    with pytest.raises(ValueError, match="not a multi-index name"):
        mi.from_string(name)


def test_parity_slot_partition():
    assert set(mi.EVEN_SLOTS) | set(mi.ODD_SLOTS) == set(range(16))
    assert len(mi.EVEN_SLOTS) == len(mi.ODD_SLOTS) == 8
