"""Multi-indices labelling the 16 basis directions of the 4D cubical complex.

A multi-index is a strictly increasing tuple of directions drawn from
{0, 1, 2, 3}.  Degree r has C(4, r) of them; all 16 are laid out in a fixed
canonical order (by degree, lexicographic within a degree) which doubles as
the component-slot index of a cochain.
"""

from __future__ import annotations

import itertools

NDIRS = 4
DIRECTIONS = tuple(range(NDIRS))


def enumerate_basis(degree: int) -> list[tuple[int, ...]]:
    """All multi-indices of the given degree, lexicographically sorted."""
    if not 0 <= degree <= NDIRS:
        raise ValueError(f"degree must be in 0..{NDIRS}, got {degree}")
    return list(itertools.combinations(DIRECTIONS, degree))


#: Canonical slot order: degree 0 first, then 1, ..., 4; lexicographic inside.
ALL_INDEXES: tuple[tuple[int, ...], ...] = tuple(
    mi for r in range(NDIRS + 1) for mi in enumerate_basis(r)
)
NSLOTS = len(ALL_INDEXES)  # 16

SLOT_OF: dict[tuple[int, ...], int] = {mi: i for i, mi in enumerate(ALL_INDEXES)}

#: Slots grouped by degree parity.
EVEN_SLOTS = tuple(i for i, mi in enumerate(ALL_INDEXES) if len(mi) % 2 == 0)
ODD_SLOTS = tuple(i for i, mi in enumerate(ALL_INDEXES) if len(mi) % 2 == 1)


def validate(mi) -> tuple[int, ...]:
    """Normalize and check a multi-index (any iterable of directions)."""
    t = tuple(mi)
    if t not in SLOT_OF:
        raise ValueError(f"not a strictly increasing multi-index over 0..3: {mi!r}")
    return t


def complement(mi: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(d for d in DIRECTIONS if d not in mi)


def permutation_sign(seq) -> int:
    """Sign of the permutation `seq` of (0, ..., len-1), by inversion count."""
    inv = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inv % 2 else 1


def levi_civita(mi: tuple[int, ...]) -> int:
    """Sign of the permutation (mi, complement(mi)) of (0, 1, 2, 3)."""
    return permutation_sign(mi + complement(mi))


def as_string(mi: tuple[int, ...]) -> str:
    """Digit-string form used in serialized cochains: "", "0", "01", ..."""
    return "".join(str(d) for d in mi)


#: Each multi-index by its canonical name, the only names `from_string` reads.
_BY_STRING = {as_string(mi): mi for mi in ALL_INDEXES}


def from_string(s: str) -> tuple[int, ...]:
    """Inverse of `as_string`: only a canonical name parses, so "10", " 01"
    and other Unicode digits ("٠١") are errors, never a second name for a slot."""
    try:
        return _BY_STRING[s]
    except (KeyError, TypeError):  # TypeError: an unhashable non-string
        raise ValueError(f"not a multi-index name: {s!r}") from None
