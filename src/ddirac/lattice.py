"""Finite lattice box and graded cochain storage.

A cochain stores all 16 component fields (one per multi-index slot) as a
single array of shape (16, N0, N1, N2, N3), structure-of-arrays over the
lattice: float64 for real-kind cochains, complex128 for complex-kind ones;
`Cochain.scalar_kind` reads the kind off that dtype.  Components a form does
not use are simply zero, so homogeneous and inhomogeneous forms share one
representation.

A real-kind cochain is checked for imaginary parts only where complex data
enters it, a caller's array given to the constructor; arithmetic on real-kind
cochains stays float64 and is never re-scanned.  A cochain file is a one-line
JSON header and then the raw float64 bytes of each stored slot, which `save`
writes from the array and `load` reads into the result, so neither makes a
copy of the data; a real-kind file holds one float per point and loads
without complex data.  `load` requires all five header keys that `save`
writes.

One boundary rule holds everywhere: out-of-box reads are zero, which treats
the stored field as a compactly supported form on the infinite lattice, so
the algebraic operator identities are exact on the whole box.  Data that is
not compactly supported, such as a plane wave, satisfies a difference
equation only where each forward difference stays inside the box, so every
residual is judged on the depth-1 interior (`LatticeBox.interior_extents`).
`BoundaryPolicy` is read only by `chains.boundary(box=...)` and
`chains.pair`: under ``INTERIOR`` a chain that leaves the box is an error,
under ``ZERO_EXTEND`` its off-box cells pair to zero.

On glibc, importing this module sets two malloc thresholds once, so that the
memory of a freed cochain stays in the process heap and the next cochain
reuses it without page faults (see `_keep_freed_memory`).
"""

from __future__ import annotations

import ctypes
import json
import os
import stat
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .multiindex import (
    ALL_INDEXES,
    ALL_SLOTS,
    NSLOTS,
    SLOT_OF,
    as_string,
    from_string,
    validate,
)

#: Maximum imaginary part tolerated in a real-kind cochain.
REAL_IMAG_TOL = 1e-14

#: Version 4 files are a one-line JSON header and then the raw float64 bytes
#: of each stored slot; version 3 held each slot as hex digits in one JSON
#: document.  Files of earlier versions are rejected.
SCHEMA_VERSION = 4
#: The longest header line `load` reads: a file with no newline near its start
#: is refused without reading it all.  A header is ~150 bytes.
MAX_HEADER_BYTES = 64 * 2**10

#: glibc serves an allocation of at least M_MMAP_THRESHOLD bytes with a fresh
#: mmap and unmaps it on free, so each new cochain (2.65 MB at 12^4) is
#: faulted in page by page.  32 MiB is glibc's largest value on 64-bit; it
#: keeps cochains up to a 16^4 complex one (16.8 MB) in the heap.
MALLOC_MMAP_THRESHOLD = 32 * 2**20
#: glibc gives free memory at the top of the heap back to the OS once it
#: exceeds M_TRIM_THRESHOLD, and the next cochain faults it in again.
#: 256 MiB is above the working set of a 16^4 residual check (~110 MB).
MALLOC_TRIM_THRESHOLD = 256 * 2**20
#: mallopt parameter numbers, from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: glibc's own malloc variables; a user who sets one has tuned malloc already.
_MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_",
               "MALLOC_MMAP_MAX_")


def _keep_freed_memory() -> bool:
    """Set both malloc thresholds through glibc's `mallopt`; return whether
    it did.  Setting either one turns off glibc's dynamic threshold, which
    otherwise raises both as large blocks are freed, so both are set: the
    trim threshold alone leaves cochains on mmap, and the mmap threshold
    alone leaves the heap top trimmed.  A no-op off glibc, and where the user
    has set glibc's own MALLOC_*_ variables or ``glibc.malloc.*`` tunables."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not this name
        glibc = None
    if not glibc:
        return False
    if any(name in os.environ for name in _MALLOC_ENV) or \
            "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD)
    return True


_keep_freed_memory()


class BoundaryPolicy(Enum):
    INTERIOR = "interior"
    ZERO_EXTEND = "zeroextend"


@dataclass(frozen=True)
class LatticeBox:
    """Finite extents N0..N3 plus the chain oracle's boundary policy."""

    extents: tuple[int, int, int, int]
    policy: BoundaryPolicy = BoundaryPolicy.INTERIOR

    def __post_init__(self):
        ext = tuple(self.extents)
        # int() would truncate 2.7 to 2, and a bool is an int to Python
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   for n in ext):
            raise ValueError(f"extents must be integers, got {list(ext)}")
        if len(ext) != 4 or any(n < 1 for n in ext):
            raise ValueError(f"extents must be four positive integers, got {self.extents}")
        object.__setattr__(self, "extents", tuple(int(n) for n in ext))

    @property
    def npoints(self) -> int:
        return int(np.prod(self.extents))

    def interior_extents(self, depth: int = 1) -> tuple[int, ...]:
        """Extents of the region where `depth` nested forward shifts stay inside."""
        if depth < 0:
            raise ValueError(f"depth must be at least 0, got {depth}")
        return tuple(max(n - depth, 0) for n in self.extents)

    def contains(self, k) -> bool:
        return all(0 <= ki < n for ki, n in zip(k, self.extents))


def interior_slices(depth: int) -> tuple[slice, ...]:
    """Slices selecting the depth-d interior of a (16, N0..N3) data array."""
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    return (slice(None),) + tuple(slice(0, -depth) if depth else slice(None) for _ in range(4))


def _dtype_of(scalar_kind) -> type:
    if scalar_kind not in ("real", "complex"):
        raise ValueError(f"scalar_kind must be 'real' or 'complex', got {scalar_kind!r}")
    return np.float64 if scalar_kind == "real" else np.complex128


class Cochain:
    """Graded component field over a lattice box (immutable by convention)."""

    __slots__ = ("box", "data", "tilde")

    def __init__(self, box: LatticeBox, data=None, scalar_kind: str = "complex",
                 tilde: bool = False):
        dtype = _dtype_of(scalar_kind)
        shape = (NSLOTS,) + box.extents
        if data is None:
            data = np.zeros(shape, dtype=dtype)
        else:
            data = np.asarray(data)
            if data.shape != shape:
                raise ValueError(f"data shape {data.shape} != {shape}")
            if scalar_kind == "real" and np.iscomplexobj(data):
                scale = max(1.0, np.abs(data.real).max())
                # written so that a NaN imaginary part fails too
                if not np.abs(data.imag).max() <= REAL_IMAG_TOL * scale:
                    raise ValueError("real-kind cochain has nonzero imaginary parts")
                data = data.real
            data = np.ascontiguousarray(data, dtype=dtype)
        self.box = box
        self.data = data
        self.tilde = bool(tilde)

    @property
    def scalar_kind(self) -> str:
        return "complex" if self.data.dtype == np.complex128 else "real"

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, box, scalar_kind="complex") -> "Cochain":
        return cls(box, None, scalar_kind)

    def like(self, data, tilde=None) -> "Cochain":
        """A cochain on this box holding `data`, of the kind of its dtype."""
        kind = "complex" if np.iscomplexobj(data) else "real"
        return Cochain(self.box, data, kind, self.tilde if tilde is None else tilde)

    # -- component access ------------------------------------------------------

    def component(self, mi) -> np.ndarray:
        return self.data[SLOT_OF[validate(mi)]]

    # -- arithmetic ------------------------------------------------------------

    def _check_compatible(self, other: "Cochain"):
        if self.box.extents != other.box.extents:
            raise ValueError("lattice box extents mismatch")
        if self.tilde != other.tilde:
            raise ValueError("tilde flag mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        return self.like(self.data + other.data)

    def __sub__(self, other):
        self._check_compatible(other)
        return self.like(self.data - other.data)

    def __neg__(self):
        return self.like(-self.data)

    def __mul__(self, scalar):
        c = complex(scalar)
        if self.scalar_kind == "real" and c.imag == 0:
            return self.like(self.data * c.real)
        return self.like(self.data * c)

    __rmul__ = __mul__

    # -- norms -----------------------------------------------------------------

    def max_abs(self, depth: int = 0, slots=ALL_SLOTS) -> float:
        """Max component magnitude over `slots` (all 16 by default),
        optionally over the depth-d interior.  NaN where that interior is
        empty: a check over no points must not read as a perfect 0.0."""
        view = self.data[interior_slices(depth)]
        if not view.size:
            return float("nan")
        # one slot-sized |.| temporary at a time; np.max keeps a NaN
        return float(np.max([np.abs(view[slot]).max() for slot in slots]))

    # -- serialization ---------------------------------------------------------

    def save(self, path):
        """Write the cochain file: a one-line JSON header, then the little-endian
        float64 bytes of each nonzero slot, written from the array itself.
        Non-finite data raises before `path` is opened, and a write that fails
        leaves the file empty."""
        # any() counts NaN and a nonzero imaginary part as nonzero, -0.0 not
        slots = np.flatnonzero(self.data.reshape(NSLOTS, -1).any(axis=1)).tolist()
        for slot in slots:
            if not np.isfinite(self.data[slot]).all():
                raise ValueError(f"component {as_string(ALL_INDEXES[slot])!r}: "
                                 "non-finite values")
        header = json.dumps(
            {"schema_version": SCHEMA_VERSION, "extents": list(self.box.extents),
             "scalar_kind": self.scalar_kind, "tilde": self.tilde,
             "slots": [as_string(ALL_INDEXES[slot]) for slot in slots]},
            separators=(",", ":")).encode() + b"\n"
        # complex128 is itself interleaved (re, im); no copy on a little-endian host
        chunks = [header] + [memoryview(self.data[slot].view(np.float64).astype(
            "<f8", copy=False)).cast("B") for slot in slots]
        size = sum(len(chunk) for chunk in chunks)
        # An existing file is written over, then cut to length.  Truncating it
        # on open would make ext4 start writing the file to disk as it closes
        # (auto_da_alloc), and the next save of the same path would wait for
        # that write: one blocking wait on the disk per save.
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)  # not /dev/null or a pipe
            try:
                for chunk in chunks:
                    while chunk:
                        chunk = chunk[os.write(fd, chunk):]
                if regular:
                    os.ftruncate(fd, size)
            except BaseException:
                if regular:  # never the new file's start before the old one's end
                    os.ftruncate(fd, 0)
                raise
        finally:
            os.close(fd)

    @classmethod
    def load(cls, path) -> "Cochain":
        """Read a cochain file; each slot's bytes go straight into the result.
        A file that is not a valid cochain raises ValueError."""
        with open(path, "rb") as fh:
            line = fh.readline(MAX_HEADER_BYTES + 1)
            if len(line) > MAX_HEADER_BYTES:
                raise ValueError(
                    f"no header line in the first {MAX_HEADER_BYTES} bytes; files of "
                    f"schema_version {SCHEMA_VERSION} start with one, and earlier "
                    "versions are one line of JSON")
            try:
                doc = json.loads(line, parse_constant=_reject_constant)
                if doc.get("schema_version") != SCHEMA_VERSION:
                    raise ValueError(f"schema_version must be {SCHEMA_VERSION}, "
                                     f"got {doc.get('schema_version')!r}")
                box = LatticeBox(tuple(doc["extents"]))
                scalar_kind = doc["scalar_kind"]
                # little-endian, as in the file: the same dtype on such a host
                dtype = np.dtype(_dtype_of(scalar_kind)).newbyteorder("<")
                data = np.zeros((NSLOTS,) + box.extents, dtype=dtype)
                tilde = doc["tilde"]
                names = doc["slots"]
                if not isinstance(names, list):
                    raise TypeError(f"slots must be a list, got {type(names).__name__!r}")
            except (AttributeError, KeyError, TypeError) as exc:
                raise ValueError(f"malformed cochain document: {exc!r}") from exc
            if not isinstance(tilde, bool):
                raise ValueError(f"tilde must be true or false, got {tilde!r}")
            if not line.endswith(b"\n"):
                raise ValueError("the header line must end in a newline")
            order = []
            for name in names:
                slot = SLOT_OF[from_string(name)]
                if slot in order:
                    raise ValueError(f"component {name!r} is listed twice")
                order.append(slot)
            # a slot's floats: N for the real kind, N interleaved (re, im) pairs
            # for the complex kind
            floats = data.reshape(NSLOTS, -1).view("<f8")
            expected = len(order) * floats.itemsize * floats.shape[1]
            shape = f"{len(order)} slots × {floats.shape[1]} floats"
            got = 0
            for name, slot in zip(names, order):
                n = fh.readinto(floats[slot])
                got += n
                if n < floats[slot].nbytes:
                    raise ValueError(f"payload ends after {got} of {expected} bytes "
                                     f"({shape})")
                if not np.isfinite(floats[slot]).all():
                    raise ValueError(f"component {name!r}: non-finite values")
            if fh.read(1):
                raise ValueError(f"bytes follow the {expected}-byte payload ({shape})")
        return cls(box, data, scalar_kind, tilde)


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in the header")


def random_cochain(box, rng, scalar_kind="complex", degrees=None) -> Cochain:
    """Seeded random form with components uniform in [-1, 1] (per part)."""
    if degrees is not None:
        degrees = set(degrees)
        if not degrees <= {0, 1, 2, 3, 4}:
            raise ValueError(f"degrees must be integers 0..4, got {degrees}")
        if not degrees:
            raise ValueError("degrees must name at least one degree: an empty set "
                             "is the zero form")
    out = Cochain.zeros(box, scalar_kind)
    for slot, mi in enumerate(ALL_INDEXES):
        if degrees is not None and len(mi) not in degrees:
            continue
        out.data[slot] = rng.uniform(-1.0, 1.0, box.extents)
        if scalar_kind == "complex":
            out.data[slot].imag = rng.uniform(-1.0, 1.0, box.extents)
    return out
