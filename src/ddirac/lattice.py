"""Finite lattice box and graded cochain storage.

A cochain stores all 16 component fields (one per multi-index slot) as a
single array of shape (16, N0, N1, N2, N3), structure-of-arrays over the
lattice: float64 for real-kind cochains, complex128 for complex-kind ones;
`Cochain.scalar_kind` reads the kind off that dtype.  Components a form does
not use are simply zero, so homogeneous and inhomogeneous forms share one
representation.

A real-kind cochain is checked for imaginary parts only where complex data
enters it (``from_components``, a caller's array); arithmetic on real-kind
cochains stays float64 and is never re-scanned.  Cochain files hold a real-kind
cochain's floats only, so loading one never builds complex data.  Loading
requires all five keys that `Cochain.save` writes.

One boundary rule holds everywhere: out-of-box reads are zero, which treats
the stored field as a compactly supported form on the infinite lattice, so
the algebraic operator identities are exact on the whole box.  Data that is
not compactly supported, such as a plane wave, satisfies a difference
equation only where each forward difference stays inside the box, so every
residual is judged on the depth-1 interior (`LatticeBox.interior_extents`).
`BoundaryPolicy` matters only to the chain oracle (`ddirac.chains`): under
``INTERIOR`` a chain that leaves the box is an error, under ``ZERO_EXTEND``
its off-box cells pair to zero.

On glibc, importing this module sets two malloc thresholds once, so that the
memory of a freed cochain stays in the process heap and the next cochain
reuses it without page faults (see `_keep_freed_memory`).
"""

from __future__ import annotations

import ctypes
import os
import stat
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .multiindex import (
    ALL_INDEXES,
    NSLOTS,
    SLOT_OF,
    as_string,
    from_string,
    validate,
)

#: Maximum imaginary part tolerated in a real-kind cochain.
REAL_IMAG_TOL = 1e-14

#: Version 3 writes a slot as the hex digits of its float64 bytes, where
#: version 2 wrote decimal floats; files of earlier versions are rejected.
SCHEMA_VERSION = 3

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

    @classmethod
    def from_components(cls, box, components: dict, scalar_kind="complex") -> "Cochain":
        """Build from a {multi-index: array-or-scalar} mapping."""
        out = np.zeros((NSLOTS,) + box.extents, dtype=np.complex128)
        for mi, values in components.items():
            out[SLOT_OF[validate(mi)]] = values
        return cls(box, out, scalar_kind)

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

    def max_abs(self, depth: int = 0) -> float:
        """Max component magnitude, optionally over the depth-d interior.
        NaN where that interior is empty: a check over no points must not
        read as a perfect 0.0."""
        view = self.data[interior_slices(depth)]
        if not view.size:
            return float("nan")
        # one slot-sized |.| temporary at a time; np.max keeps a NaN
        return float(np.max([np.abs(slot).max() for slot in view]))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The file format: each nonzero slot as one string, the hex digits of
        its little-endian float64 bytes in row-major order, N floats for the
        real kind and N interleaved (re, im) pairs for the complex kind.
        Non-finite data raises ValueError, as on load."""
        components: dict[str, dict[str, str]] = {}
        for slot, mi in enumerate(ALL_INDEXES):
            arr = self.data[slot]
            if not np.any(arr):
                continue
            if not np.isfinite(arr).all():
                raise ValueError(f"component {as_string(mi)!r}: non-finite values")
            components.setdefault(str(len(mi)), {})[as_string(mi)] = \
                arr.view(np.float64).astype("<f8", copy=False).tobytes().hex()
        return {"schema_version": SCHEMA_VERSION, "extents": list(self.box.extents),
                "scalar_kind": self.scalar_kind, "tilde": self.tilde,
                "components": components}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Cochain":
        """Inverse of `to_json_dict`; any document that is not a valid
        cochain raises ValueError."""
        try:
            if doc.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(f"schema_version must be {SCHEMA_VERSION}, "
                                 f"got {doc.get('schema_version')!r}")
            box = LatticeBox(tuple(doc["extents"]))
            scalar_kind = doc["scalar_kind"]
            data = np.zeros((NSLOTS,) + box.extents, dtype=_dtype_of(scalar_kind))
            # the floats of one slot: complex128 is itself interleaved (re, im),
            # and re + 1j*im would turn a -0.0 into 0.0
            slots = data.reshape(NSLOTS, -1).view(np.float64)
            nfloats = slots.shape[1]
            for degree, by_mi in doc["components"].items():
                for mi_string, digits in by_mi.items():
                    mi = from_string(mi_string)
                    if degree != str(len(mi)):
                        raise ValueError(f"component {mi_string!r} has degree "
                                         f"{len(mi)}, filed under {degree!r}")
                    if not isinstance(digits, str):
                        raise TypeError(f"component {mi_string!r}: expected a string "
                                        f"of hex digits, got {type(digits).__name__!r}")
                    try:
                        raw = bytes.fromhex(digits)
                    except ValueError as exc:
                        raise ValueError(f"component {mi_string!r}: {exc}") from None
                    # fromhex skips whitespace, so count the digits and the bytes
                    if not len(digits) == 2 * len(raw) == 16 * nfloats:
                        raise ValueError(f"component {mi_string!r}: expected {nfloats} "
                                         f"floats as {16 * nfloats} hex digits")
                    flat = np.frombuffer(raw, "<f8")
                    if not np.isfinite(flat).all():
                        raise ValueError(f"component {mi_string!r}: non-finite values")
                    slots[SLOT_OF[mi]] = flat
            tilde = doc["tilde"]
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed cochain document: {exc!r}") from exc
        if not isinstance(tilde, bool):
            raise ValueError(f"tilde must be true or false, got {tilde!r}")
        return cls(box, data, scalar_kind, tilde)

    def save(self, path):
        """Write compact JSON.  Non-finite data raises before `path` is opened,
        and a write that fails leaves the file empty."""
        # imported here, as in load: only file I/O needs orjson, and importing
        # it with the package adds ~5 ms to start-up and ~0.7 MB of memory
        import orjson

        blob = memoryview(orjson.dumps(self.to_json_dict()))
        size = len(blob)
        # An existing file is written over, then cut to length.  Truncating it
        # on open would make ext4 start writing the file to disk as it closes
        # (auto_da_alloc), and the next save of the same path would wait for
        # that write: one blocking wait on the disk per save.
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)  # not /dev/null or a pipe
            try:
                while blob:
                    blob = blob[os.write(fd, blob):]
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
        """Read a cochain file; malformed JSON, NaN, Infinity and overflowing
        numbers raise ``orjson.JSONDecodeError``, a ``ValueError``."""
        import orjson

        with open(path, "rb") as fh:
            return cls.from_json_dict(orjson.loads(fh.read()))


def random_cochain(box, rng, scalar_kind="complex", degrees=None) -> Cochain:
    """Seeded random form with components uniform in [-1, 1] (per part)."""
    if degrees is not None and not set(degrees) <= {0, 1, 2, 3, 4}:
        raise ValueError(f"degrees must be integers 0..4, got {set(degrees)}")
    out = Cochain.zeros(box, scalar_kind)
    for slot, mi in enumerate(ALL_INDEXES):
        if degrees is not None and len(mi) not in degrees:
            continue
        out.data[slot] = rng.uniform(-1.0, 1.0, box.extents)
        if scalar_kind == "complex":
            out.data[slot].imag = rng.uniform(-1.0, 1.0, box.extents)
    return out
