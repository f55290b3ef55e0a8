"""Discrete differential operators on lattice forms.

All operators read out-of-box values as zero, so a stored field is treated as
a compactly supported form on the infinite lattice.  That makes the algebraic
identities (nilpotency, the star involution, the operator/stencil agreement)
exact everywhere on the stored box; identities involving a genuine forward
shift of the *input* (first differences of non-compact data, plane-wave
relations) hold on the interior region, which shrinks by one per application.

Every stencil operator and residual route runs on one slot engine,
`apply_stencil`: each output slot is summed and finished start to end by one
worker.  A slot of at least `SPLIT_BYTES` has its lines shared between the
calling thread and one short-lived second thread, where the process may run
on two CPUs; smaller slots run inline.  Either way each point sees the same
operations in the same order, so the results are bit-identical, and numpy's
error state follows the work into the second thread.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

from .lattice import Cochain
from .multiindex import (
    ALL_INDEXES,
    SLOT_OF,
    complement,
    enumerate_basis,
    levi_civita,
    validate,
)


def star_sign(mi) -> int:
    """Sign carried by the Hodge star on the component `mi`: the metric factor
    (-1 iff direction 0 is present) times the Levi-Civita permutation sign."""
    mi = validate(mi)
    q = -1 if 0 in mi else 1
    return q * levi_civita(mi)


def inner_sign(mi) -> int:
    """Lorentz sign of the component `mi` in the inner product, derived from
    the chain-level duality sign times the cochain star sign."""
    return levi_civita(mi) * star_sign(mi)


#: Per direction mu: the far face k_mu = N_mu - 1 of a slot.
_FACE = tuple((slice(None),) * mu + (-1,) for mu in range(4))


def accumulate(acc: np.ndarray, data: np.ndarray, terms) -> None:
    """Add one output slot's signed forward differences into `acc`.

    `acc` is a C-contiguous array of the lattice extents, `data` a
    C-contiguous (16, N0, N1, N2, N3) array that `acc` does not overlap, and
    each term (sign, mu, source multi-index) adds sign * (source at k + e_mu
    - source at k), reading the shifted value as zero beyond the box.

    On the flattened slot the shifted read is one contiguous run,
    ``acc[:n - stride] += src[stride:]``, with stride the flat step of k_mu.
    For mu >= 1 that run also pairs each far-face point (k_mu = N_mu - 1)
    with a wrapped-around neighbour, so the face is saved and set to zero
    before the add, which then can neither overflow nor warn there, and put
    back after it.  Each point sees the same adds in the same order as with
    per-axis slices.  A non-contiguous `acc` raises ValueError, since its
    flattened copy would take the adds instead.
    """
    if not acc.flags.c_contiguous:
        raise ValueError("accumulate needs a C-contiguous acc")
    flat = acc.reshape(-1)  # a view, since acc is C-contiguous
    sources = data.reshape(len(data), -1)
    n = flat.size
    shape, strides = acc.shape, acc.strides
    for sign, mu, src in terms:
        arr = sources[SLOT_OF[src]]
        if shape[mu] > 1:
            stride = strides[mu] // acc.itemsize
            if mu:
                face = acc[_FACE[mu]]
                saved = face.copy()
                face.fill(0)
            if sign > 0:
                flat[:n - stride] += arr[stride:]
            else:
                flat[:n - stride] -= arr[stride:]
            if mu:
                face[...] = saved
        if sign > 0:
            flat -= arr
        else:
            flat += arr


#: Result slots of at least this many bytes have their lines shared between
#: two threads.  Both DK routes, serial time over 2-thread time, by result
#: slot: 156 KiB 0.83-0.88x, 229 KiB 0.97-1.02x, 270 KiB 1.11x, 1 MiB
#: 1.65-1.77x; on smaller slots the two threads lose more to handing over
#: the interpreter lock than they gain.
SPLIT_BYTES = 256 * 2**10


def _workers() -> int:
    """Threads one stencil call may use: min(2, CPUs this process may run on)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity off Linux
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _run_lines(lines, data, out, buffers, finish) -> None:
    """Sum and finish each (slot, terms, second terms) line into `out`.
    `buffers` are the worker's own slots of `data`'s dtype: one to sum each
    line in before it is cast into `out`, where `out` has another dtype, and
    the scratch, each None where it is not needed."""
    sums, scratch = buffers
    for slot, terms, second in lines:
        acc = out[slot] if sums is None else sums
        acc.fill(0)  # here, not as a full-size np.zeros: on the worker, in cache
        accumulate(acc, data, terms)
        if second:
            scratch.fill(0)
            accumulate(scratch, data, second)
            acc += scratch
        if sums is not None:
            out[slot] = sums
        if finish is not None:
            finish(slot, out[slot], scratch)


def apply_stencil(data: np.ndarray, stencil, second=None, dtype=None,
                  finish=None) -> np.ndarray:
    """Sum of signed single-slot forward differences, one term list per
    output slot: {target multi-index: [(sign, direction mu, source
    multi-index), ...]}, with each sign +1 or -1 (see `accumulate`).

    The result has `data`'s shape and `dtype` (default `data`'s), +0.0 in
    slots no stencil names (so the Hestenes residuals' even slots).  Each
    named slot is one line, run start to end by one worker: its `stencil`
    terms, summed in place; then, if `second` has terms for it, those summed
    in a slot of scratch and added, so a sum that starts at +0.0 rounds as
    two whole-array sums added; then
    ``finish(slot, acc, scratch)``, where `acc` is the result's slot and
    `scratch` a slot of `data`'s dtype that the worker owns and no longer
    needs.  A line is summed in `data`'s dtype, so a real input's sums are
    cast into a complex result exactly as a real result would be.

    Where a result slot holds at least `SPLIT_BYTES` and `_workers()` is 2,
    alternate lines run on one short-lived thread, inside a copy of the
    caller's context, so numpy's error state goes with them; an exception
    there is raised here.  The result and the workers' slots are made here;
    the one full-size array is the result.
    """
    data = np.ascontiguousarray(data)
    out = np.empty(data.shape, dtype or data.dtype)
    second = second or {}
    lines = []
    for mi in ALL_INDEXES:
        if mi in stencil or mi in second:
            lines.append((SLOT_OF[mi], stencil.get(mi, ()), second.get(mi, ())))
        else:
            out[SLOT_OF[mi]] = 0
    split = out[0].nbytes >= SPLIT_BYTES and _workers() > 1
    buffers = [(np.empty_like(data[0]) if out.dtype != data.dtype else None,
                np.empty_like(data[0]) if second or finish else None)
               for _ in range(1 + split)]
    if not split:
        _run_lines(lines, data, out, buffers[0], finish)
        return out
    error = None

    def work():
        nonlocal error
        try:
            _run_lines(lines[1::2], data, out, buffers[1], finish)
        except BaseException as exc:  # handed to the caller, which raises it
            error = exc

    worker = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    worker.start()
    try:
        _run_lines(lines[0::2], data, out, buffers[0], finish)
    finally:
        worker.join()
    if error is not None:
        raise error
    return out


def delta_mu(form: Cochain, mu: int) -> Cochain:
    """Componentwise forward difference along direction mu."""
    if not 0 <= mu <= 3:
        raise ValueError(f"direction must be in 0..3, got {mu}")
    if form.box.extents[mu] < 2:
        raise ValueError(f"need at least 2 points along direction {mu}")
    stencil = {mi: [(+1, mu, mi)] for mi in ALL_INDEXES}
    return form.like(apply_stencil(form.data, stencil))


#: Coboundary stencil, from the exterior rule: the degree-(r+1) component J
#: collects, for each direction mu in J, the mu-difference of the component
#: J-without-mu with sign (-1)^(position of mu in J).
DC_STENCIL = {
    target: [(-1 if pos % 2 else 1, mu, tuple(d for d in target if d != mu))
             for pos, mu in enumerate(target)]
    for r_out in range(1, 5)
    for target in enumerate_basis(r_out)
}


def d_c(form: Cochain) -> Cochain:
    """Coboundary (discrete exterior derivative), degree r -> r+1.
    Degree-4 input contributes nothing."""
    return form.like(apply_stencil(form.data, DC_STENCIL))


def star(form: Cochain) -> Cochain:
    """Signed Hodge star: component mi at k maps to star_sign(mi) times the
    complementary component at k, with the tilde flag flipped."""
    out = np.zeros_like(form.data)
    for mi in ALL_INDEXES:
        out[SLOT_OF[complement(mi)]] = star_sign(mi) * form.data[SLOT_OF[mi]]
    return form.like(out, tilde=not form.tilde)


#: Codifferential stencils, one term list per output component:
#: {output multi-index: [(sign, difference direction, source multi-index), ...]}
CODIFF_STENCIL = {
    # from 1-forms
    (): [(+1, 0, (0,)), (-1, 1, (1,)), (-1, 2, (2,)), (-1, 3, (3,))],
    # from 2-forms
    (0,): [(+1, 1, (0, 1)), (+1, 2, (0, 2)), (+1, 3, (0, 3))],
    (1,): [(+1, 0, (0, 1)), (+1, 2, (1, 2)), (+1, 3, (1, 3))],
    (2,): [(+1, 0, (0, 2)), (-1, 1, (1, 2)), (+1, 3, (2, 3))],
    (3,): [(+1, 0, (0, 3)), (-1, 1, (1, 3)), (-1, 2, (2, 3))],
    # from 3-forms
    (0, 1): [(-1, 2, (0, 1, 2)), (-1, 3, (0, 1, 3))],
    (0, 2): [(+1, 1, (0, 1, 2)), (-1, 3, (0, 2, 3))],
    (0, 3): [(+1, 1, (0, 1, 3)), (+1, 2, (0, 2, 3))],
    (1, 2): [(+1, 0, (0, 1, 2)), (-1, 3, (1, 2, 3))],
    (1, 3): [(+1, 0, (0, 1, 3)), (+1, 2, (1, 2, 3))],
    (2, 3): [(+1, 0, (0, 2, 3)), (-1, 1, (1, 2, 3))],
    # from the 4-form
    (0, 1, 2): [(+1, 3, (0, 1, 2, 3))],
    (0, 1, 3): [(-1, 2, (0, 1, 2, 3))],
    (0, 2, 3): [(+1, 1, (0, 1, 2, 3))],
    (1, 2, 3): [(+1, 0, (0, 1, 2, 3))],
}


def codifferential(form: Cochain, method: str = "stencil") -> Cochain:
    """Codifferential, degree r -> r-1.

    Two independent routes: ``stencil`` evaluates the explicit per-component
    term lists, ``composite`` computes star(d_c(star(form))).  They agree
    componentwise; tests enforce it.
    """
    if method == "composite":
        return star(d_c(star(form)))
    if method != "stencil":
        raise ValueError(f"method must be 'stencil' or 'composite', got {method!r}")
    return form.like(apply_stencil(form.data, CODIFF_STENCIL))


def dirac_operator(form: Cochain) -> Cochain:
    """First-order operator d_c + codifferential.  Each codifferential slot
    is summed in one slot of scratch and added into the d_c result."""
    return form.like(apply_stencil(form.data, DC_STENCIL, CODIFF_STENCIL))


def inner_product(phi: Cochain, omega: Cochain) -> complex:
    """Lorentz inner product over the box: signed sum of component products
    with the second argument conjugated.  Components of different degree
    never mix, so homogeneous forms of different degree give 0."""
    if phi.box.extents != omega.box.extents:
        raise ValueError("lattice box extents mismatch")
    if phi.tilde != omega.tilde:
        raise ValueError("tilde flag mismatch")
    total = 0.0 + 0.0j
    for mi in ALL_INDEXES:
        slot = SLOT_OF[mi]
        total += inner_sign(mi) * np.sum(phi.data[slot] * np.conj(omega.data[slot]))
    return complex(total)


def green_defect(phi: Cochain, omega: Cochain) -> complex:
    """(d_c phi, omega) - (phi, codifferential omega); the discrete Green
    formula says this equals the chain-level boundary term."""
    return inner_product(d_c(phi), omega) - inner_product(phi, codifferential(omega))
