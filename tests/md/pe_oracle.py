"""The order-fixed O(N²) energy oracle the force tests share.

The pair list sums each row's energy left to right over its ascending
partners and then sums the rows; the dense ``compute_forces`` sums
256-row blocks pairwise.  :func:`prefix_oracle` runs the list's
arithmetic over every column, so a list holding every partner inside
the cutoff reproduces its energy bit for bit, and :func:`pe_tolerance`
bounds how far the dense scan's summation order may move it.
"""

from __future__ import annotations

import numpy as np

from repro.md.forces import _lj_rows, _prefix_pe


def prefix_oracle(positions, box, potential, dtype):
    """Every row against every column, in 256-row blocks of the shared
    row-by-column routine; each row's energy a strict left-to-right
    prefix sum (:func:`repro.md.forces._prefix_pe`), then one sum over
    the rows in the dtype.

    Returns the potential energy, the per-row interacting tallies and
    the energy scale ``0.5 * sum |e_ij|`` :func:`pe_tolerance` is
    relative to.
    """
    dtype = np.dtype(dtype)
    pos = np.asarray(positions, dtype=np.float64).astype(dtype)
    n = pos.shape[0]
    pe_rows = np.zeros(n, dtype=dtype)
    row_interacting = np.zeros(n, dtype=np.int64)
    scale = 0.0
    for start in range(0, n, 256):
        stop = min(start + 256, n)
        _, pair_pe, row_interacting[start:stop] = _lj_rows(
            pos[start:stop], pos, np.arange(start, stop), box, potential
        )
        pe_rows[start:stop] = _prefix_pe(pair_pe)
        scale += float(np.abs(pair_pe).sum(dtype=np.float64))
    return 0.5 * float(pe_rows.sum(dtype=dtype)), row_interacting, 0.5 * scale


def pe_tolerance(dtype, row_interacting, scale):
    """How far two summation orders of one evaluation's pair energies
    may put its potential energy apart.

    The oracle sums each row left to right (at most ``c_max`` nonzero
    terms) and then the rows pairwise; the dense scan sums 256-row
    blocks pairwise and then the blocks in turn.  Each order's
    first-order rounding error is at most its deepest chain of additions
    times ``eps`` times ``sum |e_ij|``, so the two differ by at most
    ``(c_max + 4 log2 N + 16) * eps * 0.5 * sum |e_ij|``.
    """
    n = len(row_interacting)
    terms = int(row_interacting.max(initial=0)) + 4 * np.log2(n) + 16
    return terms * float(np.finfo(dtype).eps) * scale
