"""Test-side oracles for the segment kernels of ``repro.nn.segment``.

The library keeps one sum kernel (``_sum_data``) and one max kernel
(``_max_data``), both sorted-CSR ``reduceat`` reductions.  The slower
ground truths they are checked against live here:

- ``"dense"`` — one-hot matmul sum and a per-segment masked max
  (``O(segments * entries)``, obviously correct);
- ``"reference"`` — per-element ``np.add.at`` / ``np.maximum.at``
  scatters into a zero tensor (the unsorted, sequential-sum path).

:func:`segment_kernels` installs a named pair in place of the production
kernels with pytest's ``MonkeyPatch``; ``"fused"`` leaves the production
kernels in place.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.nn import segment


def _out_shape(values, layout):
    return (layout.num_segments,) + values.shape[1:]


def one_hot(segments, num_segments, dtype=np.float64):
    """``(entries, segments)`` matrix with a 1 at each entry's segment."""
    out = np.zeros((len(segments), num_segments), dtype=dtype)
    out[np.arange(len(segments)), segments] = 1.0
    return out


def dense_sum(values, layout):
    flat = values.reshape(layout.num_entries, int(np.prod(values.shape[1:])))
    summed = one_hot(layout.segments, layout.num_segments, values.dtype).T @ flat
    return summed.reshape(_out_shape(values, layout))


def dense_max(values, layout):
    out = np.zeros(_out_shape(values, layout), dtype=values.dtype)
    for s in np.unique(layout.segments):
        out[s] = values[layout.segments == s].max(axis=0)
    return out


def scatter_sum(values, layout):
    out = np.zeros(_out_shape(values, layout), dtype=values.dtype)
    np.add.at(out, layout.segments, values)
    return out


def scatter_max(values, layout):
    out = np.full(_out_shape(values, layout), -np.inf, dtype=values.dtype)
    np.maximum.at(out, layout.segments, values)
    out[~layout.nonempty] = 0.0
    return out


#: kernel set name -> (sum kernel, max kernel); None keeps production's
KERNELS = {
    "fused": (None, None),
    "reference": (scatter_sum, scatter_max),
    "dense": (dense_sum, dense_max),
}


@contextlib.contextmanager
def segment_kernels(name):
    """Run the segment ops on the named kernel pair for the block."""
    sum_kernel, max_kernel = KERNELS[name]
    with pytest.MonkeyPatch.context() as patch:
        if sum_kernel is not None:
            patch.setattr(segment, "_sum_data", sum_kernel)
        if max_kernel is not None:
            patch.setattr(segment, "_max_data", max_kernel)
        yield
