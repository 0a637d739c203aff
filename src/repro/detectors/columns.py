"""Columnar (struct-of-arrays) view of a rating dataset.

:class:`~repro.types.RatingStream` already stores each product's ratings
as numpy arrays, but a dataset is still a *collection* of per-product
objects: any pass over all products pays one Python round-trip per
stream.  :class:`StreamColumns` flattens a whole dataset into contiguous
concatenated value and time columns, indexed by an offsets array.  The
joint detector hands those columns, with one ``(start, stop)`` row range
per stream, to the batch curve builders of :mod:`repro.signal.curves`
(MC window means, HC clustering, ME AR solves), which slice every
product out of one allocation.

It holds only what detection reads.  The extraction is read-only and
per-analysis, leaving the public ``RatingStream`` representation
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.types import RatingDataset

__all__ = ["StreamColumns", "extract_columns"]


@dataclass(frozen=True)
class StreamColumns:
    """Contiguous columnar arrays for all streams of one dataset.

    Attributes
    ----------
    product_ids:
        Products in dataset iteration order; stream ``i`` occupies rows
        ``offsets[i]:offsets[i + 1]`` of every column.
    times, values:
        Concatenated per-rating columns (float).
    offsets:
        ``(num_streams + 1,)`` int array of stream boundaries.
    """

    product_ids: Tuple[str, ...]
    times: np.ndarray
    values: np.ndarray
    offsets: np.ndarray

    @property
    def num_streams(self) -> int:
        """Number of product streams in the dataset."""
        return len(self.product_ids)

    @property
    def total_ratings(self) -> int:
        """Total ratings across all streams."""
        return int(self.times.size)

    @property
    def lengths(self) -> np.ndarray:
        """Per-stream rating counts, aligned with ``product_ids``."""
        return np.diff(self.offsets)


def extract_columns(dataset: RatingDataset) -> StreamColumns:
    """Flatten ``dataset`` into one :class:`StreamColumns`.

    Streams appear in dataset iteration order (insertion order, which is
    what every detection pass iterates in), so downstream per-stream
    results can be zipped back against ``dataset`` directly.
    """
    product_ids = tuple(dataset)
    streams = [dataset[pid] for pid in product_ids]
    lengths = np.fromiter(
        (len(s) for s in streams), dtype=np.int64, count=len(streams)
    )
    offsets = np.zeros(len(streams) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    if offsets[-1]:
        times = np.concatenate([s.times for s in streams])
        values = np.concatenate([s.values for s in streams])
    else:
        times = np.empty(0, dtype=float)
        values = np.empty(0, dtype=float)
    for column in (times, values, offsets):
        column.setflags(write=False)
    return StreamColumns(
        product_ids=product_ids, times=times, values=values, offsets=offsets
    )
