"""Permutation oracles for the Batcher comparator schedule.

:class:`VectorSortNetwork` reproduces the exact comparator schedule of
a :class:`repro.core.sorting.OddEvenMergesortNetwork`.  Its output is
not the sorted keys but the *permutation* a sequence underwent, so the
replay engine can materialize requests directly in network output
order.  The engine sorts each flush as it happens with
:meth:`~VectorSortNetwork.sequence_permutation` (one C ``sorted`` call
when the keys are distinct).  :meth:`~VectorSortNetwork.permutations`
runs the schedule over a whole batch of sequences at once -- keys in a
``(width, sequences)`` int64 matrix, every comparator a masked column
swap -- and no longer feeds the engine: it remains a batch oracle
that the tests pin against the comparator walk, and the name
``perfbench/tracing.py`` wraps as ``kernels.sort``.

Exactness notes (these are the properties the differential tests pin):

* The network is **not** a stable sort.  Compare-exchange swaps on
  strict key ``>`` only, so *adjacent* equal keys never swap, but a
  comparator spanning other wires can reorder equal keys (e.g. width-4
  keys ``[3, 3, 2, 3]``).  A plain ``argsort`` therefore only matches
  when a sequence's keys are all distinct; otherwise the comparator
  walk itself is the specification.  The index matrix here rides along
  with the key matrix through the same masked swaps, which reproduces
  the object engine's tie behaviour exactly.

* Running the **full** schedule equals running the stage-select prefix
  for every padded flush.  Stages ``1..s`` only contain comparators
  within aligned ``2**s`` blocks, so the ``count`` valid keys (wires
  ``0..count-1``, all inside block 0) are sorted within block 0 after
  ``required_stages(count)`` stages, with maximal ``INVALID_KEY``
  padding behind them.  Every later comparator then compares either
  two sorted block-0 wires (no strict ``>``) or a block-0 wire against
  padding (never ``>`` than ``INVALID_KEY``), so no further swap fires.
  Both oracles therefore always run the full schedule; stage
  select remains purely a timing/statistics effect, accounted by
  :meth:`repro.core.pipeline.PipelinedSortingNetwork.emit_sorted`.

* The **two-phase presort path** (``presort_width=m``) computes the
  exact same permutations with a fraction of the Python-level loop
  iterations: the first ``log2(m)`` merge stages of the n-wide
  schedule are k = n/m independent m-wide Batcher sorts on aligned
  blocks (same comparators, same within-block firing order), so the
  presort runs as *one* batched m-wide pass over the key matrix
  reshaped to ``(sequences*k, m)`` -- each masked swap covers k blocks
  at once -- and only the merge-tree stages loop at full width.  At
  n=128 that cuts the comparator loop from 1471 iterations to
  63 + the merge tail, keeping the sort phase sub-linear in window
  width.  ``test_wide_sortnet.py`` pins both the schedule
  decomposition and the permutation equality (duplicates included).
"""

from __future__ import annotations

import numpy as np

from repro.core.address import INVALID_KEY
from repro.core.sorting import OddEvenMergesortNetwork, compiled_network


def _masked_swaps(
    work: np.ndarray, idx: np.ndarray, pairs
) -> None:
    """Run a comparator list over wire-major key/index matrices in place."""
    for lo, hi in pairs:
        a = work[lo]
        b = work[hi]
        mask = a > b
        if not mask.any():
            continue
        new_lo = np.where(mask, b, a)
        work[hi] = np.where(mask, a, b)
        work[lo] = new_lo
        ia = idx[lo]
        ib = idx[hi]
        new_ia = np.where(mask, ib, ia)
        idx[hi] = np.where(mask, ia, ib)
        idx[lo] = new_ia


class VectorSortNetwork:
    """Batched permutation oracle for one sorting network.

    ``presort_width`` engages the two-phase evaluation path (see the
    module docstring); it must divide the network width and match the
    architecture's presorted-run width.  Results are bit-identical
    with and without it.
    """

    def __init__(
        self,
        network: OddEvenMergesortNetwork,
        presort_width: int | None = None,
    ):
        self.network = network
        self.width = network.width
        self._full_pairs = network.prefix_pairs(network.num_stages)
        self.presort_width = presort_width
        if presort_width is not None:
            if (
                presort_width < 2
                or self.width % presort_width
                or presort_width >= self.width
            ):
                raise ValueError(
                    f"presort_width {presort_width} must divide and be "
                    f"smaller than network width {self.width}"
                )
            presort_net = compiled_network(presort_width)
            self._presort_pairs = presort_net.prefix_pairs()
            #: Merge-tree tail: the n-wide stages after the presorted
            #: prefix, flattened in firing order.
            self._tree_pairs = tuple(
                comparator
                for stage in network.stages[presort_net.num_stages :]
                for step in stage
                for comparator in step
            )

    def permutations(
        self, keys: np.ndarray, stages: int | None = None
    ) -> np.ndarray:
        """Run the comparator schedule over a ``(sequences, width)`` key
        matrix; return the ``(sequences, width)`` permutation matrix.

        Row ``g`` of the result holds, for each output position, the
        input position whose key ended up there.  Short sequences must
        be padded with :data:`~repro.core.address.INVALID_KEY`; their
        valid input positions occupy the leading output slots.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 2 or keys.shape[1] != self.width:
            raise ValueError(
                f"expected a (sequences, {self.width}) key matrix, "
                f"got shape {keys.shape}"
            )
        if stages is None and self.presort_width is not None:
            return self._two_phase_permutations(keys)
        pairs = (
            self._full_pairs
            if stages is None
            else self.network.prefix_pairs(stages)
        )
        # Wire-major layout: each wire's keys are one contiguous row,
        # so a comparator touches two rows instead of two strided
        # columns.
        work = keys.T.copy()
        idx = np.empty(work.shape, dtype=np.int64)
        idx[:] = np.arange(self.width, dtype=np.int64)[:, None]
        _masked_swaps(work, idx, pairs)
        return idx.T

    def _two_phase_permutations(self, keys: np.ndarray) -> np.ndarray:
        """Full-schedule permutations via the presort + merge-tree split.

        Bit-identical to the generic loop: presort comparators fire in
        the same within-block order the n-wide schedule's leading
        stages prescribe, and blocks never interact before the merge
        tree (every leading-stage comparator is block-confined).
        """
        sequences = keys.shape[0]
        m = self.presort_width
        runs = self.width // m
        # Phase 1: one batched m-wide pass over all blocks of all
        # sequences -- (sequences*runs, m) wire-major.
        blocks = keys.reshape(sequences * runs, m).T.copy()
        block_idx = np.empty(blocks.shape, dtype=np.int64)
        block_idx[:] = np.arange(m, dtype=np.int64)[:, None]
        _masked_swaps(blocks, block_idx, self._presort_pairs)
        # Globalize: block r of a sequence starts at wire r*m.
        offsets = (
            np.arange(sequences * runs, dtype=np.int64) % runs
        ) * m
        work = blocks.T.reshape(sequences, self.width).T.copy()
        idx = (
            (block_idx + offsets[None, :])
            .T.reshape(sequences, self.width)
            .T.copy()
        )
        # Phase 2: the merge-tree tail at full width.
        _masked_swaps(work, idx, self._tree_pairs)
        return idx.T

    def sort_keys(
        self, keys: np.ndarray, stages: int | None = None
    ) -> np.ndarray:
        """Network output keys for a ``(sequences, width)`` matrix."""
        keys = np.asarray(keys, dtype=np.int64)
        perm = self.permutations(keys, stages)
        return np.take_along_axis(keys, perm, axis=1)

    def sequence_permutation(self, keys: list[int]) -> list[int]:
        """Output permutation of one short sequence (``len <= width``).

        The replay engine's sort for every flush: distinct keys take the
        unique sorted arrangement, duplicate keys walk the padded
        comparator schedule on (key, position) pairs -- both exactly
        equal to the object engine's keyed compare-exchange loop, for
        either sorter architecture.
        """
        count = len(keys)
        if count > self.width:
            raise ValueError(f"sequence of {count} exceeds width {self.width}")
        if len(set(keys)) == count:
            return sorted(range(count), key=keys.__getitem__)
        keyed = [(keys[j], j) for j in range(count)]
        keyed += [(INVALID_KEY, -1)] * (self.width - count)
        for lo, hi in self._full_pairs:
            if keyed[lo][0] > keyed[hi][0]:
                keyed[lo], keyed[hi] = keyed[hi], keyed[lo]
        return [j for _, j in keyed if j >= 0]
