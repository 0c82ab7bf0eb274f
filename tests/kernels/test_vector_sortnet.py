"""Differential tests: VectorSortNetwork vs the comparator walk.

The vector sorter's contract is *permutation equality* with the object
engine's keyed compare-exchange loop -- not merely sorted output.  The
network is not a stable sort (a comparator spanning other wires can
reorder equal keys), so the only correct specification for duplicate
keys is the comparator schedule itself; these tests pin the per-flush
sort the replay engine runs, at every sorter width, and the batched
NumPy execution against :meth:`OddEvenMergesortNetwork.apply_items`
and :meth:`~OddEvenMergesortNetwork.apply_prefix_stages` directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address import INVALID_KEY
from repro.core.sorting import OddEvenMergesortNetwork
from repro.kernels.sortnet import VectorSortNetwork

WIDTHS = (4, 8, 16)
#: Every width a config can flush at: the replay engine sorts each
#: flush with ``sequence_permutation``, so it is pinned at all of them.
SEQUENCE_WIDTHS = (2, *WIDTHS, 32, 64, 128)
_NETS = {w: OddEvenMergesortNetwork(w) for w in SEQUENCE_WIDTHS}
_VSNS = {w: VectorSortNetwork(_NETS[w]) for w in SEQUENCE_WIDTHS}

#: Small alphabet so hypothesis hits duplicate keys constantly -- the
#: regime where argsort would diverge from the comparator walk.
_keys = st.integers(min_value=0, max_value=9)


def _object_permutation(width: int, keys: list[int]) -> list[int]:
    """The object engine's padded keyed walk, as a permutation."""
    keyed = [(keys[j], j) for j in range(len(keys))]
    keyed += [(INVALID_KEY, -1)] * (width - len(keys))
    out = _NETS[width].apply_items(keyed, key=lambda kv: kv[0])
    return [j for _, j in out if j >= 0]


def _padded_matrix(width: int, sequences: list[list[int]]) -> np.ndarray:
    mat = np.full((len(sequences), width), INVALID_KEY, dtype=np.int64)
    for g, seq in enumerate(sequences):
        mat[g, : len(seq)] = seq
    return mat


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sequence_permutation_matches_object_walk(data):
    width = data.draw(st.sampled_from(SEQUENCE_WIDTHS))
    keys = data.draw(st.lists(_keys, min_size=0, max_size=width))
    assert _VSNS[width].sequence_permutation(keys) == _object_permutation(
        width, keys
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_permutations_match_object_walk(data):
    width = data.draw(st.sampled_from(WIDTHS))
    sequences = data.draw(
        st.lists(
            st.lists(_keys, min_size=0, max_size=width),
            min_size=1,
            max_size=12,
        )
    )
    perms = _VSNS[width].permutations(_padded_matrix(width, sequences))
    for g, seq in enumerate(sequences):
        assert perms[g, : len(seq)].tolist() == _object_permutation(width, seq)
        # Padding keys keep their relative order behind the valid slots.
        assert sorted(perms[g, len(seq) :].tolist()) == list(
            range(len(seq), width)
        )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stage_prefix_matches_apply_prefix_stages(data):
    width = data.draw(st.sampled_from(WIDTHS))
    net = _NETS[width]
    stages = data.draw(st.integers(0, net.num_stages))
    rows = data.draw(
        st.lists(
            st.lists(_keys, min_size=width, max_size=width),
            min_size=1,
            max_size=8,
        )
    )
    mat = np.asarray(rows, dtype=np.int64)
    perms = _VSNS[width].permutations(mat, stages=stages)
    sorted_keys = np.take_along_axis(mat, perms, axis=1)
    for r, row in enumerate(rows):
        assert sorted_keys[r].tolist() == net.apply_prefix_stages(row, stages)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_full_schedule_equals_stage_select_prefix_on_padded_rows(data):
    """The property that lets batched replay skip stage select entirely."""
    width = data.draw(st.sampled_from(WIDTHS))
    net = _NETS[width]
    keys = data.draw(st.lists(_keys, min_size=1, max_size=width))
    mat = _padded_matrix(width, [keys])
    full = _VSNS[width].permutations(mat)[0, : len(keys)]
    prefix = _VSNS[width].permutations(
        mat, stages=net.required_stages(len(keys))
    )[0, : len(keys)]
    assert full.tolist() == prefix.tolist()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sort_keys_yields_the_sorted_multiset(data):
    width = data.draw(st.sampled_from(WIDTHS))
    rows = data.draw(
        st.lists(
            st.lists(_keys, min_size=width, max_size=width),
            min_size=1,
            max_size=8,
        )
    )
    mat = np.asarray(rows, dtype=np.int64)
    out = _VSNS[width].sort_keys(mat)
    assert np.array_equal(out, np.sort(mat, axis=1))


def test_shape_and_length_validation():
    vsn = _VSNS[4]
    with pytest.raises(ValueError):
        vsn.permutations(np.zeros((2, 5), dtype=np.int64))
    with pytest.raises(ValueError):
        vsn.permutations(np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        vsn.sequence_permutation([1, 2, 3, 4, 5])
