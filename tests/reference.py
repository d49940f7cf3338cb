"""Reference query oracle: the textbook Figure 3(b) walk, one index at a time.

No covers, plans, reconstruction memos or vectorization: every window index
is answered on its own from the tree's node contents, so production answers
can be checked bit for bit against an independent implementation.
"""

import numpy as np

from repro.wavelets.haar import haar_reconstruct, sparse_reconstruct
from repro.wavelets.transform import reconstruct


def _segment(node, wavelet):
    """The node's segment values, oldest first, straight from its coefficients."""
    n = node.segment_length
    if node.positions is not None:  # largest-k: sparse coefficient set
        return sparse_reconstruct(node.positions, node.coeffs, n)
    if wavelet in ("haar", "db1"):
        return haar_reconstruct(node.coeffs, n)
    return reconstruct(node.coeffs, n, wavelet)


def reference_estimate(tree, index):
    """Approximate value at one window index (0 = newest)."""
    if not 0 <= index < tree.size:
        raise IndexError(f"window index {index} out of range")
    if index < tree.raw_leaf_count():
        return tree.raw_leaf(index)  # d_0 / d_1 are part of the tree
    now = tree.time
    filled = [node for node in tree.nodes() if node.is_filled]
    # The first filled node in scan order (level ascending, R, S, L) whose
    # segment holds the index answers it.
    for node in filled:
        lo = now - node.end_time
        if lo <= index < lo + node.segment_length:
            return _segment(node, tree.wavelet)[node.segment_length - 1 - (index - lo)]

    # Reduced or settling trees: the nearest filled segment, finest level
    # first, clamped to its end.
    def distance(node):
        lo = now - node.end_time
        hi = lo + node.segment_length - 1
        return (min(abs(index - lo), abs(index - hi)), node.level)

    node = min(filled, key=distance)
    position = node.segment_length - 1 if index < now - node.end_time else 0
    return _segment(node, tree.wavelet)[position]


def reference_estimates(tree, indices):
    return np.array([reference_estimate(tree, int(i)) for i in indices], dtype=np.float64)


def assert_reference_answer(tree, query, answer):
    """``answer`` has the oracle's estimates and their exact inner product."""
    ref = reference_estimates(tree, query.indices)
    assert np.array_equal(answer.estimates, ref)
    assert answer.value == float(np.dot(np.asarray(query.weights, dtype=np.float64), ref))
