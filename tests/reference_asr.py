"""Reference SWAT-ASR: Figure 8 as counted calls, one message per call.

No transport, simulator, tracing, contracts or summaries: a message is a
function call plus a count, so the production
:class:`~repro.replication.async_asr.AsyncSwatAsr` at zero latency can be
checked against an independent transcription of the figure — message counts
by kind, answers, and every directory row.
"""

from collections import Counter

from repro.metrics.error import GroundTruthWindow
from repro.network.directory import Directory
from repro.replication.base import require_positive_weights


class ReferenceAsr:
    """Figure 8 on a spanning tree whose root is the stream source."""

    def __init__(self, topology, window_size):
        self.topology = topology
        self.window_size = window_size
        self.window = GroundTruthWindow(window_size)
        self.sites = {node: Directory(window_size) for node in topology.nodes}
        self.segments = self.sites[topology.root].segments
        #: Hop-counted messages by kind ("query", "response", "update", ...).
        self.messages = Counter()

    # ------------------------------------------- Figure 8(a), update branch

    def on_data(self, value):
        """The source stores every segment's exact range once the window is full."""
        self.window.update(value)
        if len(self.window) < self.window_size:
            return
        for seg in self.segments:
            rng = self.window.segment_range(seg.newest, seg.oldest)
            self._update(self.topology.root, seg, rng)

    def _update(self, node, seg, rng):
        """Store ``rng``; a cached range that does not enclose it counts a
        write and cascades the update to every subscriber."""
        row = self.sites[node].row(seg)
        was_cached, enclosed = row.is_cached, row.encloses(rng)
        row.approx = rng
        if was_cached and not enclosed:
            row.write_count += 1
            for child in sorted(row.subscribed):
                self.messages["update"] += 1
                self._update(child, seg, rng)

    # -------------------------------------------- Figure 8(a), query branch

    def on_query(self, client, query):
        require_positive_weights(query)
        by_segment = {}
        for idx in query.indices:
            by_segment.setdefault(self.sites[client].segment_of(idx), []).append(idx)
        weights = dict(zip(query.indices, query.weights))
        estimates = self._query(client, query, by_segment, weights, from_child=None)
        return sum(weights[i] * estimates[i] for i in query.indices)

    def _query(self, node, query, by_segment, weights, from_child):
        """Answer at ``node`` when sum_i W[i] * width(segment(i)) <= delta,
        else forward the whole query one hop toward the source."""
        directory = self.sites[node]
        if node == self.topology.root:  # the source answers exactly
            for seg in by_segment:
                self._read(directory.row(seg), from_child)
            return {i: self.window[i] for i in query.indices}
        offered = 0.0
        for seg, indices in by_segment.items():
            offered += sum(weights[i] for i in indices) * directory.row(seg).width
        if offered <= query.precision:
            estimates = {}
            for seg, indices in by_segment.items():
                row = directory.row(seg)
                self._read(row, from_child)
                for idx in indices:
                    estimates[idx] = row.midpoint
            return estimates
        self.messages["query"] += 1
        estimates = self._query(
            self.topology.parent(node), query, by_segment, weights, from_child=node
        )
        self.messages["response"] += 1
        return estimates

    @staticmethod
    def _read(row, from_child):
        if from_child is None:
            row.local_reads += 1
        else:
            row.note_read(from_child)

    # ----------------------------------------------------- Figure 8(b)

    def on_phase_end(self):
        """Contraction (deepest sites first), expansion, then counter reset."""
        topo = self.topology
        for node in sorted(topo.clients, key=topo.depth, reverse=True):
            for seg in self.segments:
                row = self.sites[node].row(seg)
                fringe = row.is_cached and not row.subscribed
                if fringe and row.local_reads < row.write_count:
                    row.approx = None
                    self.messages["unsubscribe"] += 1
                    self.sites[topo.parent(node)].row(seg).subscribed.discard(node)
        for node in topo.nodes:
            for seg in self.segments:
                row = self.sites[node].row(seg)
                if node != topo.root and not row.is_cached:
                    row.interested.clear()
                    continue
                for v in sorted(row.subscribed):
                    if row.write_count < row.read_counts.get(v, 0):
                        self.messages["update"] += 1
                        self._update(v, seg, row.approx)
                for v in sorted(row.interested):
                    row.interested.discard(v)
                    if row.write_count < row.read_counts.get(v, 0):
                        row.subscribed.add(v)
                        self.messages["insert"] += 1
                        self.sites[v].row(seg).approx = row.approx
        for node in topo.nodes:
            for seg in self.segments:
                self.sites[node].row(seg).reset_counts()
