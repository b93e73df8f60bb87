"""1-WL color refinement, coefficient-augmented refinement, and pair verdicts.

One routine refines every case, in a joint hash space when two graphs are
compared, so histogram comparison is sound.  Augmentation tags each neighbor
message with the quantized normalized coefficient of the directed pair: what
message passing over those coefficients can see.  Whether the multisets of
raw coefficients differ is reported apart, since normalization removes it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .descriptors import coefficient_table
from .graphs import GraphError

COEFF_QUANT_SCALE = 1e9  # coefficients compare as round(x * 1e9): a 1e-9 tolerance
# bound on the nodes plus pairs one refinement reads over its rounds; one took up
# to 470 ns on a 2-vCPU host, so an accepted refinement takes about 2 s at most
MAX_REFINE_STEPS = 4 * 10**6


@dataclass(frozen=True)
class ColorAssignment:
    """Node colors after refinement, contiguous from 0 over the graphs
    refined together."""

    colors: tuple
    rounds: int

    def histogram(self):
        return tuple(sorted(Counter(self.colors).items()))


@dataclass(frozen=True)
class DistinguishVerdict:
    wl_distinguishes: bool
    augmented_distinguishes: bool
    raw_values_differ: bool
    rounds_used: int
    histograms: tuple  # (hist of graph 1, hist of graph 2) from augmented colors

    def to_json_obj(self):
        return {
            "wl": self.wl_distinguishes,
            "augmented": self.augmented_distinguishes,
            "raw": self.raw_values_differ,
            "rounds": self.rounds_used,
            "hist1": [list(item) for item in self.histograms[0]],
            "hist2": [list(item) for item in self.histograms[1]],
        }


def _number(keys):
    """Colors for lists of keys, one list per graph: each key's rank among
    the distinct keys of all lists, and the number of distinct keys."""
    palette = {key: color for color, key in enumerate(sorted({k for ks in keys for k in ks}))}
    return [[palette[k] for k in ks] for ks in keys], len(palette)


def _refine(graphs, tables=None):
    """Color refinement over several graphs in one hash space.

    ``tables`` holds one CoefficientTable per graph, built for a graph with
    its edges; the message from u to v is then tagged by the quantized
    weight of (v, u), and None leaves every message untagged.  A tagged
    message is one int, color * span + tag, span being one more than the
    tags' range over all graphs refined together: every tag lies within one
    span, so the packing is injective and keeps the order of (color, tag),
    and the colors are those the pairs would give.  Rounds run until the
    partition is stable.  New color ids are assigned by sorted signature,
    which keeps colors canonical under node relabeling.  Once a round gives
    every node its own color, the next round would re-rank signatures whose
    first field is already the rank; it is counted, and checked against the
    bound, without being run.  Refining past MAX_REFINE_STEPS raises
    GraphError (a path of N nodes takes about N / 2 rounds).  Returns one
    ColorAssignment per graph.
    """
    pair_tags = [None] * len(graphs)
    if tables is not None:
        if any(table.graph.edges != g.edges for g, table in zip(graphs, tables)):
            raise GraphError("a coefficient table was built for a graph with other edges")
        pair_tags = [[round(x * COEFF_QUANT_SCALE) for x in t.weights.tolist()] for t in tables]
        every = [tag for tags in pair_tags for tag in tags]
        span = max(every, default=0) - min(every, default=0) + 1
    pairs = [[a.tolist() for a in g.csr] for g in graphs]
    per_round = sum(len(bounds) - 1 + len(nbr) for bounds, nbr in pairs)
    # equal feature rows get equal initial colors
    colors, num_colors = _number([[tuple(row) for row in g.features.tolist()] for g in graphs])
    nodes = sum(g.num_nodes for g in graphs)
    rounds = 0
    stable = num_colors == nodes
    while not stable:
        if (rounds + 1) * per_round > MAX_REFINE_STEPS:
            raise GraphError(f"1-WL refinement: over {MAX_REFINE_STEPS} nodes plus pairs to read")
        rounds += 1
        if num_colors == nodes:  # discrete: this round would change nothing
            break
        signatures = []
        for (bounds, nbr), tags, cs in zip(pairs, pair_tags, colors):
            # one message per pair (v, u), in the weights' order
            if tags is None:
                messages = [cs[u] for u in nbr]
            else:
                messages = [cs[u] * span + tag for u, tag in zip(nbr, tags)]
            signatures.append([(c, tuple(sorted(messages[lo:hi])))
                               for c, lo, hi in zip(cs, bounds, bounds[1:])])
        colors, count = _number(signatures)
        # refinement only splits classes: equal counts means a stable partition
        stable = count == num_colors
        num_colors = count
    return [ColorAssignment(tuple(cs), rounds) for cs in colors]


def wl_refine(g):
    """Plain 1-WL color refinement on a single graph."""
    return _refine([g])[0]


def augmented_refine(g, coeffs):
    """1-WL refinement with neighbor messages tagged by quantized coefficients.

    The message from u to v carries round(w * 1e9), w the table's weight of
    (v, u), so hashing stays exact across math libraries.  A table built for
    a graph with other edges raises GraphError.
    """
    return _refine([g], [coeffs])[0]


def wl_distinguishable(g1, g2):
    """True iff joint 1-WL refinement ends with different color histograms."""
    first, second = _refine([g1, g2])
    return first.histogram() != second.histogram()


def distinguish_pair(g1, g2, kind):
    """Full verdict for a graph pair under one descriptor kind.

    ``augmented_distinguishes`` is the coefficient-tagged joint refinement
    alone: what message passing over normalized coefficients can see.
    ``raw_values_differ`` compares the graphs' multisets of quantized raw
    coefficients, a signal normalization removes.
    """
    tables = [coefficient_table(g, kind) for g in (g1, g2)]
    plain = _refine([g1, g2])
    tagged = _refine([g1, g2], tables)
    h1, h2 = (assignment.histogram() for assignment in tagged)
    raw1, raw2 = (sorted(round(x * COEFF_QUANT_SCALE) for x in t.values.tolist()) for t in tables)
    return DistinguishVerdict(
        wl_distinguishes=plain[0].histogram() != plain[1].histogram(),
        augmented_distinguishes=h1 != h2,
        raw_values_differ=raw1 != raw2,
        rounds_used=max(plain[0].rounds, tagged[0].rounds),
        histograms=(h1, h2),
    )
