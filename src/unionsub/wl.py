"""1-WL color refinement, coefficient-augmented refinement, and pair verdicts.

Refinement runs in a joint hash space when two graphs are compared, so
histogram comparison is sound.  Augmentation tags each neighbor message with
the quantized normalized coefficient of the directed pair; a coarser signal
(the multiset of raw coefficients per graph) is folded into the verdict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .descriptors import COEFF_QUANT_SCALE, coefficient_table
from .graphs import GraphError


@dataclass(frozen=True)
class ColorAssignment:
    """Node colors after refinement, contiguous from 0 per assignment."""

    colors: tuple
    rounds: int
    stable: bool

    def histogram(self):
        return tuple(sorted(Counter(self.colors).items()))


@dataclass(frozen=True)
class DistinguishVerdict:
    wl_distinguishes: bool
    augmented_distinguishes: bool
    rounds_used: int
    histograms: tuple  # (hist of graph 1, hist of graph 2) from augmented colors

    def to_json_obj(self):
        return {
            "wl": self.wl_distinguishes,
            "augmented": self.augmented_distinguishes,
            "rounds": self.rounds_used,
            "hist1": [list(item) for item in self.histograms[0]],
            "hist2": [list(item) for item in self.histograms[1]],
        }


def _initial_colors(graphs):
    """Shared initial colors from node features (constant when featureless)."""
    keys = []
    for g in graphs:
        if g.features is None:
            keys.append([()] * g.num_nodes)
        else:
            keys.append([tuple(row) for row in g.features.tolist()])
    palette = {key: color for color, key in enumerate(sorted({k for ks in keys for k in ks}))}
    return [[palette[k] for k in ks] for ks in keys]


def _refine_jointly(graphs, edge_tags, max_rounds):
    """Color refinement over several graphs in one hash space.

    ``edge_tags[gi]`` maps a directed pair (v, u) to a hashable tag appended
    to the message from u to v (None means untagged).  New color ids are
    assigned by sorted signature, which keeps colors canonical under node
    relabeling.  Returns (per-graph colors, rounds used, stable flag).
    """
    colors = _initial_colors(graphs)
    num_colors = len({c for cs in colors for c in cs})
    rounds = 0
    stable = num_colors == sum(g.num_nodes for g in graphs)
    while rounds < max_rounds and not stable:
        signatures = []
        for gi, g in enumerate(graphs):
            tags = edge_tags[gi]
            sig = []
            for v in range(g.num_nodes):
                messages = []
                for u in g.neighbors(v):
                    if tags is None:
                        messages.append(colors[gi][u])
                    else:
                        messages.append((colors[gi][u], tags[(v, u)]))
                sig.append((colors[gi][v], tuple(sorted(messages))))
            signatures.append(sig)
        palette = {
            sig: color
            for color, sig in enumerate(sorted({s for sigs in signatures for s in sigs}))
        }
        colors = [[palette[s] for s in sigs] for sigs in signatures]
        rounds += 1
        # refinement only splits classes: equal counts means a stable partition
        if len(palette) == num_colors:
            stable = True
        num_colors = len(palette)
    return colors, rounds, stable


def wl_refine(g, max_rounds=None):
    """Plain 1-WL color refinement on a single graph."""
    if max_rounds is None:
        max_rounds = max(1, g.num_nodes)
    if max_rounds < 1:
        raise GraphError("max_rounds must be at least 1")
    colors, rounds, stable = _refine_jointly([g], [None], max_rounds)
    return ColorAssignment(tuple(colors[0]), rounds, stable)


def augmented_refine(g, coeffs, max_rounds=None):
    """1-WL refinement with neighbor messages tagged by quantized coefficients.

    The message from u to v carries round(normalized(v, u) * 1e9), so hashing
    stays exact across math libraries.
    """
    if max_rounds is None:
        max_rounds = max(1, g.num_nodes)
    if max_rounds < 1:
        raise GraphError("max_rounds must be at least 1")
    tags = _quantized_tags(g, coeffs)
    colors, rounds, stable = _refine_jointly([g], [tags], max_rounds)
    return ColorAssignment(tuple(colors[0]), rounds, stable)


def _quantized_tags(g, coeffs):
    tags = {}
    for v in range(g.num_nodes):
        for u in g.neighbors(v):
            if (v, u) not in coeffs.normalized:
                raise GraphError(f"missing coefficient for directed pair ({v}, {u})")
            tags[(v, u)] = round(coeffs.normalized[(v, u)] * COEFF_QUANT_SCALE)
    return tags


def _histograms(graphs, colors):
    return tuple(tuple(sorted(Counter(cs).items())) for cs in colors)


def wl_distinguishable(g1, g2):
    """True iff joint 1-WL refinement ends with different color histograms."""
    max_rounds = max(1, g1.num_nodes + g2.num_nodes)
    colors, _, _ = _refine_jointly([g1, g2], [None, None], max_rounds)
    h1, h2 = _histograms([g1, g2], colors)
    return h1 != h2


def distinguish_pair(g1, g2, kind, encoding):
    """Full verdict for a graph pair under one descriptor kind.

    ``augmented_distinguishes`` is true when the coefficient-tagged joint
    refinement separates the graphs or, as a coarser signal, when their
    multisets of raw coefficients differ.
    """
    max_rounds = max(1, g1.num_nodes + g2.num_nodes)
    plain_colors, plain_rounds, _ = _refine_jointly([g1, g2], [None, None], max_rounds)
    h1, h2 = _histograms([g1, g2], plain_colors)
    wl_flag = h1 != h2

    c1 = coefficient_table(g1, kind, encoding)
    c2 = coefficient_table(g2, kind, encoding)
    tags = [_quantized_tags(g1, c1), _quantized_tags(g2, c2)]
    aug_colors, aug_rounds, _ = _refine_jointly([g1, g2], tags, max_rounds)
    a1, a2 = _histograms([g1, g2], aug_colors)
    multisets_differ = c1.raw_multiset() != c2.raw_multiset()
    augmented_flag = (a1 != a2) or multisets_differ
    return DistinguishVerdict(
        wl_distinguishes=wl_flag,
        augmented_distinguishes=augmented_flag,
        rounds_used=max(plain_rounds, aug_rounds),
        histograms=(a1, a2),
    )
