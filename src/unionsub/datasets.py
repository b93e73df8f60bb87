"""Dataset directories: one graph file per graph plus labels.csv.

The cycle-detection dataset pairs k-cycle-containing positives with
degree-matched k-cycle-free negatives and is fully determined by its seed.
Each pair comes from graphs.four_cycle_pair: a double-edge-swap chain from a
G(14, 18) base graph keeps degrees and simplicity, is sampled every 42
attempted swaps (about 18 accepted), and its first sample with a k-cycle and
first without one form the pair.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

from .graphs import GraphError, GraphParseError, four_cycle_pair, parse_graph


def write_dataset(directory, graphs, labels):
    """Write graphs as edge-list files plus labels.csv (filename,label)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(max(len(graphs) - 1, 0))))
    rows = []
    for i, (g, label) in enumerate(zip(graphs, labels)):
        name = f"graph_{i:0{width}d}.txt"
        (directory / name).write_text(g.to_edge_list_text(), encoding="ascii")
        rows.append((name, label))
    with open(directory / "labels.csv", "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filename", "label"])
        writer.writerows(rows)


def read_graph_file(path):
    """Parse one graph file; unreadable files raise GraphParseError."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from None
    return parse_graph(data)


def read_dataset(directory):
    """Load (graph, label) pairs in labels.csv order."""
    directory = Path(directory)
    labels_path = directory / "labels.csv"
    if not labels_path.exists():
        raise GraphError(f"no labels.csv in {directory}")
    try:
        with open(labels_path, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
    except UnicodeDecodeError:
        raise GraphParseError(f"{labels_path} is not ASCII text") from None
    dataset = []
    for line, row in enumerate(rows, start=2):
        try:
            name, label = row["filename"], int(row["label"])
        except (KeyError, TypeError, ValueError):
            raise GraphParseError(
                f"{labels_path}: expected 'filename,label' with an integer label",
                line=line,
            ) from None
        dataset.append((read_graph_file(directory / name), label))
    return dataset


def read_corpus(directory):
    """Load all graph files of a directory (no labels required), sorted by name."""
    directory = Path(directory)
    graphs = []
    for path in sorted(directory.iterdir()):
        if path.name == "labels.csv" or path.is_dir():
            continue
        graphs.append(read_graph_file(path))
    if not graphs:
        raise GraphError(f"no graph files in {directory}")
    return graphs


def build_cycle_dataset(k, count, seed):
    """`count` graphs with balanced labels: label 1 iff a k-cycle is present.

    Graphs come in degree-matched positive/negative pairs, interleaved so
    any contiguous split stays balanced.
    """
    if count % 2 != 0:
        raise GraphError("count must be even for balanced labels")
    rng = random.Random(seed)
    graphs, labels = [], []
    for _ in range(count // 2):
        pos, neg = four_cycle_pair(k, rng)
        graphs += [pos, neg]
        labels += [1, 0]
    return graphs, labels


def split_dataset(dataset, fractions=(0.45, 0.05, 0.5)):
    """Deterministic contiguous train/val/test split by position."""
    n = len(dataset)
    n_train = int(fractions[0] * n)
    n_val = int(fractions[1] * n)
    train = dataset[:n_train]
    val = dataset[n_train : n_train + n_val]
    test = dataset[n_train + n_val :]
    return train, val, test
