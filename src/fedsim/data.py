"""Datasets, non-IID partitioning, batch orders, and CSV loading.

The heterogeneity knob is the standard label-skew construction: for each
class, a Dirichlet(alpha) draw over clients decides what share of that
class each client receives.  Small alpha concentrates each class on a
few clients (most of a client's data comes from one or two classes);
large alpha approaches a uniform IID split.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import Batch
from .rng import seeded_rng

# Purpose tags mixed into SeedSequence keys so the streams for dataset
# synthesis, train/test splitting, partitioning, and batch shuffling
# never collide even under the same base seed.
TAG_SYNTH = 1
TAG_SPLIT = 2
TAG_PARTITION = 3
TAG_BATCH = 4


@dataclass(frozen=True)
class Dataset(Batch):
    """A Batch whose labels lie in [0, num_classes)."""

    num_classes: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.labels.max() >= self.num_classes:
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{int(self.labels.min())}, {int(self.labels.max())}]"
            )

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True)
class Partition:
    """Disjoint assignment of sample indices to clients.

    assignment[i] is a sorted index array for client i; counts[i] its
    size; ratios[i] = counts[i] / n sums to 1 over clients.
    """

    assignment: tuple[np.ndarray, ...]
    counts: np.ndarray
    ratios: np.ndarray

    @classmethod
    def from_assignment(cls, assignment: list[np.ndarray], total: int) -> "Partition":
        arrays = tuple(np.sort(np.asarray(a, dtype=np.int64)) for a in assignment)
        counts = np.array([a.shape[0] for a in arrays], dtype=np.int64)
        merged = np.sort(np.concatenate(arrays)) if arrays else np.empty(0, np.int64)
        if merged.shape[0] != total or not np.array_equal(merged, np.arange(total)):
            raise ValueError("assignment is not a disjoint cover of all sample indices")
        if (counts == 0).any():
            raise ValueError("every client must receive at least one sample")
        ratios = counts / counts.sum()
        for arr in (*arrays, counts, ratios):  # runs may share a partition
            arr.flags.writeable = False
        return cls(arrays, counts, ratios)

    @property
    def num_clients(self) -> int:
        return len(self.assignment)


def gen_synthetic(
    num_classes: int, dim: int, samples_per_class: int, spread: float, seed: int
) -> Dataset:
    """Gaussian blobs: class means ~ N(0, I), samples ~ N(mean, spread^2 I).

    Larger spread overlaps the blobs and makes the classification task
    harder; spread well below the typical inter-mean distance (~sqrt(2d))
    makes it nearly separable.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if dim < 1 or samples_per_class < 1:
        raise ValueError("dim and samples_per_class must be >= 1")
    if not (0.0 < spread < math.inf):
        raise ValueError(f"spread must be positive and finite, got {spread}")
    rng = seeded_rng(seed, TAG_SYNTH)
    means = rng.normal(0.0, 1.0, size=(num_classes, dim))
    feats = np.vstack(
        [means[k] + spread * rng.standard_normal((samples_per_class, dim)) for k in range(num_classes)]
    )
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    return Dataset(feats, labels, num_classes)


def split_train_test(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split: per class, the same fraction is held out for test."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = seeded_rng(seed, TAG_SPLIT)
    train_idx, test_idx = [], []
    for k in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == k)
        idx = rng.permutation(idx)
        n_test = int(round(test_fraction * idx.shape[0]))
        n_test = min(max(n_test, 1), idx.shape[0] - 1)
        test_idx.append(idx[:n_test])
        train_idx.append(idx[n_test:])
    if not any(idx.size for idx in test_idx):
        raise ValueError("test split is empty: no class has a second sample to hold out")
    return subset(ds, np.sort(np.concatenate(train_idx))), subset(
        ds, np.sort(np.concatenate(test_idx))
    )


def subset(ds: Dataset, indices: np.ndarray) -> Dataset:
    return Dataset(ds.features[indices], ds.labels[indices], ds.num_classes)


def dirichlet_partition(ds: Dataset, num_clients: int, alpha: float, seed: int) -> Partition:
    """Label-skew partition: per class k, shares over clients ~ Dirichlet(alpha).

    Class samples are allocated to clients multinomially by the drawn
    shares.  Clients left empty are repaired by moving one sample at a
    time from the currently largest client (ties to the lowest id), so
    the result is always a full disjoint cover with no empty client.
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if not (0.0 < alpha < math.inf):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if num_clients > len(ds):
        raise ValueError(
            f"num_clients={num_clients} exceeds the {len(ds)} samples "
            "to split with at least one per client"
        )
    rng = seeded_rng(seed, TAG_PARTITION)
    lists: list[list[int]] = [[] for _ in range(num_clients)]
    for k in range(ds.num_classes):
        idx_k = np.flatnonzero(ds.labels == k)
        if idx_k.shape[0] == 0:
            continue
        shares = rng.dirichlet(np.full(num_clients, alpha))
        counts = rng.multinomial(idx_k.shape[0], shares)
        shuffled = rng.permutation(idx_k)
        bounds = np.cumsum(counts)[:-1]
        for cid, chunk in enumerate(np.split(shuffled, bounds)):
            lists[cid].extend(chunk.tolist())
    sizes = np.array([len(l) for l in lists], dtype=np.int64)
    while (sizes == 0).any():
        empty = int(np.argmax(sizes == 0))
        donor = int(np.argmax(sizes))
        lists[empty].append(lists[donor].pop())
        sizes[empty] += 1
        sizes[donor] -= 1
    return Partition.from_assignment([np.array(l, dtype=np.int64) for l in lists], len(ds))


def epoch_batches(
    shard: np.ndarray, batch_size: int, epoch: int, seed: int
) -> list[np.ndarray]:
    """Shuffle the shard's indices for this epoch and chunk into batches.

    The shuffle is a pure function of (seed, epoch); the final partial
    batch is kept.  Every index appears in exactly one batch.
    """
    idx = np.asarray(shard, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] == 0:
        raise ValueError("shard must be a non-empty 1-D index array")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    n = idx.shape[0]
    perm = idx[seeded_rng(seed, TAG_BATCH, epoch).permutation(n)]
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def load_csv_dataset(
    path: str,
    label_col: int | str = -1,
    has_header: bool = False,
) -> Dataset:
    """Load a numeric CSV into a Dataset.

    ``label_col`` selects the label column by position (negative indexes
    from the right) or by header name (requires ``has_header``).  All
    remaining columns are features.  Labels must be non-negative
    integers forming a contiguous range 0..K-1 and features finite;
    violations are reported with their row number (1-based, counting
    any header line, not counting blank lines).
    """
    # The first two non-empty rows give the header and the width, and
    # tell an empty file from one numpy would only warn about.
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        nonempty = filter(None, reader)
        first = next(nonempty, None)
        header_lines = reader.line_num
        second = next(nonempty, None)
    if first is None:
        raise ValueError(f"{path}: file is empty")
    header: list[str] | None = None
    if has_header:
        header = [c.strip() for c in first]
        if second is None:
            raise ValueError(f"{path}: no data rows after header")
        first = second
    width = len(first)
    if header is not None and len(header) != width:
        raise ValueError(f"{path}: header has {len(header)} columns, rows have {width}")
    if isinstance(label_col, str):
        if header is None:
            raise ValueError("label_col by name requires has_header=True")
        if label_col not in header:
            raise ValueError(f"{path}: no column named {label_col!r} in header {header}")
        label_idx = header.index(label_col)
    else:
        label_idx = label_col if label_col >= 0 else width + label_col
        if not (0 <= label_idx < width):
            raise ValueError(f"{path}: label_col {label_col} out of range for {width} columns")

    # numpy's C parser gives ``float()``'s bits and refuses every cell
    # ``float()`` refuses, and more (quotes, ``1_000``, non-ASCII digits,
    # blank-only or ragged rows).  Any refusal falls back to the row loop.
    offset = 2 if has_header else 1
    try:
        table = np.loadtxt(
            path,
            delimiter=",",
            dtype=np.float64,
            comments=None,
            skiprows=header_lines if has_header else 0,
            ndmin=2,
        )
    except ValueError:
        table = _parse_rows(path, width, offset)
    return _table_dataset(path, table, label_idx, offset)


def _parse_rows(path: str, width: int, offset: int) -> np.ndarray:
    """``float()`` of every cell from row ``offset`` on, naming the first ragged row or bad cell."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row][offset - 1 :]
    table = np.empty((len(rows), width))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {r + offset} has {len(row)} columns, expected {width}")
        for c, cell in enumerate(row):
            try:
                table[r, c] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {r + offset}, column {c + 1}: {cell.strip()!r} is not numeric"
                ) from None
    return table


def _table_dataset(path: str, table: np.ndarray, label_idx: int, offset: int) -> Dataset:
    """The Dataset of a parsed table; table row ``r`` is the file's row ``r + offset``."""
    lab = table[:, label_idx]
    integral = np.isfinite(lab) & (lab == np.trunc(lab))
    bad = np.flatnonzero(~integral | (lab < 0))
    if bad.size:
        r = int(bad[0])
        if not integral[r]:
            raise ValueError(f"{path}: row {r + offset}: label {float(lab[r])!r} is not an integer")
        raise ValueError(f"{path}: row {r + offset}: label {int(lab[r])} is negative")
    # On Python ints: a label past int64 (1e30) must not wrap before it is reported.
    present = {int(k) for k in np.unique(lab).tolist()}
    num_classes = max(present) + 1
    if num_classes < 2:
        raise ValueError(f"{path}: needs at least 2 classes, found {num_classes}")
    if len(present) != num_classes:
        # The first 10 missing classes all lie below len(present) + 10.
        missing = sorted(set(range(min(num_classes, len(present) + 10))) - present)[:10]
        raise ValueError(
            f"{path}: labels must cover 0..{num_classes - 1}; missing classes {missing} "
            f"({num_classes - len(present)} missing in all)"
        )
    finite = np.isfinite(table)
    if not finite.all():
        r, c = np.argwhere(~finite)[0].tolist()
        raise ValueError(
            f"{path}: row {r + offset}, column {c + 1}: {float(table[r, c])!r} is not finite"
        )
    return Dataset(np.delete(table, label_idx, axis=1), lab.astype(np.int64), num_classes)
