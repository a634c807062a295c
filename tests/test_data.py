from __future__ import annotations

import csv
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import data as data_mod
from fedsim.model import Batch
from fedsim.data import (
    Dataset,
    Partition,
    dirichlet_partition,
    epoch_batches,
    gen_synthetic,
    load_csv_dataset,
    split_train_test,
    subset,
)


def entropy(hist: np.ndarray) -> float:
    p = hist[hist > 0] / hist.sum()
    return float(-(p * np.log(p)).sum())


# ------------------------------------------------------------------ synthetic


def test_gen_synthetic_shapes_and_counts():
    ds = gen_synthetic(num_classes=4, dim=7, samples_per_class=25, spread=1.0, seed=0)
    assert len(ds) == 100
    assert ds.dim == 7
    assert ds.num_classes == 4
    npt.assert_array_equal(np.bincount(ds.labels), [25, 25, 25, 25])


def test_gen_synthetic_deterministic():
    a = gen_synthetic(3, 5, 10, 1.0, seed=7)
    b = gen_synthetic(3, 5, 10, 1.0, seed=7)
    c = gen_synthetic(3, 5, 10, 1.0, seed=8)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.features.tobytes() != c.features.tobytes()


def test_gen_synthetic_small_spread_separates_classes():
    ds = gen_synthetic(num_classes=3, dim=10, samples_per_class=50, spread=0.01, seed=1)
    means = np.stack([ds.features[ds.labels == k].mean(axis=0) for k in range(3)])
    # nearest-class-mean classification must be perfect at this spread
    dists = ((ds.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(dists.argmin(axis=1), ds.labels)


def test_gen_synthetic_validation():
    with pytest.raises(ValueError):
        gen_synthetic(1, 5, 10, 1.0, 0)
    with pytest.raises(ValueError):
        gen_synthetic(3, 0, 10, 1.0, 0)
    with pytest.raises(ValueError):
        gen_synthetic(3, 5, 10, 0.0, 0)
    for spread in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^spread must be positive and finite, got {spread}$"):
            gen_synthetic(3, 4, 10, spread, 0)


# ------------------------------------------------------------------ dataset


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), num_classes=2)  # label out of range
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0.0, 1.0]), num_classes=2)  # float labels
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([0]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([-1, 0]), num_classes=2)  # negative label
    with pytest.raises(ValueError):
        Dataset(np.zeros(4), np.array([0, 1, 0, 1]), num_classes=2)  # 1-D features
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), num_classes=2)  # length mismatch


def test_dataset_stores_read_only_views_of_callers_arrays():
    feats = np.zeros((4, 2))
    labels = np.array([0, 1, 0, 1], dtype=np.int64)
    ds = Dataset(feats, labels, 2)
    with pytest.raises(ValueError, match="read-only"):
        ds.features[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ds.labels[0] = 1
    feats[0, 0] = 1.0  # the caller's arrays stay writeable
    labels[0] = 1
    assert ds.features[0, 0] == 1.0  # a view, not a copy


# ------------------------------------------------------------------ partition


def test_partition_from_assignment_is_read_only():
    part = Partition.from_assignment([np.array([2, 0]), np.array([1])], 3)
    for arr in (*part.assignment, part.counts, part.ratios):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_partition_is_disjoint_cover():
    ds = gen_synthetic(5, 3, 40, 1.0, seed=2)
    part = dirichlet_partition(ds, num_clients=12, alpha=0.5, seed=3)
    assert part.num_clients == 12
    merged = np.concatenate(part.assignment)
    assert merged.shape[0] == len(ds)
    npt.assert_array_equal(np.sort(merged), np.arange(len(ds)))
    npt.assert_array_equal(part.counts, [a.shape[0] for a in part.assignment])
    assert part.ratios.sum() == pytest.approx(1.0, abs=1e-12)
    assert part.counts.min() >= 1


def test_partition_deterministic():
    ds = gen_synthetic(4, 3, 30, 1.0, seed=4)
    a = dirichlet_partition(ds, 10, 0.1, seed=5)
    b = dirichlet_partition(ds, 10, 0.1, seed=5)
    c = dirichlet_partition(ds, 10, 0.1, seed=6)
    for x, y in zip(a.assignment, b.assignment):
        npt.assert_array_equal(x, y)
    assert any(
        x.shape != y.shape or not np.array_equal(x, y)
        for x, y in zip(a.assignment, c.assignment)
    )


def test_partition_single_client_gets_everything():
    ds = gen_synthetic(3, 2, 10, 1.0, seed=0)
    part = dirichlet_partition(ds, 1, 0.1, seed=0)
    npt.assert_array_equal(part.assignment[0], np.arange(len(ds)))
    assert part.ratios[0] == 1.0


def test_partition_empty_client_repair():
    # 50 clients for 60 samples at alpha=0.1 leaves many clients empty
    # before repair; afterwards every client must hold >= 1 sample.
    ds = gen_synthetic(3, 2, 20, 1.0, seed=1)
    part = dirichlet_partition(ds, 50, 0.1, seed=1)
    assert part.counts.min() >= 1
    npt.assert_array_equal(np.sort(np.concatenate(part.assignment)), np.arange(60))


def test_partition_more_clients_than_samples_raises():
    ds = gen_synthetic(2, 2, 3, 1.0, seed=0)  # 6 samples
    with pytest.raises(ValueError):
        dirichlet_partition(ds, 7, 0.1, seed=0)


def test_partition_alpha_validation():
    ds = gen_synthetic(2, 2, 5, 1.0, seed=0)
    with pytest.raises(ValueError):
        dirichlet_partition(ds, 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        dirichlet_partition(ds, 0, 1.0, seed=0)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {alpha}$"):
            dirichlet_partition(ds, 4, alpha, seed=0)


def test_small_alpha_concentrates_labels():
    ds = gen_synthetic(10, 2, 100, 1.0, seed=7)
    skewed = dirichlet_partition(ds, 20, 0.1, seed=7)
    uniform = dirichlet_partition(ds, 20, 1000.0, seed=7)

    def mean_entropy(part: Partition) -> float:
        return float(
            np.mean(
                [entropy(np.bincount(ds.labels[idx], minlength=10)) for idx in part.assignment]
            )
        )

    # label mix per client: near-deterministic when alpha is small,
    # near-uniform (entropy close to log 10) when alpha is large
    assert mean_entropy(skewed) < 1.0
    assert mean_entropy(uniform) > 2.0


def test_partition_from_assignment_rejects_overlap_and_gaps():
    with pytest.raises(ValueError):
        Partition.from_assignment([np.array([0, 1]), np.array([1, 2])], total=4)
    with pytest.raises(ValueError):
        Partition.from_assignment([np.array([0, 1]), np.array([3])], total=4)
    with pytest.raises(ValueError):
        Partition.from_assignment([np.array([0, 1, 2, 3]), np.array([], dtype=np.int64)], total=4)


# ------------------------------------------------------------------ batching


def test_epoch_batches_partition_the_shard():
    shard = np.array([5, 17, 3, 99, 42, 8, 13])
    batches = epoch_batches(shard, batch_size=3, epoch=0, seed=0)
    assert [len(b) for b in batches] == [3, 3, 1]
    npt.assert_array_equal(np.sort(np.concatenate(batches)), np.sort(shard))


def test_epoch_batches_deterministic_per_epoch():
    shard = np.arange(40)
    a = epoch_batches(shard, 8, epoch=2, seed=9)
    b = epoch_batches(shard, 8, epoch=2, seed=9)
    c = epoch_batches(shard, 8, epoch=3, seed=9)
    d = epoch_batches(shard, 8, epoch=2, seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    assert any(not np.array_equal(x, y) for x, y in zip(a, d))


def test_epoch_batches_oversized_batch_is_single_shuffled_batch():
    shard = np.array([4, 2, 9])
    (batch,) = epoch_batches(shard, batch_size=10, epoch=0, seed=1)
    npt.assert_array_equal(np.sort(batch), [2, 4, 9])


def test_epoch_batches_validation():
    with pytest.raises(ValueError):
        epoch_batches(np.array([], dtype=np.int64), 4, 0, 0)
    with pytest.raises(ValueError):
        epoch_batches(np.arange(4), 0, 0, 0)
    with pytest.raises(ValueError):
        epoch_batches(np.arange(4), 4, -1, 0)


# ------------------------------------------------------------------ split


def test_split_is_stratified_and_disjoint():
    ds = gen_synthetic(4, 3, 50, 1.0, seed=3)
    train, test = split_train_test(ds, 0.2, seed=3)
    npt.assert_array_equal(np.bincount(test.labels, minlength=4), [10, 10, 10, 10])
    npt.assert_array_equal(np.bincount(train.labels, minlength=4), [40, 40, 40, 40])
    assert len(train) + len(test) == len(ds)
    # row-exact disjointness: every test row absent from train rows
    train_rows = {r.tobytes() for r in train.features}
    assert all(r.tobytes() not in train_rows for r in test.features)


def test_split_deterministic():
    ds = gen_synthetic(3, 4, 30, 1.0, seed=5)
    a_train, a_test = split_train_test(ds, 0.25, seed=1)
    b_train, b_test = split_train_test(ds, 0.25, seed=1)
    assert a_train.features.tobytes() == b_train.features.tobytes()
    assert a_test.features.tobytes() == b_test.features.tobytes()


def test_split_validation():
    ds = gen_synthetic(2, 2, 10, 1.0, seed=0)
    for frac in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            split_train_test(ds, frac, seed=0)


def test_split_names_an_empty_test_split():
    # A class's only sample stays in train, so one sample per class leaves
    # no test row; one class with a second sample is enough.
    ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 2]), num_classes=3)
    with pytest.raises(ValueError, match="^test split is empty: no class has a second sample"):
        split_train_test(ds, 0.2, seed=0)
    ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 2, 2]), num_classes=3)
    train, test = split_train_test(ds, 0.2, seed=0)
    assert (len(train), test.labels.tolist()) == (3, [2])


def test_dataset_is_the_batch_type_with_a_class_count():
    assert issubclass(Dataset, Batch)
    ds = gen_synthetic(3, 2, 10, 1.0, seed=0)
    sub = subset(ds, np.array([0, 10, 20]))
    assert type(sub) is Dataset and sub.num_classes == 3
    with pytest.raises(ValueError, match="read-only"):
        sub.features[0, 0] = 1.0


def test_subset():
    ds = gen_synthetic(3, 2, 10, 1.0, seed=0)
    sub = subset(ds, np.array([0, 10, 20]))
    npt.assert_array_equal(sub.labels, ds.labels[[0, 10, 20]])
    npt.assert_array_equal(sub.features, ds.features[[0, 10, 20]])


# ------------------------------------------------------------------ csv


def write_csv(path, text: str) -> str:
    path.write_text(text)
    return str(path)


def test_load_csv_roundtrip(tmp_path):
    p = write_csv(tmp_path / "d.csv", "1.5,2.0,0\n-0.5,1.25,1\n3.0,0.0,2\n0.1,0.2,1\n")
    ds = load_csv_dataset(p)  # label defaults to last column
    assert ds.num_classes == 3
    npt.assert_array_equal(ds.labels, [0, 1, 2, 1])
    npt.assert_allclose(ds.features, [[1.5, 2.0], [-0.5, 1.25], [3.0, 0.0], [0.1, 0.2]])


def test_load_csv_header_and_named_label(tmp_path):
    p = write_csv(tmp_path / "d.csv", "x1,y,x2\n0.5,1,2.5\n1.5,0,3.5\n")
    ds = load_csv_dataset(p, label_col="y", has_header=True)
    npt.assert_array_equal(ds.labels, [1, 0])
    npt.assert_allclose(ds.features, [[0.5, 2.5], [1.5, 3.5]])


def test_load_csv_label_col_positions(tmp_path):
    p = write_csv(tmp_path / "d.csv", "1,0.5,0.7\n0,1.5,1.7\n")
    ds = load_csv_dataset(p, label_col=0)
    npt.assert_array_equal(ds.labels, [1, 0])
    npt.assert_allclose(ds.features, [[0.5, 0.7], [1.5, 1.7]])


def test_load_csv_error_reports_row_and_column(tmp_path):
    p = write_csv(tmp_path / "d.csv", "1.0,0\n2.0,1\nbad,0\n")
    with pytest.raises(ValueError, match=r"row 3.*column 1"):
        load_csv_dataset(p)


def test_load_csv_ragged_row(tmp_path):
    p = write_csv(tmp_path / "d.csv", "1.0,2.0,0\n1.0,1\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv_dataset(p)


def test_load_csv_header_line_counts_in_row_numbers(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,b,y\n1.0,2.0,0\nx,2.0,1\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv_dataset(p, has_header=True)


def test_load_csv_fractional_label(tmp_path):
    for label in ("1.5", "inf", "-inf", "nan"):
        p = write_csv(tmp_path / "d.csv", f"1.0,0\n2.0,{label}\n")
        with pytest.raises(ValueError, match=r"row 2.*not an integer"):
            load_csv_dataset(p)
    # Integral, but far past any class count of a two-row file.
    p = write_csv(tmp_path / "d.csv", "1.0,0\n2.0,1e30\n")
    with pytest.raises(ValueError, match=r"missing classes \[1, 2, 3, 4, 5, 6, 7, 8, 9, 10\]"):
        load_csv_dataset(p)


def test_load_csv_negative_label(tmp_path):
    p = write_csv(tmp_path / "d.csv", "1.0,-1\n2.0,0\n")
    with pytest.raises(ValueError, match="negative"):
        load_csv_dataset(p)


def test_load_csv_missing_class(tmp_path):
    p = write_csv(tmp_path / "d.csv", "1.0,0\n2.0,2\n")
    with pytest.raises(ValueError, match=r"missing classes \[1\]"):
        load_csv_dataset(p)
    # A huge label lists the first 10 missing classes and their count only.
    p = write_csv(tmp_path / "d.csv", "1.0,0\n2.0,1\n3.0,1000000\n")
    with pytest.raises(ValueError, match=r"missing classes \[2, .*, 11\] \(999998 missing") as e:
        load_csv_dataset(p)
    assert len(str(e.value)) < 300


def test_load_csv_empty_and_missing(tmp_path):
    p = write_csv(tmp_path / "d.csv", "")
    with pytest.raises(ValueError, match="empty"):
        load_csv_dataset(p)
    with pytest.raises(OSError):
        load_csv_dataset(str(tmp_path / "nope.csv"))


def test_load_csv_named_label_requires_header(tmp_path):
    p = write_csv(tmp_path / "d.csv", "1.0,0\n2.0,1\n")
    with pytest.raises(ValueError, match="has_header"):
        load_csv_dataset(p, label_col="y")


def test_load_csv_label_col_out_of_range(tmp_path):
    p = write_csv(tmp_path / "d.csv", "1.0,0\n2.0,1\n")
    with pytest.raises(ValueError, match="out of range"):
        load_csv_dataset(p, label_col=5)


def test_load_csv_header_width_must_match_rows(tmp_path):
    # Wider: a name past the rows' last column.  Narrower: names that
    # would silently shift onto the wrong columns.
    for text, want in (
        ("a,b,y\n1,0\n2,1\n", "header has 3 columns, rows have 2"),
        ("a,y\n1,2,0\n2,3,1\n", "header has 2 columns, rows have 3"),
    ):
        p = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(ValueError) as err:
            load_csv_dataset(p, label_col="y", has_header=True)
        assert str(err.value) == f"{p}: {want}"


def test_load_csv_non_finite_feature_names_row_and_column(tmp_path):
    # The column counts from 1 in the file, the label column included.
    for text, kwargs, want in (
        ("1,2,0\n3,inf,1\n", {}, "row 2, column 2: inf is not finite"),
        ("1,2,0\n3,4,1\n-inf,nan,1\n", {}, "row 3, column 1: -inf is not finite"),
        ("a,b,y\n1,2,0\nnan,4,1\n", {"has_header": True}, "row 3, column 1: nan is not finite"),
        ("0,1,2\n1,3,nan\n", {"label_col": 0}, "row 2, column 3: nan is not finite"),
    ):
        p = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(ValueError) as err:
            load_csv_dataset(p, **kwargs)
        assert str(err.value) == f"{p}: {want}"


def test_load_csv_label_fault_parses_the_file_once(tmp_path):
    """A label fault in a file numpy parses is named from numpy's table."""
    reader, loadtxt = data_mod.csv.reader, data_mod.np.loadtxt
    calls = []
    with mock.patch.object(
        data_mod.csv, "reader", lambda fh: calls.append("csv") or reader(fh)
    ), mock.patch.object(
        data_mod.np, "loadtxt", lambda *a, **k: calls.append("numpy") or loadtxt(*a, **k)
    ):
        for text, want in (
            ("1,0\n2,1.5\n3,1\n", "row 2: label 1.5 is not an integer"),
            ("1,0\n2,1\n3,-2\n", "row 3: label -2 is negative"),
            ("1,0\n2,0\n", "needs at least 2 classes, found 1"),
            ("1,0\n2,2\n", "labels must cover 0..2; missing classes [1] (1 missing in all)"),
        ):
            calls.clear()
            p = write_csv(tmp_path / "d.csv", text)
            with pytest.raises(ValueError) as err:
                load_csv_dataset(p)
            assert str(err.value) == f"{p}: {want}"
            assert calls == ["csv", "numpy"]  # the probe, then one parse


def test_load_csv_parse_fault_is_named_before_a_label_fault(tmp_path):
    # The label fault is in an earlier row; the malformed cell is named.
    p = write_csv(tmp_path / "d.csv", "1,1.5\n2,0\nx,1\n")
    with pytest.raises(ValueError) as err:
        load_csv_dataset(p)
    assert str(err.value) == f"{p}: row 3, column 1: 'x' is not numeric"


def float_parse(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The reference parse: ``float()`` on every cell, the label last."""
    vals = [[float(c) for c in row] for row in csv.reader(io.StringIO(text)) if row]
    labels = [int(row.pop()) for row in vals]
    return np.array(vals, dtype=np.float64), np.array(labels, dtype=np.int64)


@pytest.mark.parametrize(
    "text",
    [
        "-0.0,0.0,0\n0.0,-0.0,1\n-0.0,1.0,-0.0\n",  # sign bits, a -0.0 label
        "5e-324,2.2250738585072014e-308,0\n-4.9406564584124654e-324,-1e-310,1\n",
        "2.4703282292062328e-324,2.225073858507201e-308,0\n1e-320,-2.5e-320,1\n",
        "0.30000000000000004,0.1,0\n1.0000000000000002,2.7182818284590451,1\n",
        "9007199254740993,0.12345678901234567890123,0\n1.7976931348623157e308,-3.3,1\n",
        "1e3,1E-3,0\n-2.5e+10,.5e-3,1\n7.e2,-1E+0,1.0e0\n",
        " 1.5 ,\t2.0\t, 0 \n 3.25,4 ,1\n",
        "1_000,2_0.5,0\n-3_1,4,1_0e-1\n",
    ],
    ids=["signed-zero", "subnormal", "subnormal-rounding", "repr17", "long-digits",
         "exponent", "whitespace", "underscore"],
)
def test_load_csv_parses_like_float(tmp_path, text):
    want_x, want_y = float_parse(text)
    ds = load_csv_dataset(write_csv(tmp_path / "d.csv", text))
    assert ds.features.tobytes() == want_x.tobytes()
    npt.assert_array_equal(ds.labels, want_y)


# name -> (file text, load_csv_dataset keywords, (features, labels) or the
# error after "<path>: ").  Each entry is what the csv.reader row loop
# gives; texts numpy's parser refuses must fall back to it.
CSV_PARITY = {
    "quoted": ('"1.5",2,0\n3,"4",1\n', {}, ([[1.5, 2.0], [3.0, 4.0]], [0, 1])),
    "underscore": ("1_000,2,0\n3,4,1\n", {}, ([[1000.0, 2.0], [3.0, 4.0]], [0, 1])),
    "ragged": ("1,2,0\n3,1\n", {}, "row 2 has 2 columns, expected 3"),
    "whitespace-line": ("1,2,0\n   \n3,4,1\n", {}, "row 2 has 1 columns, expected 3"),
    "hash-line": ("1,2,0\n# note\n3,4,1\n", {}, "row 2 has 1 columns, expected 3"),
    "bom": ("\ufeff1,2,0\n3,4,1\n", {}, "row 1, column 1: '\\ufeff1' is not numeric"),
    "trailing-comma": ("1,2,0,\n3,4,1,\n", {}, "row 1, column 4: '' is not numeric"),
    "arabic-indic": ("١,2,0\n3,٤.5,1\n", {}, ([[1.0, 2.0], [3.0, 4.5]], [0, 1])),
    "crlf": ("1,2,0\r\n3,4,1\r\n", {}, ([[1.0, 2.0], [3.0, 4.0]], [0, 1])),
    "cr": ("1,2,0\r3,4,1\r", {}, ([[1.0, 2.0], [3.0, 4.0]], [0, 1])),
    "trailing-blank-lines": ("1,2,0\n3,4,1\n\n\n", {}, ([[1.0, 2.0], [3.0, 4.0]], [0, 1])),
    "empty": ("", {}, "file is empty"),
    "blank-lines-only": ("\n\n", {}, "file is empty"),
    "header-only": ("a,b,y\n\n", {"has_header": True}, "no data rows after header"),
    "header-by-name": (
        "a,y,b\n1,0,2\n3,1,4\n",
        {"label_col": "y", "has_header": True},
        ([[1.0, 2.0], [3.0, 4.0]], [0, 1]),
    ),
    "blank-lines-before-header": (
        "\n\na,y\n1,0\n2,1\n", {"label_col": "y", "has_header": True}, ([[1.0], [2.0]], [0, 1])
    ),
    "numeric-header": (
        "\n7,8,1\n1,2,0\n3,4,1\n", {"has_header": True}, ([[1.0, 2.0], [3.0, 4.0]], [0, 1])
    ),
    "label-past-rows": (
        "1,0\n2,1\n3,5\n", {}, "labels must cover 0..5; missing classes [2, 3, 4] (3 missing in all)"
    ),
    "negative-before-fraction": ("1,-1\n2,1.5\n3,1\n", {}, "row 1: label -1 is negative"),
    "fraction-before-negative": ("1,0.5\n2,-1\n3,1\n", {}, "row 1: label 0.5 is not an integer"),
}


@pytest.mark.parametrize("name", CSV_PARITY)
def test_load_csv_gives_the_row_readers_result(tmp_path, name):
    text, kwargs, want = CSV_PARITY[name]
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            load_csv_dataset(str(path), **kwargs)
        assert str(err.value) == f"{path}: {want}"
        return
    ds = load_csv_dataset(str(path), **kwargs)
    feats = np.array(want[0], dtype=np.float64)
    assert ds.features.shape == feats.shape and ds.features.tobytes() == feats.tobytes()
    npt.assert_array_equal(ds.labels, want[1])


# repr, and two with more digits than a double holds (rounding to nearest).
FORMATS = [repr, "{:.20e}".format, "{:.40g}".format]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=30),
    st.sampled_from(FORMATS),
)
def test_load_csv_parses_doubles_to_floats_bits(values, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text("".join(f"{fmt(x)},{i % 2}\n" for i, x in enumerate(values)))
        # numpy's parser, not the row loop, must read it: the loader calls
        # csv.reader once to probe the header and width, and again only
        # for the row loop.
        reader = data_mod.csv.reader
        calls = []
        with mock.patch.object(
            data_mod.csv, "reader", lambda fh: calls.append(1) or reader(fh)
        ):
            ds = load_csv_dataset(str(path))
        assert len(calls) == 1  # the header and width probe
    want = np.array([[float(fmt(x))] for x in values], dtype=np.float64)
    assert ds.features.tobytes() == want.tobytes()
