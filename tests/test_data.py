from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

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


# ------------------------------------------------------------------ partition


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
    p = write_csv(tmp_path / "d.csv", "1.0,0\n2.0,1.5\n")
    with pytest.raises(ValueError, match=r"row 2.*not an integer"):
        load_csv_dataset(p)


def test_load_csv_negative_label(tmp_path):
    p = write_csv(tmp_path / "d.csv", "1.0,-1\n2.0,0\n")
    with pytest.raises(ValueError, match="negative"):
        load_csv_dataset(p)


def test_load_csv_missing_class(tmp_path):
    p = write_csv(tmp_path / "d.csv", "1.0,0\n2.0,2\n")
    with pytest.raises(ValueError, match=r"missing classes \[1\]"):
        load_csv_dataset(p)


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
