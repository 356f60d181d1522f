import csv
import itertools

import numpy as np
import pytest


@pytest.fixture(scope="session")
def wine_csv(tmp_path_factory):
    """UCI-format Wine table (class label first, 13 features), materialized
    from scikit-learn's bundled copy of the same data."""
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    wine = sklearn_datasets.load_wine()
    path = tmp_path_factory.mktemp("data") / "wine.data"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for label, row in zip(wine.target, wine.data):
            writer.writerow([int(label) + 1] + [repr(float(v)) for v in row])
    return str(path)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def synthetic_wine(tmp_path):
    """Factory writing a UCI-format Wine table; returns (path, labels, features).

    The default table has the real one's shape without its values: 178 rows
    of 13 random features, classes 1..3 of sizes 59/71/48 in shuffled row
    order, and a leading ``#`` comment line.  Pass ``labels``/``features``
    to write a variant.
    """
    rng = np.random.default_rng(178)
    default_labels = rng.permutation(np.repeat([1, 2, 3], [59, 71, 48]))
    scales = rng.uniform(0.5, 20.0, size=13)
    default_features = (rng.normal(size=(178, 13)) + default_labels[:, None]) * scales
    names = itertools.count()

    def write(labels=default_labels, features=default_features):
        path = tmp_path / f"wine{next(names)}.data"
        lines = ["# synthetic table in the UCI Wine layout"]
        for label, row in zip(labels, features):
            lines.append(",".join([str(int(label))] + [repr(float(v)) for v in row]))
        path.write_text("\n".join(lines) + "\n")
        return str(path), np.asarray(labels), np.asarray(features, dtype=float)

    return write
