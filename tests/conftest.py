import csv

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
