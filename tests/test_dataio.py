import csv

import numpy as np
import pytest

from fusecluster.dataio import read_points_csv, write_points_csv, write_table_csv
from fusecluster.model import ObservedDataset


class TestRoundTrip:
    def test_full_data(self, tmp_path, rng):
        values = rng.normal(size=(3, 5))
        data = ObservedDataset.full(values)
        path = tmp_path / "points.csv"
        write_points_csv(path, data)
        loaded, truth = read_points_csv(path)
        assert truth is None
        np.testing.assert_array_equal(loaded.values, values)
        assert loaded.mask.all()

    def test_missing_entries_round_trip(self, tmp_path, rng):
        values = rng.normal(size=(4, 6))
        mask = rng.random((4, 6)) < 0.6
        mask[0, 0] = True
        data = ObservedDataset(values, mask)
        path = tmp_path / "points.csv"
        write_points_csv(path, data)
        loaded, _ = read_points_csv(path)
        np.testing.assert_array_equal(loaded.mask, mask)
        np.testing.assert_array_equal(loaded.values[mask], values[mask])

    def test_labels_round_trip(self, tmp_path):
        values = np.array([[0.0, 1.0, 2.0]])
        path = tmp_path / "pts.csv"
        path.write_text("0.0,0\n1.0,1\n2.0,0\n")
        loaded, truth = read_points_csv(path, labeled=True)
        assert truth.labels.tolist() == [0, 1, 0]
        np.testing.assert_array_equal(loaded.values, values)

    @pytest.mark.parametrize("raw, expected", [((1, 2, 1), [0, 1, 0]), ((5, 0, 5), [1, 0, 1])])
    def test_labels_renumbered_in_sorted_order(self, tmp_path, raw, expected):
        path = tmp_path / "pts.csv"
        path.write_text("".join(f"{i}.0,{lab}\n" for i, lab in enumerate(raw)))
        _, truth = read_points_csv(path, labeled=True)
        assert truth.labels.tolist() == expected


class TestReadFormats:
    def test_nan_literal_and_empty_field(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("1.5,NaN,2.5\n,nan,3.5\n")
        data, _ = read_points_csv(path)
        expected_mask = np.array([[True, False], [False, False], [True, True]])
        np.testing.assert_array_equal(data.mask, expected_mask)
        assert data.values[0, 0] == 1.5 and data.values[2, 1] == 3.5

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# header: stuff\n1.0,2.0\n")
        data, _ = read_points_csv(path)
        assert data.point_count == 1 and data.feature_count == 2

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="inconsistent"):
            read_points_csv(path)

    def test_fractional_label_rejected(self, tmp_path):
        # int() would truncate 1.7 and 1.2 to one class.
        path = tmp_path / "labeled.csv"
        path.write_text("0.0,1.7\n0.1,1.2\n9.0,2\n9.1,2.0\n")
        with pytest.raises(ValueError, match="label '1.7' is not an integer"):
            read_points_csv(path, labeled=True)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="no data"):
            read_points_csv(path)


def csv_writer_reference(path, data, header_lines):
    """The bytes of the csv.writer form of write_points_csv."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        for values, mask in zip(data.values.T.tolist(), data.mask.T.tolist()):
            writer.writerow([repr(v) if m else "" for v, m in zip(values, mask)])


class TestPointsWriter:
    @pytest.mark.parametrize(
        "values, mask",
        [
            (
                [[-0.0, 5e-324, 1e16, 1.0], [1e-5, 2.0, -3.5, 4.0], [7.0, 8.0, 9.0, 0.1]],
                [[True, True, False, False], [True, False, True, False],
                 [True, True, True, False]],
            ),
            ([[-0.0, 5e-324, 1e16, 1e-5]], [[True, False, True, True]]),
            ([[-0.0, 5e-324, 1e16, 1e-5]], [[True, True, True, True]]),
        ],
        ids=["masked", "p1-masked", "p1-full"],
    )
    def test_bytes_equal_the_csv_writer(self, tmp_path, values, mask):
        # Column 3 of the masked case is an all-unobserved row, and the
        # P = 1 one a one-field row that csv.writer quotes as "".
        data = ObservedDataset(np.array(values), np.array(mask))
        header = ("version: test", "seed: 0")
        write_points_csv(tmp_path / "new.csv", data, header_lines=header)
        csv_writer_reference(tmp_path / "ref.csv", data, header)
        got = (tmp_path / "new.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == data.point_count


class TestTableWriter:
    def test_header_and_rendering(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table_csv(
            path,
            ("name", "value", "flag"),
            [("a", 0.5, True), ("b", 2.0, False)],
            header_lines=("version: test", "seed: 0"),
        )
        text = path.read_text().splitlines()
        assert text[0] == "# version: test"
        assert text[1] == "# seed: 0"
        assert text[2] == "name,value,flag"
        assert text[3] == "a,0.5,true"

    def test_float_rendering_round_trips(self, tmp_path):
        path = tmp_path / "floats.csv"
        value = 0.1234567890123456789
        write_table_csv(path, ("v",), [(value,)])
        loaded = float(path.read_text().splitlines()[1])
        assert loaded == value
