import json

import numpy as np
import pytest

from spectral_bounds import inputs_digest, make_report


class TestMakeReport:
    def test_upper_holds(self):
        r = make_report("demo", 3.0, bound_value=10.0, computed_value=9.0,
                        direction="upper")
        assert r.holds and r.slack_ratio == pytest.approx(0.9)

    def test_upper_violated(self):
        r = make_report("demo", 3.0, bound_value=10.0, computed_value=10.1,
                        direction="upper")
        assert not r.holds

    def test_lower_direction(self):
        r = make_report("demo", 1.0, bound_value=2.0, computed_value=3.0,
                        direction="lower")
        assert r.holds and r.slack_ratio == pytest.approx(2.0 / 3.0)
        r2 = make_report("demo", 1.0, bound_value=2.0, computed_value=1.5,
                         direction="lower")
        assert not r2.holds

    def test_tolerance_scales_with_bound(self):
        big = 1e9
        r = make_report("demo", 1.0, bound_value=big,
                        computed_value=big * (1 + 5e-10), direction="upper")
        assert r.holds  # within 1e-9 relative slop
        r2 = make_report("demo", 1.0, bound_value=big,
                         computed_value=big * (1 + 5e-9), direction="upper")
        assert not r2.holds

    def test_slack_requires_positive_pair(self):
        r = make_report("demo", 1.0, bound_value=5.0, computed_value=-1.0,
                        direction="upper")
        assert r.holds and r.slack_ratio is None
        r2 = make_report("demo", 1.0, bound_value=-2.0, computed_value=-3.0,
                         direction="upper")
        assert r2.slack_ratio is None

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            make_report("demo", 1.0, bound_value=1.0, computed_value=1.0,
                        direction="sideways")

    def test_json_keys(self):
        r = make_report("demo", 2.0, bound_value=4.0, computed_value=3.0,
                        direction="upper", notes=("a note",))
        d = r.to_json_dict()
        assert set(d) == {"kind", "parameter", "bound", "computed", "slack",
                          "holds", "notes"}
        json.dumps(d)  # serializable

    def test_csv_row_shape(self):
        r = make_report("demo", 2.0, bound_value=4.0, computed_value=3.0,
                        direction="upper")
        row = r.csv_row()
        assert row[0] == "demo"
        assert row[-1] == "true"
        assert float(row[2]) == 4.0

    def test_numpy_scalar_sides_give_python_floats(self):
        r = make_report("demo", np.float64(2.0), bound_value=np.float64(4.0),
                        computed_value=np.float64(3.0), direction="upper")
        assert type(r.slack_ratio) is float
        assert r.csv_row()[4] == "0.75"


class TestDigest:
    def test_stable(self):
        assert inputs_digest("a", 1, 2.5) == inputs_digest("a", 1, 2.5)

    def test_sensitive(self):
        assert inputs_digest("a", 1) != inputs_digest("a", 2)

    def test_length(self):
        assert len(inputs_digest("x")) == 12
