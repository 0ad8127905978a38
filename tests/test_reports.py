import json

import numpy as np
import pytest

from sublevel_lab.reports import dumps_json, write_json


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   np.float64("-inf")],
                         ids=["nan", "inf", "numpy-minus-inf"])
def test_non_finite_report_raises_and_writes_nothing(tmp_path, value):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_json(path, {"rows": [{"check": "x", "statistic": value}]})
    assert not path.exists()


def test_finite_report_is_strict_json():
    text = dumps_json({"b": np.float64(0.1), "a": [1, np.int64(2)]})
    assert text == '{"a":[1,2],"b":0.1}\n'
    json.loads(text, parse_constant=lambda token: pytest.fail(token))
