import math

import pytest

from treetail import DeterministicWeight, Pareto, Shifted, ZetaTail, records
from treetail.errors import ConfigError


@pytest.mark.parametrize("value,expected", [
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    ((1.5, math.inf), [1.5, "inf"]),
    ({2: -math.inf}, {"2": "-inf"}),
    (None, None),
])
def test_infinities_are_written_as_markers(value, expected):
    assert records.to_json(value) == expected


def test_laws_write_their_dataclass_fields_under_their_tag():
    law = DeterministicWeight(Shifted(Pareto(2.5, 1.0), -2.0), ZetaTail(2.0), 0.25)
    assert law.to_json() == {"model": "deterministic_weight", "params": {
        "q_dist": {"kind": "shifted", "params": {
            "inner": {"kind": "pareto", "params": {"alpha": 2.5, "x_min": 1.0}}, "offset": -2.0}},
        "n_dist": {"kind": "zeta_tail", "params": {"alpha": 2.0}},
        "c": 0.25,
    }}
    assert records.to_json(law) == law.to_json()


@pytest.mark.parametrize("value", [3, 2.5, -0.0, 1e308])
def test_a_finite_number_is_read_as_a_float(value):
    x = records.number(value, "p")
    assert type(x) is float and x == value


@pytest.mark.parametrize("value", [True, False, "2.5", None, [1.0], math.nan, math.inf, -math.inf, 10 ** 400])
def test_anything_but_a_finite_number_is_refused(value):
    with pytest.raises(ConfigError, match="p must be a finite number"):
        records.number(value, "p")

