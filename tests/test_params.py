"""Validation of soliton data: only the normalized form builds."""

import pytest

from lagsol.errors import ValidationError
from lagsol.params import SolitonParams


def test_validation_rejects_degenerate_data():
    with pytest.raises(ValidationError):
        SolitonParams((), 1.0, 0.0)
    with pytest.raises(ValidationError):
        SolitonParams((1.0, 0.0), 1.0, 0.0)
    with pytest.raises(ValidationError):
        SolitonParams((1.0,), 0.0, 1.0)


NORMALIZED = "^each lambda must be \\+1 or -1, positives first, with C = 1$"


def test_only_normalized_data_builds():
    params = SolitonParams((1.0, 1.0, -1.0), 1.0, 0.5)
    assert (params.lambdas, params.C, params.alpha) == ((1.0, 1.0, -1.0), 1.0, 0.5)
    assert (params.n, params.num_positive) == (3, 2)
    for lambdas, C in [((1.0, -1.0, 1.0), 1.0),    # order
                       ((1.0, -1.0), 2.0),         # C
                       ((2.0, -1.0), 1.0),         # magnitude
                       ((1.0, 0.0), 1.0)]:         # zero lambda
        with pytest.raises(ValidationError, match=NORMALIZED):
            SolitonParams(lambdas, C, 0.5)
