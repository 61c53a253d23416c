"""Validation of soliton data and the normalized-form test."""

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


def test_is_normalized_flag():
    assert SolitonParams((1.0, 1.0, -1.0), 1.0, 0.5).is_normalized
    assert not SolitonParams((1.0, -1.0, 1.0), 1.0, 0.5).is_normalized  # order
    assert not SolitonParams((1.0, -1.0), 2.0, 0.5).is_normalized       # C
    assert not SolitonParams((2.0, -1.0), 1.0, 0.5).is_normalized       # magnitude
