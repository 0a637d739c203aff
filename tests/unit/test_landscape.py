"""Unit tests for the MP landscape sweep."""

import numpy as np
import pytest

from repro.analysis.landscape import MPLandscape, sweep_landscape
from repro.errors import ValidationError
from repro.marketplace import RatingChallenge


@pytest.fixture(scope="module")
def challenge():
    return RatingChallenge(seed=21)


class TestMPLandscape:
    def make(self):
        return MPLandscape(
            scheme_name="SA",
            bias_values=np.array([-3.0, -1.0]),
            std_values=np.array([0.1, 0.9]),
            mp=np.array([[2.0, 1.8], [1.0, 0.9]]),
        )

    def test_peak(self):
        assert self.make().peak == (-3.0, 0.1, 2.0)

    def test_means(self):
        landscape = self.make()
        np.testing.assert_allclose(landscape.row_means(), [1.9, 0.95])
        np.testing.assert_allclose(landscape.column_means(), [1.5, 1.35])

    def test_shape_validated(self):
        with pytest.raises(ValidationError):
            MPLandscape(
                scheme_name="SA",
                bias_values=np.array([-3.0]),
                std_values=np.array([0.1, 0.9]),
                mp=np.zeros((2, 2)),
            )

    def test_to_text(self):
        text = self.make().to_text()
        assert "MP landscape" in text
        assert "peak" in text

    def test_grid_frozen(self):
        landscape = self.make()
        with pytest.raises(ValueError):
            landscape.mp[0, 0] = 9.0


class TestSweepLandscape:
    def test_grid_dimensions(self, challenge):
        landscape = sweep_landscape(
            challenge, "SA",
            bias_values=(-3.0, -1.0), std_values=(0.2,), probes=1, seed=0,
        )
        assert landscape.mp.shape == (2, 1)
        assert landscape.scheme_name == "SA"

    def test_bias_monotone_under_sa(self, challenge):
        landscape = sweep_landscape(
            challenge, "SA",
            bias_values=(-3.5, -1.0), std_values=(0.2,), probes=2, seed=1,
        )
        assert landscape.mp[0, 0] > landscape.mp[1, 0]

    def test_invalid_probes(self, challenge):
        with pytest.raises(ValidationError):
            sweep_landscape(
                challenge, "SA",
                bias_values=(-1.0,), std_values=(0.1,), probes=0,
            )

    def test_non_integer_seed_rejected(self, challenge):
        with pytest.raises(ValidationError):
            sweep_landscape(
                challenge, "SA", bias_values=(-1.0,), std_values=(0.1,),
                seed=np.random.default_rng(0),
            )

    def test_empty_grid_rejected(self, challenge):
        with pytest.raises(ValidationError):
            sweep_landscape(
                challenge, "SA", bias_values=(),
                std_values=(0.1,),
            )
