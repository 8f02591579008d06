import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from elmloc.dataset import NOT_DETECTED, RadioMap
from elmloc.preprocess import (
    EXPONENT,
    PreprocessParams,
    apply_powed,
    apply_preprocess,
    apply_unit_norm,
    fit_powed,
    fit_preprocess,
    fit_unit_norm,
    params_from_dict,
    params_to_dict,
)

# Reference values below were computed separately with mpmath at 50 digits.
HALF_POW_E = 0.15195522325791297  # 0.5 ** e


def test_default_exponent_is_e():
    assert EXPONENT == math.e


class TestPowed:
    def test_midpoint_reference_value(self):
        # min over detected train readings is -110; a -55 reading sits at
        # base ((-55) - (-110)) / 110 = 0.5
        params = fit_powed(np.array([[-110.0, -55.0]]))
        assert params.min_rss == -110.0
        out = apply_powed(np.array([[-55.0]]), params)
        assert out[0, 0] == pytest.approx(HALF_POW_E, abs=1e-15)

    def test_sentinel_maps_to_zero(self):
        params = fit_powed(np.array([[-80.0, -40.0]]))
        out = apply_powed(np.array([[NOT_DETECTED, -40.0]]), params)
        assert out[0, 0] == 0.0
        # -40 sits halfway between the fitted min and 0 dBm
        assert out[0, 1] == pytest.approx(HALF_POW_E, abs=1e-15)

    def test_min_maps_to_zero_and_weaker_clips(self):
        params = fit_powed(np.array([[-80.0, -40.0]]))
        out = apply_powed(np.array([[-80.0, -90.0]]), params)
        assert out[0, 0] == 0.0
        assert out[0, 1] == 0.0  # below the fitted min: clipped, not negative

    def test_min_is_global_scalar_not_per_column(self):
        params = fit_powed(np.array([[-100.0, -30.0], [-60.0, -20.0]]))
        assert params.min_rss == -100.0

    def test_fit_ignores_sentinel(self):
        params = fit_powed(np.array([[NOT_DETECTED, -70.0]]))
        assert params.min_rss == -70.0

    def test_fit_needs_a_detected_reading(self):
        with pytest.raises(ValueError, match="no detected"):
            fit_powed(np.zeros((3, 4)))

    def test_accepts_radio_map(self):
        m = RadioMap(rss=np.array([[-90.0, -45.0]]), floor=np.array([0]))
        assert fit_powed(m).min_rss == -90.0

    @given(st.floats(min_value=-109.0, max_value=-1.0))
    def test_codomain(self, v):
        params = fit_powed(np.array([[-110.0, -1.0]]))
        out = apply_powed(np.array([[v]]), params)
        assert 0.0 <= out[0, 0] <= 1.0

    @given(
        st.floats(min_value=-109.0, max_value=-2.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_monotone_in_signal_strength(self, v, delta):
        params = fit_powed(np.array([[-110.0, -1.0]]))
        stronger = min(v + delta, -1.0)
        lo, hi = apply_powed(np.array([[v, stronger]]), params)[0]
        assert lo <= hi


    @given(
        arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
               elements=st.sampled_from([0.0, -0.0, -1.0, -30.0, -55.5, -99.0, -100.0,
                                         -101.0, -140.0, -0.25])),
        st.floats(min_value=-120.0, max_value=-0.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_reference(self, rss, min_rss):
        # includes readings below the training minimum, which clamp to 0
        params = PreprocessParams(min_rss=min_rss)
        base = (rss - params.min_rss) / (-params.min_rss)
        np.clip(base, 0.0, None, out=base)
        reference = base**math.e
        reference[rss == NOT_DETECTED] = 0.0
        out = apply_powed(rss, params)
        assert out.shape == reference.shape
        assert out.tobytes() == reference.tobytes()


class TestUnitNorm:
    def test_per_feature_columns_normalized(self, rng):
        x = rng.random((20, 5))
        params = fit_powed(-np.ones((1, 5)))
        params = fit_unit_norm(x, params)
        out = apply_unit_norm(x, params)
        assert np.linalg.norm(out, axis=0) == pytest.approx(np.ones(5), abs=1e-9)

    def test_all_zero_column_stays_zero(self):
        x = np.array([[0.0, 0.5], [0.0, 0.5]])
        params = fit_unit_norm(x, fit_powed(-np.ones((1, 2))))
        out = apply_unit_norm(x, params)
        assert (out[:, 0] == 0.0).all()
        assert np.isfinite(out).all()

    def test_stored_norms_are_raw(self):
        # the zero-column guard must happen at apply time, not in the stored
        # vector, so the params faithfully describe the training columns
        x = np.array([[0.0, 3.0], [0.0, 4.0]])
        params = fit_unit_norm(x, fit_powed(-np.ones((1, 2))))
        assert params.feature_norms.tolist() == [0.0, 5.0]

    def test_per_sample_reference_row(self):
        params = PreprocessParams(min_rss=-110.0, mode="per_sample")
        out = apply_unit_norm(np.array([[1.0, 3.0]]), params)
        # (1, 3) / sqrt(10), high-precision reference
        assert out[0, 0] == pytest.approx(0.31622776601683794, abs=1e-15)
        assert out[0, 1] == pytest.approx(0.9486832980505138, abs=1e-15)

    def test_per_sample_zero_row_guarded(self):
        params = PreprocessParams(min_rss=-110.0, mode="per_sample")
        out = apply_unit_norm(np.zeros((2, 3)), params)
        assert np.isfinite(out).all()

    def test_per_sample_rows_normalized(self, rng):
        params = PreprocessParams(min_rss=-110.0, mode="per_sample")
        x = rng.random((10, 4)) + 0.1
        out = apply_unit_norm(x, params)
        assert np.linalg.norm(out, axis=1) == pytest.approx(np.ones(10), abs=1e-9)

    def test_per_feature_requires_fit(self):
        params = PreprocessParams(min_rss=-110.0)
        with pytest.raises(ValueError, match="norm"):
            apply_unit_norm(np.ones((2, 2)), params)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PreprocessParams(min_rss=-110.0, mode="global")

    def test_per_sample_takes_no_norms(self):
        # apply would ignore them, so they are refused rather than kept unread
        with pytest.raises(ValueError, match=r"^per_sample mode takes no feature_norms$"):
            PreprocessParams(min_rss=-110.0, mode="per_sample", feature_norms=[1.0, 2.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_norms_rejected(self, value):
        # an infinite norm would divide its AP column to zero
        with pytest.raises(ValueError, match=r"^feature_norms contains non-finite values$"):
            PreprocessParams(min_rss=-110.0, feature_norms=np.array([1.0, value, 2.0]))


class TestComposition:
    def test_fit_apply_end_to_end(self, syn_small):
        train, test = syn_small
        params = fit_preprocess(train)
        x = apply_preprocess(test.rss, params)
        assert x.shape == test.rss.shape
        assert (x >= 0.0).all()
        assert np.isfinite(x).all()
        # training columns with any detected reading come out unit-norm
        xt = apply_preprocess(train.rss, params)
        norms = np.linalg.norm(xt, axis=0)
        active = norms > 0
        assert norms[active] == pytest.approx(np.ones(active.sum()), abs=1e-9)

    def test_radio_map_and_matrix_agree(self, syn_small):
        train, test = syn_small
        params = fit_preprocess(train)
        assert (apply_preprocess(test, params) == apply_preprocess(test.rss, params)).all()

    def test_params_round_trip(self, syn_small):
        train, _ = syn_small
        params = fit_preprocess(train, mode="per_feature")
        back = params_from_dict(params_to_dict(params))
        assert back.min_rss == params.min_rss
        assert back.mode == params.mode
        assert (back.feature_norms == params.feature_norms).all()

    def test_per_sample_round_trip(self):
        params = fit_preprocess(np.array([[-50.0, 0.0]]), mode="per_sample")
        back = params_from_dict(params_to_dict(params))
        assert back.mode == "per_sample"
        assert back.feature_norms is None
