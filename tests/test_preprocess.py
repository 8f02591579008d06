import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from elmloc.dataset import NOT_DETECTED, RadioMap
from elmloc.pipeline import PipelineConfig, fit_pipeline, load_model, save_model
from elmloc.preprocess import (
    EXPONENT,
    PreprocessParams,
    _fit_transform,
    apply_powed,
    apply_preprocess,
    fit_powed,
    fit_preprocess,
)


def _round_trip(train, norm_mode, path):
    """The preprocess state of a model fitted on ``train``, and of it saved to
    ``path`` and loaded."""
    model = fit_pipeline(train, PipelineConfig(L=5, c=1.0, norm_mode=norm_mode))
    save_model(model, path)
    return model.preprocess, load_model(path).preprocess


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


def _detected(rng, shape):
    """RSS readings, all detected: uniform on [-100, -30) dBm."""
    return rng.uniform(-100.0, -30.0, size=shape)


class TestUnitNorm:
    def test_per_feature_columns_normalized(self, rng):
        rss = _detected(rng, (20, 5))
        out = apply_preprocess(rss, fit_preprocess(rss))
        assert np.linalg.norm(out, axis=0) == pytest.approx(np.ones(5), abs=1e-9)

    def test_all_zero_column_stays_zero(self):
        rss = np.array([[NOT_DETECTED, -55.0], [NOT_DETECTED, -110.0]])
        out = apply_preprocess(rss, fit_preprocess(rss))
        assert (out[:, 0] == 0.0).all()
        assert np.isfinite(out).all()

    def test_stored_norms_are_raw(self):
        # the zero-column guard must happen at apply time, not in the stored
        # vector, so the params faithfully describe the training columns;
        # the powed column is (0.5 ** e, 0), whose norm is 0.5 ** e
        params = fit_preprocess(np.array([[NOT_DETECTED, -55.0], [NOT_DETECTED, -110.0]]))
        assert params.feature_norms[0] == 0.0
        assert params.feature_norms[1] == pytest.approx(HALF_POW_E, abs=1e-15)

    def test_divisors_built_once(self, rng):
        # the zero-norm guard is per model, not per query; the output is bitwise
        # the division by the guarded norms
        rss = _detected(rng, (20, 5))
        rss[:, 2] = NOT_DETECTED
        params = fit_preprocess(rss)
        queries = _detected(rng, (3, 5))
        out = apply_preprocess(queries, params)
        divisors = params._divisors
        assert divisors[2] == 1.0 and params.feature_norms[2] == 0.0
        assert not divisors.flags.writeable
        want = apply_powed(queries, params) / np.where(params.feature_norms == 0.0, 1.0,
                                                       params.feature_norms)
        assert out.tobytes() == want.tobytes()
        assert apply_preprocess(queries, params).tobytes() == out.tobytes()
        assert params._divisors is divisors

    def test_per_sample_reference_row(self):
        params = PreprocessParams(min_rss=-110.0, mode="per_sample")
        out = apply_preprocess(np.array([[-55.0, -20.0, NOT_DETECTED]]), params)
        # (0.5 ** e, (90 / 110) ** e, 0) / its norm, high-precision reference
        assert out[0, 0] == pytest.approx(0.25361662676548493, abs=1e-15)
        assert out[0, 1] == pytest.approx(0.9673048157784064, abs=1e-15)
        assert out[0, 2] == 0.0

    def test_per_sample_zero_row_guarded(self):
        params = PreprocessParams(min_rss=-110.0, mode="per_sample")
        out = apply_preprocess(np.zeros((2, 3)), params)  # nothing detected
        assert (out == 0.0).all()

    def test_per_sample_rows_normalized(self, rng):
        params = PreprocessParams(min_rss=-110.0, mode="per_sample")
        out = apply_preprocess(_detected(rng, (10, 4)), params)
        assert np.linalg.norm(out, axis=1) == pytest.approx(np.ones(10), abs=1e-9)

    def test_per_feature_requires_fit(self):
        params = PreprocessParams(min_rss=-110.0)
        with pytest.raises(ValueError, match="norm"):
            apply_preprocess(-np.ones((2, 2)), params)

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


def _dense_reference(rss, params):
    """Both stages over every cell of ``rss``, as one dense formula."""
    base = (rss - params.min_rss) / (-params.min_rss)
    np.clip(base, 0.0, None, out=base)
    x = base**math.e
    x[rss == NOT_DETECTED] = 0.0
    if params.mode == "per_sample":
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        return x / np.where(norms == 0.0, 1.0, norms)
    return x / np.where(params.feature_norms == 0.0, 1.0, params.feature_norms)


class TestDetectedCells:
    """Preprocessing reads and writes only detected cells, bitwise the dense formula."""

    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.04, 0.21]),
           st.sampled_from(["per_feature", "per_sample"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_formula(self, seed, density, mode):
        r = np.random.default_rng(seed)
        n, d = int(r.integers(2, 80)), int(r.integers(3, 30))
        def draw(rows):
            readings = r.uniform(-110.0, -30.0, size=(rows, d))
            return np.where(r.random((rows, d)) < density, readings, NOT_DETECTED)
        train = draw(n)
        train[0, 0] = -110.0  # at least one detection, at the training minimum
        train[r.integers(1, n)] = NOT_DETECTED  # an all-silent row
        train[:, 1] = NOT_DETECTED  # a column training never heard: zero norm
        train[:, 2] = np.where(train[:, 2] == NOT_DETECTED, NOT_DETECTED, -110.0)  # powed 0
        queries = draw(int(r.integers(1, 20)))
        queries[0] = NOT_DETECTED  # an all-silent query
        queries[-1, 0] = -150.0  # below the training minimum: clamped
        queries[-1, 1] = -60.0  # heard where training heard nothing
        params, x = _fit_transform(train, mode)
        dense_train = _dense_reference(train, params)
        if mode == "per_feature":
            assert params.feature_norms[1] == params.feature_norms[2] == 0.0
        assert x.tobytes() == dense_train.tobytes()
        assert apply_preprocess(train, params).tobytes() == dense_train.tobytes()
        assert apply_preprocess(queries, params).tobytes() == _dense_reference(queries, params).tobytes()


class TestColumnNorms:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 60), st.integers(1, 12),
           st.sampled_from([0.04, 0.3, 1.0]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bitwise_the_dense_norms(self, seed, n, d, density, data):
        # the norms are summed from the detected cells alone, in row order, as
        # np.linalg.norm sums every cell of the powed matrix; one column (d = 1)
        # numpy sums pairwise, and the fit leaves that column to it
        r = np.random.default_rng(seed)
        rss = np.where(r.random((n, d)) < density, r.uniform(-110.0, -30.0, (n, d)), NOT_DETECTED)
        rss[0, 0] = -105.0  # at least one detection
        silent = data.draw(st.lists(st.integers(1, d - 1), max_size=d - 1)) if d > 1 else []
        rss[:, silent] = NOT_DETECTED  # columns training never heard: zero norm
        norms = fit_preprocess(rss).feature_norms
        want = np.linalg.norm(apply_powed(rss, fit_powed(rss)), axis=0)
        assert norms.tobytes() == want.tobytes()
        assert (norms[silent] == 0.0).all()


class TestRawMatrixChecked:
    @pytest.mark.parametrize("bad, message", [
        (100.0, r"^{}: detected RSS values must be <= 0 dBm; found 100.0 "),
        (np.nan, r"^{} contains non-finite values$"),
        (np.inf, r"^{} contains non-finite values$"),
    ], ids=["sentinel", "nan", "inf"])
    @pytest.mark.parametrize("stage", ["fit", "apply"])
    def test_rejected_by_argument_name(self, stage, bad, message):
        # a sentinel that was never remapped would otherwise pass through powed
        # as a value above 1, and NaN as NaN
        raw = np.array([[bad, -50.0, NOT_DETECTED]])
        if stage == "fit":
            call, name = (lambda: fit_preprocess(raw)), "train"
        else:
            params = fit_preprocess(np.array([[-80.0, -40.0, 0.0], [-60.0, 0.0, -70.0]]))
            call, name = (lambda: apply_preprocess(raw, params)), "data"
        with pytest.raises(ValueError, match=message.format(name)):
            call()

    @pytest.mark.parametrize("raw, message", [
        (np.array([-50.0, -60.0, NOT_DETECTED]),
         r"data must be N x d, got shape \(3,\)"),
        (np.full((1, 4), -50.0), r"norms fitted for 3 features, input has 4"),
    ], ids=["one_d", "wider_than_norms"])
    def test_bad_shape_refused(self, raw, message):
        params = fit_preprocess(np.array([[-80.0, -40.0, 0.0], [-60.0, 0.0, -70.0]]))
        with pytest.raises(ValueError, match=f"^{message}$"):
            apply_preprocess(raw, params)


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

    def test_params_round_trip(self, syn_small, tmp_path):
        train, _ = syn_small
        params, back = _round_trip(train, "per_feature", tmp_path / "m.json")
        assert back.min_rss == params.min_rss
        assert back.mode == params.mode
        assert (back.feature_norms == params.feature_norms).all()

    def test_per_sample_round_trip(self, syn_small, tmp_path):
        _, back = _round_trip(syn_small[0], "per_sample", tmp_path / "m.json")
        assert back.mode == "per_sample"
        assert back.feature_norms is None
