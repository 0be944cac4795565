import json

import numpy as np
import pytest

from multisecretary import (
    BadPmf,
    InfeasiblePair,
    ModelError,
    NonDecreasingSupport,
    NonPositiveValue,
    dist_from_json,
    half_min_mass,
    new_distribution,
    thresholds,
)
from multisecretary.cli import kleinberg_distribution
from oracles import action_index_j0, sample_searchsorted, threshold_bucket


def _tiny_mass_dists():
    # f_min = 1e-9: one tiny cell at m=5, a run of three at m=200, so that
    # one guide bucket holds several cell edges
    f200 = np.full(200, 1.0 / 197)
    f200[[0, 1, 2, 3, 4, 5, 6]] = [1 / 197 - 3e-9, 1e-9, 1e-9, 1e-9, 1 / 197, 1 / 197, 1 / 197]
    return [
        new_distribution([5.0, 4.0, 3.0, 2.0, 1.0], [0.25, 1e-9, 0.25, 0.25, 0.25 - 1e-9]),
        new_distribution(np.linspace(2.0, 0.2, 200), f200 / f200.sum()),
    ]


GUIDE_DISTS = [new_distribution(np.linspace(2.0, 0.2, m), [1.0 / m] * m) for m in (1, 5, 50, 200)]
GUIDE_DISTS += _tiny_mass_dists()


class TestConstruction:
    def test_five_point_uniform_ok(self, uniform5):
        assert uniform5.m == 5
        assert uniform5.support[0] == 2.00

    def test_degenerate_single_point(self):
        d = new_distribution([1.0], [1.0])
        assert d.m == 1
        assert d.mean() == 1.0

    def test_increasing_support_rejected(self):
        with pytest.raises(NonDecreasingSupport):
            new_distribution([1.0, 2.0], [0.5, 0.5])

    def test_duplicate_support_rejected(self):
        with pytest.raises(NonDecreasingSupport):
            new_distribution([2.0, 2.0, 1.0], [0.3, 0.3, 0.4])

    def test_nonpositive_bottom_rejected(self):
        with pytest.raises(NonPositiveValue):
            new_distribution([1.0, 0.0], [0.5, 0.5])
        with pytest.raises(NonPositiveValue):
            new_distribution([1.0, -0.5], [0.5, 0.5])

    @pytest.mark.parametrize(
        "pmf",
        [[0.5, 0.6], [0.5, -0.1, 0.6], [0.5, 0.0, 0.5], [0.25] * 3],
    )
    def test_bad_masses_rejected(self, pmf):
        support = list(range(len(pmf), 0, -1))
        with pytest.raises(BadPmf):
            new_distribution(support, pmf)

    def test_support_size_fits_int16_ranks(self):
        # ranks are int16: m=40000 was accepted and sample_many returned -25536
        m = 32767
        d = new_distribution(np.arange(m, 0, -1.0), np.full(m, 1.0 / m))
        assert d.sample_many(np.array([0.0, 0.999999999])).tolist() == [1, m]
        with pytest.raises(ModelError, match="at most 32767"):
            new_distribution(np.arange(m + 1, 0, -1.0), np.full(m + 1, 1.0 / (m + 1)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(BadPmf):
            new_distribution([2.0, 1.0], [1.0])
        with pytest.raises(BadPmf):
            new_distribution([], [])

    def test_tiny_sum_slack_renormalized(self):
        d = new_distribution([2.0, 1.0], [0.5, 0.5 + 5e-13])
        assert d.pmf.sum() == pytest.approx(1.0, abs=0)

    def test_arrays_are_immutable(self, uniform5):
        with pytest.raises(ValueError):
            uniform5.pmf[0] = 0.9


class TestSurvival:
    def test_third_point(self, uniform5):
        assert uniform5.survival_values[3 - 1] == pytest.approx(0.4, abs=1e-15)

    def test_endpoints(self, uniform5, uniform3):
        for d in (uniform5, uniform3):
            assert d.survival_values[0] == 0.0
            assert d.survival_values[d.m] == 1.0

    def test_strictly_increasing(self, masspoint5):
        assert np.all(np.diff(masspoint5.survival_values) > 0)


class TestThresholds:
    def test_five_point_values(self, uniform5):
        thr = thresholds(uniform5)
        np.testing.assert_allclose(thr[:-1], [0.0, 0.3, 0.5, 0.7, 0.9], atol=1e-12)
        assert np.isposinf(thr[-1]) and thr.shape == (6,) and not thr.flags.writeable

    def test_kleinberg_t2(self):
        d = kleinberg_distribution(0.01)
        assert thresholds(d)[2 - 1] == pytest.approx(0.47, abs=1e-12)

    def test_single_point(self):
        thr = thresholds(new_distribution([1.0], [1.0]))
        assert thr[0] == 0.0 and np.isposinf(thr[1])

    def test_interleaving_and_half_mass_gaps(self, masspoint5):
        d = masspoint5
        thr = thresholds(d)
        sv = d.survival_values
        for j in range(2, d.m + 1):
            t = thr[j - 1]
            assert sv[j - 1] < t < sv[j]
            assert t - sv[j - 1] == pytest.approx(d.pmf[j - 1] / 2, abs=1e-15)
            assert sv[j] - t == pytest.approx(d.pmf[j - 1] / 2, abs=1e-15)

    def test_strictly_increasing(self, uniform10):
        vals = thresholds(uniform10)
        assert np.all(np.diff(vals[:-1]) > 0)

    def test_bucket_covers_every_ratio(self, masspoint5):
        thr = thresholds(masspoint5)
        rng = np.random.default_rng(5)
        for r in np.concatenate([rng.uniform(0, 1.5, 500), thr[:-1]]):
            j = threshold_bucket(thr, r)
            assert 1 <= j <= masspoint5.m
            assert thr[j - 1] <= r + 1e-12
            assert r + 1e-12 < thr[j]


class TestHalfMinMass:
    def test_values(self, uniform5, masspoint5):
        assert half_min_mass(uniform5) == pytest.approx(0.1, abs=1e-15)
        assert half_min_mass(masspoint5) == pytest.approx(5 / 56, abs=1e-15)
        assert half_min_mass(new_distribution([1.0], [1.0])) == 0.5


class TestActionIndex:
    # the reference j0 that the offline decomposition test classifies k/n by
    def test_paper_example(self, uniform5):
        assert action_index_j0(uniform5, 1000, 300) == 2

    def test_extremes(self, uniform5, uniform3):
        for d in (uniform5, uniform3):
            assert action_index_j0(d, 100, 0) == 1
            assert action_index_j0(d, 100, 100) == d.m

    def test_infeasible(self, uniform5):
        with pytest.raises(InfeasiblePair):
            action_index_j0(uniform5, 10, 11)
        with pytest.raises(InfeasiblePair):
            action_index_j0(uniform5, 0, 0)

    def test_monotone_in_k(self, masspoint5):
        n = 173
        idx = [action_index_j0(masspoint5, n, k) for k in range(n + 1)]
        assert all(a <= b for a, b in zip(idx, idx[1:]))

    def test_matches_threshold_intervals(self, masspoint5):
        # the piecewise definition maps k/n in [T_j, T_{j+1}) to j
        thr = thresholds(masspoint5)
        n = 1000
        for k in range(0, n + 1, 13):
            j = action_index_j0(masspoint5, n, k)
            assert thr[j - 1] <= k / n + 1e-12 < thr[j]


class TestMeanAndSampling:
    def test_mean(self, uniform5):
        assert uniform5.mean() == pytest.approx(1.10, abs=1e-12)

    def test_sample_examples(self, uniform5):
        idx = uniform5.sample_many(np.array([0.0, 0.41, 0.999999]))
        np.testing.assert_array_equal(idx, [1, 3, 5])
        assert idx.dtype == np.int16

    def test_sample_equispaced_frequencies(self, masspoint5):
        u = (np.arange(1_000_000) + 0.5) / 1_000_000
        idx = masspoint5.sample_many(u)
        freq = np.bincount(idx, minlength=masspoint5.m + 1)[1:] / u.size
        np.testing.assert_allclose(freq, masspoint5.pmf, atol=1e-5)


class TestGuideTable:
    @pytest.mark.parametrize("d", GUIDE_DISTS, ids=["m1", "m5", "m50", "m200", "tiny5", "tiny200"])
    def test_ranks_equal_binary_search(self, d):
        # every cell edge, every guide bucket edge, one ulp either side of
        # each, and the largest double below 1
        edges = np.concatenate([d.survival_values, np.arange(d.guide.size) / d.guide.size])
        u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                            np.random.default_rng(d.m).random(20_000)])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.nextafter(1.0, 0.0) in u
        got = d.sample_many(u)
        assert got.dtype == np.int16
        np.testing.assert_array_equal(got, sample_searchsorted(d, u))
        block = np.random.default_rng(1).random((64, 200))[:, 0::2]  # the engine's strided view
        np.testing.assert_array_equal(d.sample_many(block), sample_searchsorted(d, block))

    def test_a_run_of_tiny_masses_takes_several_steps(self):
        assert _tiny_mass_dists()[1].guide_steps > 1


class TestStrictNumbers:
    @pytest.mark.parametrize("support,pmf", [
        (["2", True], ["0.5", 0.5]),
        ([2.0, True], [0.5, 0.5]),
        ([2.0, 1.0], [0.5, np.bool_(True)]),
        ([2.0, "1"], [0.5, 0.5]),
        ([2.0, 1.0], [0.5, None]),
        ([2.0, 10**400], [0.5, 0.5]),
        (np.array([True, False]), [0.5, 0.5]),
    ])
    def test_non_numbers_rejected(self, support, pmf):
        # strings and booleans once converted silently: ["2", true] gave m = 2
        with pytest.raises(BadPmf, match="must be a list of numbers"):
            new_distribution(support, pmf)

    def test_real_numbers_accepted(self):
        for support, pmf in [
            (np.array([2.0, 1.0]), np.array([0.5, 0.5])),
            (np.array([2, 1]), [np.float64(0.5), np.float32(0.5)]),
            ([np.int64(2), 1], (0.5, 0.5)),
        ]:
            d = new_distribution(support, pmf)
            assert d.support.tolist() == [2.0, 1.0] and d.pmf.tolist() == [0.5, 0.5]


class TestJsonInterface:
    def test_roundtrip(self, uniform5):
        text = json.dumps({"support": list(uniform5.support), "pmf": list(uniform5.pmf)})
        d = dist_from_json(text)
        assert d.content_hash() == uniform5.content_hash()

    def test_errors_mirror_constructor(self):
        with pytest.raises(NonDecreasingSupport):
            dist_from_json('{"support": [1.0, 2.0], "pmf": [0.5, 0.5]}')
        with pytest.raises(BadPmf):
            dist_from_json('{"support": [1.0]}')
