"""Property tests of the windowed forward pass on random small instances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisecretary import exact_regret, make_policy, new_distribution
from multisecretary.policies import POLICY_NAMES
from multisecretary import evaluate
from multisecretary.evaluate import _window_pass


@st.composite
def instances(draw):
    m = draw(st.integers(1, 4))
    support = sorted(draw(st.lists(st.integers(1, 40), min_size=m, max_size=m, unique=True)),
                     reverse=True)
    weights = draw(st.lists(st.integers(1, 20), min_size=m, max_size=m))
    d = new_distribution([a / 8 for a in support], [w / sum(weights) for w in weights])
    n = draw(st.integers(1, 40))
    k = draw(st.integers(0, n))
    return d, n, k, draw(st.sampled_from(POLICY_NAMES))


@settings(max_examples=150, deadline=None)
@given(instances())
def test_window_within_truncation_bound(inst):
    d, n, k, name = inst
    policy = make_policy(name, d, n, k)
    value, _, bound = _window_pass(policy, n, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "TAIL_TOL", 0.0)
        full, _, untrimmed = _window_pass(policy, n, k)
    assert untrimmed == 0.0 and bound >= 0.0
    assert abs(value - full) <= bound + 4 * np.spacing(full)
    # Where the policy matches the offline sort exactly (br at k=1), the two
    # values come from different sums and may differ in the last ulp.
    rec = exact_regret(policy, n, k)
    assert rec.regret >= -rec.error_bound - 4 * np.spacing(rec.v_off)


# The instance on which Hypothesis can fail the property test above: the
# forward pass's 38-term sum rounds v_on to 0.8750000000000006, 5 ulps above
# the exact v_off = 0.875, and error_bound (0 here) states no rounding.  A
# stated rounding term (ROADMAP item 2) turns this into an XPASS, which fails.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="error_bound leaves out the forward pass's rounding")
def test_window_rounding_on_the_drawn_instance():
    d, n, k = new_distribution([0.875], [1.0]), 38, 1
    rec = exact_regret(make_policy("ai", d, n, k), n, k)
    assert rec.regret >= -rec.error_bound - 4 * np.spacing(rec.v_off)
