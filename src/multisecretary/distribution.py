"""Finite-support ability distributions and the static quantities derived from them.

Abilities are stored in descending order (a_1 is the largest) and every module
in the package addresses them by the 1-based rank ``j``.  The survival value
``F̄(a_j)`` is the probability that a fresh draw is strictly larger than
``a_j``, so ``F̄(a_1) = 0`` and ``F̄(a_{m+1}) = 1``.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BadEpsilon,
    BadPmf,
    ModelError,
    NonDecreasingSupport,
    NonPositiveValue,
)

PMF_SUM_TOL = 1e-12

# Ranks, action indices and the no-orbit marker m + 1 are stored as int16.
MAX_SUPPORT = int(np.iinfo(np.int16).max) - 1

# Slack used whenever a budget ratio is classified against a threshold or a
# survival value.  A ratio k/n that equals a threshold in exact arithmetic can
# round to one ulp below it in floats (e.g. 300/1000 versus 0.2 + 0.1); the
# closed-left interval convention must still place it in the upper bucket.
RATIO_TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class AbilityDistribution:
    """Validated finite-support distribution.

    Attributes:
        support: ability values, strictly decreasing, all positive.
        pmf: matching masses, renormalized to sum to one.
        survival_values: ``survival_values[i] = F̄(a_{i+1})`` for i in 0..m,
            i.e. the cumulative mass strictly above each support point, with
            the final cell pinned to exactly 1.0.
        guide: the guide table of ``sample_many``: the rank of the left edge
            b/G of each of its G buckets [b/G, (b+1)/G), G a power of two.
        guide_steps: the most cell edges any one bucket holds.
    """

    support: np.ndarray
    pmf: np.ndarray
    survival_values: np.ndarray
    guide: np.ndarray = field(repr=False)
    guide_steps: int = field(repr=False)

    @property
    def m(self) -> int:
        return self.support.size

    def mean(self) -> float:
        return float(self.support @ self.pmf)

    def sample_many(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF draws: for each u in [0, 1), the 1-based int16 index j
        whose cumulative cell holds it.

        Cells follow support order: [0, f_1), [f_1, f_1 + f_2), ...  By the
        guide-table method (Chen & Asau, 1974): u starts at the rank of its
        bucket's left edge, then steps up while u >= F̄(a_{j+1}), the upper
        edge of its cell.  G is a power of two, so u·G is exact and the
        bucket holds u; ``guide_steps`` steps reach the last cell of any bucket.
        """
        u = np.asarray(u)
        sv = self.survival_values
        j = self.guide[(u * self.guide.size).astype(np.intp)]
        for _ in range(self.guide_steps):
            j += u >= sv[j]
        return j

    def content_hash(self) -> str:
        digest = hashlib.sha256(self.support.tobytes() + self.pmf.tobytes())
        return digest.hexdigest()


def _is_real(x) -> bool:
    """A Python or numpy int or float; booleans are not numbers here."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _floats(values, name: str) -> np.ndarray:
    """``values`` as a float array, if every entry is a real number (a
    numeric numpy array counts as one list of them); else ``BadPmf``."""
    try:
        if isinstance(values, np.ndarray):
            ok = values.dtype.kind in "iuf"
        else:
            values = list(values)
            ok = all(_is_real(x) for x in values)
        if ok:
            return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass
    raise BadPmf(f"{name} must be a list of numbers")


def _guide_table(sv: np.ndarray) -> tuple[np.ndarray, int]:
    """The guide table over [0, 1) of the survival values ``sv``: G >= 2m
    buckets, the rank of each bucket's left edge, and the most cell edges
    that one bucket holds (its last rank minus its first)."""
    m = sv.size - 1
    size = 1 << (2 * m - 1).bit_length()
    left = np.arange(size + 1) / size
    first = np.searchsorted(sv[1:], left[:-1], side="right") + 1
    last = np.searchsorted(sv[1:], np.nextafter(left[1:], 0.0), side="right") + 1
    guide = first.astype(np.int16)
    guide.flags.writeable = False
    return guide, int((last - first).max())


def new_distribution(support: Sequence[float], pmf: Sequence[float]) -> AbilityDistribution:
    """Validate and build an :class:`AbilityDistribution`.

    Raises:
        NonDecreasingSupport: support not strictly decreasing.
        NonPositiveValue: smallest support value is below ``np.finfo(float).tiny``.
        BadPmf: an entry is not a Python or numpy int or float (strings and
            booleans are not), a mass below ``np.finfo(float).tiny``, lengths
            mismatched, or the total differs from 1 by more than ``PMF_SUM_TOL``.
        ModelError: more than ``MAX_SUPPORT`` support points.
    """
    a, f = _floats(support, "support"), _floats(pmf, "pmf")
    if a.ndim != 1 or f.ndim != 1 or a.size != f.size or a.size < 1:
        raise BadPmf("support and pmf must be 1-D sequences of equal positive length")
    if a.size > MAX_SUPPORT:
        raise ModelError(f"at most {MAX_SUPPORT} support points (ranks are int16), got {a.size}")
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(f)):
        raise BadPmf("support and pmf must be finite")
    if np.any(np.diff(a) >= 0):
        raise NonDecreasingSupport("support must be strictly decreasing")
    tiny = float(np.finfo(float).tiny)  # subnormals lose precision: v_on could exceed v_off
    if a[-1] < tiny:
        raise NonPositiveValue(f"support values must be at least the least normal float {tiny!r}")
    if np.any(f < tiny):
        raise BadPmf(f"masses must be at least the least normal float {tiny!r}")
    total = float(f.sum())
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise BadPmf(f"pmf sums to {total!r}, not 1 within {PMF_SUM_TOL}")
    f = f / total  # exact renormalization keeps downstream sums consistent
    sv = np.empty(a.size + 1)
    sv[0] = 0.0
    np.cumsum(f, out=sv[1:])
    sv[-1] = 1.0  # pin so sampling covers u in [0, 1) and F̄(a_{m+1}) = 1
    for arr in (a, f, sv):
        arr.flags.writeable = False
    guide, guide_steps = _guide_table(sv)
    return AbilityDistribution(support=a, pmf=f, survival_values=sv,
                               guide=guide, guide_steps=guide_steps)


def kleinberg_distribution(epsilon: float) -> AbilityDistribution:
    """Three-point instance on {3, 2, 1} whose middle mass shrinks with epsilon."""
    if not 0.0 < epsilon < 0.125:
        raise BadEpsilon(
            f"epsilon must lie in (0, 0.125) to keep the top mass positive, got {epsilon}"
        )
    return new_distribution(
        [3.0, 2.0, 1.0], [0.5 - 4.0 * epsilon, 2.0 * epsilon, 0.5 + 2.0 * epsilon]
    )


def thresholds(d: AbilityDistribution) -> np.ndarray:
    """Read-only (m+1,) budget-ratio thresholds T_1 = 0 < T_2 < ... < T_m <
    T_{m+1} = +inf, ``[j - 1]`` holding T_j.  Interior thresholds are the
    midpoints T_j = (F̄(a_j) + F̄(a_{j+1})) / 2 of consecutive survival
    values, so T_j sits half the mass f_j above F̄(a_j) and below F̄(a_{j+1}).
    """
    m = d.m
    values = np.empty(m + 1)
    values[0] = 0.0
    values[m] = np.inf
    if m > 1:
        sv = d.survival_values
        values[1:m] = 0.5 * (sv[1:m] + sv[2 : m + 1])
    values.flags.writeable = False
    return values


def partial_means(d: AbilityDistribution) -> np.ndarray:
    """``G[s] = f_1 a_1 + ... + f_s a_s`` for s in 0..m, with G[0] = 0: the
    mean gain per period of a rule that selects exactly the top s abilities."""
    return np.concatenate(([0.0], np.cumsum(d.support * d.pmf)))


def half_min_mass(d: AbilityDistribution) -> float:
    """Half the smallest mass; the stability margin the regret bounds use."""
    return 0.5 * float(d.pmf.min())


def dist_from_json(text: str) -> AbilityDistribution:
    """Build a distribution from the ``{"support": [...], "pmf": [...]}`` schema:
    each key once and no other, else one ``BadPmf`` names each key amiss."""
    objects = []  # the (key, value) pairs of each JSON object, the outermost last
    obj = json.loads(text, object_pairs_hook=lambda pairs: objects.append(pairs) or dict(pairs))
    if not isinstance(obj, dict) or "support" not in obj or "pmf" not in obj:
        raise BadPmf("distribution config must be an object with 'support' and 'pmf'")
    keys = Counter(key for key, _ in objects[-1])
    wrong = [key for key, count in keys.items() if count > 1 or key not in ("support", "pmf")]
    if wrong:
        raise BadPmf(f"repeated or unknown distribution keys: {', '.join(map(repr, wrong))}")
    return new_distribution(obj["support"], obj["pmf"])


def load_distribution(path) -> AbilityDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise BadPmf(f"distribution file {str(path)!r} is not UTF-8 text: {exc}") from None
    return dist_from_json(text)
