"""Tests for the exact E[max] engine — the library's central computation.

The engine is validated three ways: against hand-computed micro cases,
against full realization enumeration on random instances (exact equality up
to floating point), and against Monte-Carlo estimates (statistical
agreement), plus hypothesis property tests on its mathematical invariants.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import (
    enumerate_expected_max,
    expected_max_batch_values,
    expected_max_of_independent,
)
from repro.cost.expected import _expected_max_reference
from repro.exceptions import ValidationError


def brute_force_expected_max(values_list, probabilities_list):
    """Reference implementation: enumerate the full product space."""
    from itertools import product

    total = 0.0
    for combo in product(*[range(len(v)) for v in values_list]):
        probability = 1.0
        maximum = -np.inf
        for variable, choice in enumerate(combo):
            probability *= probabilities_list[variable][choice]
            maximum = max(maximum, values_list[variable][choice])
        total += probability * maximum
    return total


class TestHandComputedCases:
    def test_single_variable_is_plain_expectation(self):
        values = [np.array([1.0, 3.0])]
        probabilities = [np.array([0.5, 0.5])]
        assert expected_max_of_independent(values, probabilities) == pytest.approx(2.0)

    def test_two_fair_coins(self):
        # max of two independent {0, 1} fair coins: P(max=1) = 3/4.
        values = [np.array([0.0, 1.0])] * 2
        probabilities = [np.array([0.5, 0.5])] * 2
        assert expected_max_of_independent(values, probabilities) == pytest.approx(0.75)

    def test_degenerate_variables(self):
        values = [np.array([2.0]), np.array([5.0]), np.array([1.0])]
        probabilities = [np.array([1.0])] * 3
        assert expected_max_of_independent(values, probabilities) == pytest.approx(5.0)

    def test_duplicate_values_within_variable(self):
        values = [np.array([1.0, 1.0, 4.0])]
        probabilities = [np.array([0.25, 0.25, 0.5])]
        assert expected_max_of_independent(values, probabilities) == pytest.approx(0.5 * 1.0 + 0.5 * 4.0)

    def test_three_variables_manual(self):
        values = [np.array([0.0, 2.0]), np.array([1.0]), np.array([0.5, 3.0])]
        probabilities = [np.array([0.3, 0.7]), np.array([1.0]), np.array([0.9, 0.1])]
        expected = brute_force_expected_max(values, probabilities)
        assert expected_max_of_independent(values, probabilities) == pytest.approx(expected)

    def test_zero_probability_location_ignored(self):
        values = [np.array([1.0, 100.0])]
        probabilities = [np.array([1.0, 0.0])]
        assert expected_max_of_independent(values, probabilities) == pytest.approx(1.0)


class TestZeroProbabilityRegression:
    """A zero-probability entry at a variable's smallest value must not count
    toward that variable's CDF becoming positive (historical silent-wrong-answer
    bug: this instance returned 2.0)."""

    def test_zero_mass_smallest_entry(self):
        values = [[1.0, 5.0], [2.0]]
        probabilities = [[0.0, 1.0], [1.0]]
        assert expected_max_of_independent(values, probabilities) == pytest.approx(5.0)
        assert _expected_max_reference(values, probabilities) == pytest.approx(5.0)
        assert enumerate_expected_max(values, probabilities) == pytest.approx(5.0)

    def test_zero_mass_prefix_multiple_entries(self):
        values = [[0.5, 1.0, 7.0], [2.0, 3.0]]
        probabilities = [[0.0, 0.0, 1.0], [0.4, 0.6]]
        expected = enumerate_expected_max(values, probabilities)
        assert expected == pytest.approx(7.0)
        assert expected_max_of_independent(values, probabilities) == pytest.approx(expected)

    def test_zero_mass_entry_between_positive_entries(self):
        values = [[1.0, 4.0, 9.0], [2.0]]
        probabilities = [[0.5, 0.0, 0.5], [1.0]]
        expected = enumerate_expected_max(values, probabilities)
        assert expected_max_of_independent(values, probabilities) == pytest.approx(expected)
        assert _expected_max_reference(values, probabilities) == pytest.approx(expected)

    def test_all_variables_lead_with_zero_mass(self):
        values = [[0.0, 3.0], [0.0, 2.0]]
        probabilities = [[0.0, 1.0], [0.0, 1.0]]
        assert expected_max_of_independent(values, probabilities) == pytest.approx(3.0)


def _random_instance_with_zeros(rng):
    """Random ragged instance with explicit zeros and repeated values."""
    n = int(rng.integers(1, 6))
    values = []
    probabilities = []
    for _ in range(n):
        z = int(rng.integers(1, 5))
        support = rng.uniform(0, 10, size=z)
        if z > 1 and rng.random() < 0.5:
            support[int(rng.integers(1, z))] = support[0]  # repeated value
        weight = rng.dirichlet(np.ones(z))
        if z > 1 and rng.random() < 0.6:
            weight[int(rng.integers(0, z))] = 0.0  # explicit zero mass
            weight = weight / weight.sum()
        order = rng.permutation(z)
        values.append(support[order])
        probabilities.append(weight[order])
    return values, probabilities


class TestDifferentialKernelVsReferenceVsEnumeration:
    @pytest.mark.parametrize("seed", range(25))
    def test_three_way_agreement(self, seed):
        rng = np.random.default_rng(seed)
        values, probabilities = _random_instance_with_zeros(rng)
        vectorized = expected_max_of_independent(values, probabilities)
        reference = _expected_max_reference(values, probabilities)
        enumerated = enumerate_expected_max(values, probabilities)
        assert vectorized == pytest.approx(enumerated, rel=1e-9, abs=1e-9)
        assert vectorized == pytest.approx(reference, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_batch_rows_equal_rows_alone(self, seed):
        # The kernel is row-independent: a row scored inside a batch is
        # bit-identical to the same row scored alone (the scalar API).
        rng = np.random.default_rng(seed)
        values, probabilities = _random_instance_with_zeros(rng)
        rows = [
            np.vstack([values[i], rng.uniform(0, 10, size=(5, len(values[i]))), values[i][::-1]])
            for i in range(len(values))
        ]
        batch = expected_max_batch_values(rows, probabilities)
        for b in range(batch.shape[0]):
            alone = [row[b] for row in rows]
            assert batch[b] == expected_max_of_independent(alone, probabilities)
            single = expected_max_batch_values([row[b : b + 1] for row in rows], probabilities)
            assert batch[b] == single[0]
        enumerated = enumerate_expected_max(values, probabilities)
        assert batch[0] == pytest.approx(enumerated, rel=1e-9, abs=1e-9)


class TestValidation:
    def test_empty_variables_rejected(self):
        with pytest.raises(ValidationError):
            expected_max_of_independent([], [])

    def test_mismatched_lists_rejected(self):
        with pytest.raises(ValidationError):
            expected_max_of_independent([np.array([1.0])], [])

    def test_misaligned_support_rejected(self):
        with pytest.raises(ValidationError):
            expected_max_of_independent([np.array([1.0, 2.0])], [np.array([1.0])])

    def test_empty_support_rejected(self):
        with pytest.raises(ValidationError):
            expected_max_of_independent([np.array([])], [np.array([])])


class TestAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        values = []
        probabilities = []
        for _ in range(n):
            z = int(rng.integers(1, 5))
            values.append(rng.uniform(0, 10, size=z))
            probabilities.append(rng.dirichlet(np.ones(z)))
        fast = expected_max_of_independent(values, probabilities)
        slow = brute_force_expected_max(values, probabilities)
        assert fast == pytest.approx(slow, rel=1e-10, abs=1e-12)

    def test_many_variables_stability(self):
        # 200 variables: exercises the log-space product maintenance.
        rng = np.random.default_rng(42)
        values = [rng.uniform(0, 1, size=3) for _ in range(200)]
        probabilities = [rng.dirichlet(np.ones(3)) for _ in range(200)]
        result = expected_max_of_independent(values, probabilities)
        maxima = np.array([v.max() for v in values])
        assert maxima.max() * 0.5 <= result <= maxima.max() + 1e-9


@st.composite
def _instance(draw):
    """Random small collection of independent discrete distance variables."""
    n = draw(st.integers(min_value=1, max_value=4))
    values = []
    probabilities = []
    for _ in range(n):
        z = draw(st.integers(min_value=1, max_value=4))
        values.append(
            np.array(
                draw(
                    st.lists(
                        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                        min_size=z,
                        max_size=z,
                    )
                )
            )
        )
        raw = np.array(
            draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=z, max_size=z))
        )
        probabilities.append(raw / raw.sum())
    return values, probabilities


class TestProperties:
    @given(_instance())
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, data):
        values, probabilities = data
        fast = expected_max_of_independent(values, probabilities)
        slow = brute_force_expected_max(values, probabilities)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-10)

    @given(_instance())
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_min_and_max_of_supports(self, data):
        values, probabilities = data
        result = expected_max_of_independent(values, probabilities)
        largest_min = max(v.min() for v in values)
        overall_max = max(v.max() for v in values)
        assert largest_min - 1e-9 <= result <= overall_max + 1e-9

    @given(_instance())
    @settings(max_examples=40, deadline=None)
    def test_at_least_expectation_of_each_variable(self, data):
        # E[max_i V_i] >= E[V_j] for every j (monotonicity of max).
        values, probabilities = data
        result = expected_max_of_independent(values, probabilities)
        for value, probability in zip(values, probabilities):
            assert result >= float((value * probability).sum()) - 1e-9

    @given(_instance(), st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_positive_homogeneity(self, data, scale):
        values, probabilities = data
        base = expected_max_of_independent(values, probabilities)
        scaled = expected_max_of_independent([v * scale for v in values], probabilities)
        assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-9)

    @given(_instance())
    @settings(max_examples=40, deadline=None)
    def test_adding_a_variable_never_decreases(self, data):
        values, probabilities = data
        base = expected_max_of_independent(values, probabilities)
        extended = expected_max_of_independent(values + [np.array([0.0])], probabilities + [np.array([1.0])])
        assert extended == pytest.approx(base, rel=1e-9, abs=1e-9)
        larger = expected_max_of_independent(
            values + [np.array([1e3])], probabilities + [np.array([1.0])]
        )
        assert larger >= base - 1e-9
