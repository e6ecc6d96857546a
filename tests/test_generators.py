"""Planted-optimum instance generation."""
from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from hierstretch.core import validate_instance
from hierstretch.errors import InfeasibleConfig
from hierstretch.generators import FillMode, GenConfig, generate, random_config
from hierstretch.oracle import brute_opt, prefix_opt_monotone_check


class TestExactFill:
    def test_planted_optimum_is_one(self):
        config = GenConfig(seed=1, n_gos2=4, n_gos1=2, fill_mode=FillMode.EXACT)
        instance = generate(config)
        assert instance.total_size == 2
        assert brute_opt(instance.jobs) == 1
        assert validate_instance(instance, check_opt=True).valid

    def test_many_seeds(self):
        for seed in range(40):
            config = GenConfig(
                seed=seed, n_gos2=5, n_gos1=1, fill_mode=FillMode.EXACT
            )
            instance = generate(config)
            assert brute_opt(instance.jobs) == 1
            assert len(instance.jobs) == 6

    def test_needs_gos2(self):
        with pytest.raises(InfeasibleConfig):
            generate(GenConfig(seed=0, n_gos2=0, n_gos1=3, fill_mode=FillMode.EXACT))

    def test_needs_job_for_machine_one(self):
        with pytest.raises(InfeasibleConfig):
            generate(GenConfig(seed=0, n_gos2=1, n_gos1=0, fill_mode=FillMode.EXACT))


class TestSlackFill:
    def test_all_gos1_degenerate(self):
        config = GenConfig(seed=3, n_gos2=0, n_gos1=3, fill_mode=FillMode.SLACK)
        instance = generate(config)
        assert all(job.gos == 1 for job in instance.jobs)
        total = instance.total_size
        assert total <= 1
        assert brute_opt(instance.jobs) == total

    def test_optimum_pinned_to_one(self):
        for seed in range(30):
            config = GenConfig(
                seed=seed, n_gos2=4, n_gos1=2, fill_mode=FillMode.SLACK
            )
            instance = generate(config)
            assert brute_opt(instance.jobs) == 1
            assert validate_instance(instance, check_opt=True).valid

    def test_pure_gos2(self):
        config = GenConfig(seed=11, n_gos2=5, n_gos1=0, fill_mode=FillMode.SLACK)
        instance = generate(config)
        assert brute_opt(instance.jobs) == 1
        assert max(job.size for job in instance.jobs) == 1

    def test_empty_is_infeasible(self):
        with pytest.raises(InfeasibleConfig):
            generate(GenConfig(seed=0, n_gos2=0, n_gos1=0, fill_mode=FillMode.SLACK))

    def test_pinned_gos1_side_needs_units_for_gos2(self):
        # seed 1 pins the grade-1 side; 9 grade-2 jobs do not fit 8 units
        config = GenConfig(
            seed=1, n_gos2=9, n_gos1=2, denominator_bound=8,
            fill_mode=FillMode.SLACK,
        )
        with pytest.raises(InfeasibleConfig):
            generate(config)


class TestDeterminismAndLimits:
    def test_same_seed_same_instance(self):
        config = GenConfig(seed=999, n_gos2=6, n_gos1=3)
        assert generate(config) == generate(config)

    def test_different_seeds_differ(self):
        a = generate(GenConfig(seed=1, n_gos2=6, n_gos1=3))
        b = generate(GenConfig(seed=2, n_gos2=6, n_gos1=3))
        assert a != b

    def test_denominators_respect_bound(self):
        config = GenConfig(seed=5, n_gos2=6, n_gos1=2, denominator_bound=64)
        instance = generate(config)
        assert all(job.size.denominator <= 64 for job in instance.jobs)

    def test_unknown_fill_mode(self):
        config = GenConfig(seed=0, n_gos2=2, n_gos1=1, fill_mode="bogus")
        with pytest.raises(InfeasibleConfig, match="unknown fill mode 'bogus'"):
            generate(config)

    def test_denominator_bound_too_small(self):
        with pytest.raises(InfeasibleConfig):
            generate(GenConfig(seed=0, n_gos2=5, n_gos1=0, denominator_bound=3))

    def test_prefix_validity(self):
        config = GenConfig(seed=21, n_gos2=6, n_gos1=2, fill_mode=FillMode.EXACT)
        instance = generate(config)
        report = prefix_opt_monotone_check(instance.jobs)
        assert report.ok
        assert all(opt <= 1 for opt in report.prefix_opts)


# seeds that are not plain ints must be refused, not passed to random.Random
BAD_SEEDS = [None, [1], 1.5, True, "3"]

_CONFIGS = st.builds(
    GenConfig,
    seed=st.integers(min_value=0, max_value=2**32) | st.sampled_from(BAD_SEEDS),
    n_gos2=st.integers(min_value=-1, max_value=8),
    n_gos1=st.integers(min_value=-1, max_value=4),
    denominator_bound=st.integers(min_value=-1, max_value=12),
    fill_mode=st.sampled_from([*FillMode, "exact", "slack", "bogus"]),
)


@settings(max_examples=150, deadline=None)
@given(_CONFIGS)
def test_any_config_is_valid_or_infeasible(config):
    try:
        instance = generate(config)
    except InfeasibleConfig:
        return
    assert type(config.seed) is int
    assert config.fill_mode in ("exact", "slack")
    assert validate_instance(instance, check_opt=True).valid
    if config.fill_mode == "exact":
        assert instance.total_size == 2


@settings(max_examples=100, deadline=None)
@given(
    _CONFIGS,
    st.sampled_from(["n_gos2", "n_gos1", "denominator_bound"]),
    st.floats()
    | st.booleans()
    | st.integers(min_value=-1, max_value=12).map(float)
    | st.integers(min_value=-1, max_value=12).map(str),
)
def test_non_int_count_is_infeasible(config, field, value):
    with pytest.raises(InfeasibleConfig):
        generate(dataclasses.replace(config, **{field: value}))


class TestRandomConfig:
    def test_always_feasible(self):
        rng = random.Random(123)
        for _ in range(200):
            config = random_config(rng)
            instance = generate(config)
            assert 1 <= len(instance.jobs) <= 14
            assert validate_instance(instance).valid

    def test_respects_requested_caps(self):
        rng = random.Random(5)
        for _ in range(100):
            config = random_config(rng)
            assert config.n_gos2 <= 10
            assert config.n_gos1 <= 4
            assert config.denominator_bound == 1000
