"""Tests for the answer sanitation (Sections 5.2-5.3)."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from repro.core.sanitize import AnswerSanitizer, SanitationOutcome, helper_tests
from repro.crypto import cores
from repro.datasets.poi import POI
from repro.datasets.sequoia import load_sequoia
from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace
from repro.gnn.aggregate import (
    MAX,
    MIN,
    SUM,
    Aggregate,
    get_aggregate,
    register_aggregate,
)
from repro.gnn.engine import GNNQueryEngine
from repro.gnn.mbm import mbm_kgnn
from repro.stats.hypothesis import SanitationTestPlan


@pytest.fixture(scope="module")
def space():
    return LocationSpace.unit_square()


@pytest.fixture(scope="module")
def engine():
    return GNNQueryEngine(uniform_pois(800, seed=21))


def make_sanitizer(space, aggregate=SUM, theta0=0.05, samples=2500, seed=0):
    plan = SanitationTestPlan.from_parameters(theta0, n_samples_override=samples)
    return AnswerSanitizer(space, aggregate, plan, np.random.default_rng(seed))


def spread_group(n, seed=3):
    rng = np.random.default_rng(seed)
    return [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, (n, 2))]


class TestSanitizeBasics:
    def test_prefix_is_a_prefix(self, space, engine):
        sanitizer = make_sanitizer(space)
        group = spread_group(6)
        pois = engine.query(8, group)
        outcome = sanitizer.sanitize([pois], [group])[0]
        assert list(outcome.prefix) == pois[: len(outcome.prefix)]

    def test_prefix_never_empty(self, space, engine):
        """t = 1 has no inequalities and is always safe (Section 5.2)."""
        sanitizer = make_sanitizer(space, theta0=0.99)  # brutally strict
        group = spread_group(4)
        pois = engine.query(8, group)
        outcome = sanitizer.sanitize([pois], [group])[0]
        assert len(outcome.prefix) >= 1

    def test_single_user_passthrough(self, space, engine):
        """No Privacy IV with n = 1: the full answer returns unsanitized."""
        sanitizer = make_sanitizer(space)
        target = Point(0.4, 0.4)
        pois = engine.query(8, [target])
        outcome = sanitizer.sanitize([pois], [[target]])[0]
        assert list(outcome.prefix) == pois

    def test_single_poi_passthrough(self, space, engine):
        sanitizer = make_sanitizer(space)
        group = spread_group(4)
        pois = engine.query(1, group)
        assert list(sanitizer.sanitize([pois], [group])[0].prefix) == pois

    def test_overall_is_min_over_targets(self, space, engine):
        sanitizer = make_sanitizer(space)
        group = spread_group(5)
        pois = engine.query(8, group)
        outcome = sanitizer.sanitize([pois], [group])[0]
        assert len(outcome.prefix) == min(outcome.safe_lengths)
        assert len(outcome.safe_lengths) == len(group)


class TestSanitizeSemantics:
    def test_stricter_theta_shortens_prefix(self, space, engine):
        """Figure 7c: larger theta0 -> fewer POIs returned (monotone trend)."""
        group = spread_group(8, seed=5)
        pois = engine.query(8, group)
        lengths = []
        for theta0 in (0.01, 0.05, 0.2, 0.5):
            sanitizer = make_sanitizer(space, theta0=theta0, seed=1)
            lengths.append(len(sanitizer.sanitize([pois], [group])[0].prefix))
        assert lengths == sorted(lengths, reverse=True)

    def test_close_group_keeps_more_than_strict_theta(self, space, engine):
        """A tiny theta0 should allow several POIs through."""
        group = spread_group(8, seed=5)
        pois = engine.query(8, group)
        sanitizer = make_sanitizer(space, theta0=0.01, seed=1)
        assert len(sanitizer.sanitize([pois], [group])[0].prefix) >= 2

    @pytest.mark.parametrize("aggregate", [SUM, MAX, MIN], ids=lambda a: a.name)
    def test_all_builtin_aggregates_supported(self, space, aggregate, engine):
        engine_local = GNNQueryEngine(uniform_pois(800, seed=21), aggregate=aggregate)
        sanitizer = make_sanitizer(space, aggregate=aggregate)
        group = spread_group(4, seed=9)
        pois = engine_local.query(6, group)
        outcome = sanitizer.sanitize([pois], [group])[0]
        assert 1 <= len(outcome.prefix) <= 6

    def test_generic_aggregate_fallback_matches_decomposable(self, space, engine):
        """A sum aggregate without partial/merge must sanitize identically."""
        opaque_sum = Aggregate(
            "opaque-sum", lambda ds: float(sum(ds)), lambda m: m.sum(axis=1)
        )
        group = spread_group(5, seed=13)
        pois = engine.query(8, group)
        plan = SanitationTestPlan.from_parameters(0.05, n_samples_override=2500)
        xs, ys = space.sample_arrays(2500, np.random.default_rng(42))
        fast = AnswerSanitizer(space, SUM, plan, np.random.default_rng(0))
        slow = AnswerSanitizer(space, opaque_sum, plan, np.random.default_rng(0))
        out_fast = fast._sanitize_incremental(pois, group, xs, ys)
        out_slow = slow._sanitize_incremental(pois, group, xs, ys)
        assert out_fast == out_slow


def assert_same_prefix(vectorized, scalar):
    """The vectorized path stops at the first unsafe length, so only the
    prefix and the shortest safe length are comparable with the reference."""
    assert vectorized.prefix == scalar.prefix
    assert min(vectorized.safe_lengths) == min(scalar.safe_lengths)


class TestVectorizedAgainstScalar:
    def test_identical_on_shared_samples(self, space, engine):
        """The numpy path must truncate exactly like the pure-Python reference."""
        group = spread_group(4, seed=17)
        pois = engine.query(6, group)
        sanitizer = make_sanitizer(space, samples=400)
        xs, ys = space.sample_arrays(400, np.random.default_rng(8))
        vectorized = sanitizer._sanitize_incremental(pois, group, xs, ys)
        scalar = sanitizer.sanitize_scalar(pois, group, xs, ys)
        assert_same_prefix(vectorized, scalar)

    def test_same_prefix_on_shared_samples(self, space):
        """Every built-in aggregate and the generic fallback truncate like the
        reference on the same Monte-Carlo samples, co-located members and a
        member standing on a POI included."""
        opaque_sum = Aggregate(
            "opaque-sum", lambda ds: float(sum(ds)), lambda m: m.sum(axis=1)
        )
        all_pois = uniform_pois(800, seed=21)
        for seed, aggregate in enumerate((SUM, MAX, MIN, opaque_sum, SUM, MIN)):
            group = spread_group(4, seed=seed)
            if seed >= 4:
                group[1] = group[0]
                group[2] = all_pois[seed].location
            local = GNNQueryEngine(all_pois, aggregate=aggregate)
            pois = local.query(8, group)
            sanitizer = make_sanitizer(space, aggregate=aggregate, samples=300)
            xs, ys = space.sample_arrays(300, np.random.default_rng(100 + seed))
            assert_same_prefix(
                sanitizer._sanitize_incremental(pois, group, xs, ys),
                sanitizer.sanitize_scalar(pois, group, xs, ys),
            )

    def test_scalar_validates_sample_count(self, space, engine):
        group = spread_group(3)
        pois = engine.query(4, group)
        sanitizer = make_sanitizer(space, samples=400)
        xs, ys = space.sample_arrays(10, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            sanitizer.sanitize_scalar(pois, group, xs, ys)


# ----------------------------------------------------------- differential


_DIFF_SIZES = (2, 3, 4, 8)
_DIFF_THETAS = (0.01, 0.05, 0.2)
_DIFF_KS = (1, 2, 8, 32)
_DIFF_GROUPS = ("spread", "tight", "co-located", "on-poi")


def _sum_of_squares() -> Aggregate:
    """A registered custom aggregate: decomposable, but not a built-in."""
    try:
        return get_aggregate("test-sanitize-sum-of-squares")
    except ConfigurationError:
        aggregate = Aggregate(
            "test-sanitize-sum-of-squares",
            lambda ds: float(sum(d * d for d in ds)),
            lambda m: (m * m).sum(axis=1),
            partial=lambda ds: float(sum(d * d for d in ds)),
            merge=lambda dists, partials: dists * dists + partials,
        )
        register_aggregate(aggregate)
        return aggregate


def _diff_aggregate(name: str) -> Aggregate:
    return _sum_of_squares() if name == "custom" else get_aggregate(name)


def _diff_group(kind: str, n: int, rng, pois) -> list[Point]:
    """``n`` member locations: spread over the space, a tight cluster, all
    at one point, or spread with the first member standing on a POI."""
    if kind == "co-located":
        return [Point(*map(float, rng.uniform(0, 1, 2)))] * n
    spread = 0.02 if kind == "tight" else 0.5
    cx, cy = rng.uniform(spread, 1 - spread, 2)
    group = [
        Point(float(cx + rng.uniform(-spread, spread)), float(cy + rng.uniform(-spread, spread)))
        for _ in range(n)
    ]
    if kind == "on-poi":
        group[0] = pois[int(rng.integers(len(pois)))].location
    return group


def _diff_cases(tree, pois, aggregate) -> list:
    """The seeded grid over the Sequoia surrogate: one ``(case, answer,
    group)`` per (n, theta0, k, group kind)."""
    rng = np.random.default_rng(list(aggregate.name.encode()))
    cases = []
    for n in _DIFF_SIZES:
        for theta0 in _DIFF_THETAS:
            for k in _DIFF_KS:
                for kind in _DIFF_GROUPS:
                    group = _diff_group(kind, n, rng, pois)
                    answer = [item for _, item, _ in mbm_kgnn(tree, group, k, aggregate)]
                    cases.append(((n, theta0, k, kind), answer, group))
    return cases


def _diff_sanitizer(aggregate, theta0) -> AnswerSanitizer:
    return AnswerSanitizer(
        LocationSpace.unit_square(),
        aggregate,
        SanitationTestPlan.from_parameters(theta0),
        np.random.default_rng(list(f"{aggregate.name}/{theta0}".encode())),
    )


def _diff_record(case, outcome) -> tuple:
    return case, tuple(p.poi_id for p in outcome.prefix), outcome.safe_lengths


def _differential_outcomes(tree, pois, aggregate) -> list:
    """Seeded sanitations over the Sequoia surrogate, one per (n, theta0, k, group).

    One sanitizer per theta0 serves all of its cases, one call each, so
    its RNG stream runs across them.
    """
    sanitizers = {theta0: _diff_sanitizer(aggregate, theta0) for theta0 in _DIFF_THETAS}
    return [
        _diff_record(case, sanitizers[case[1]].sanitize([answer], [group])[0])
        for case, answer, group in _diff_cases(tree, pois, aggregate)
    ]


def _tie_outcomes(tree, pois) -> list:
    """Sanitations whose inequalities tie exactly on every sample: a POI
    duplicated in the answer, and (under min) members standing on two POIs."""
    space = LocationSpace.unit_square()
    on_pois = [pois[10].location, pois[11].location, Point(0.5, 0.5)]
    co_located = [pois[12].location] * 4
    outcomes = []
    for aggregate in (SUM, MAX, MIN):
        sanitizer = AnswerSanitizer(
            space,
            aggregate,
            SanitationTestPlan.from_parameters(0.05),
            np.random.default_rng(list(f"ties/{aggregate.name}".encode())),
        )
        for group in (on_pois, co_located):
            answer = [item for _, item, _ in mbm_kgnn(tree, group, 8, aggregate)]
            twin = POI(len(pois), answer[0].location)
            for ranked in (answer, [answer[0], twin, *answer[1:]]):
                outcome = sanitizer.sanitize([ranked], [group])[0]
                outcomes.append(
                    (
                        (aggregate.name, len(group), len(ranked)),
                        tuple(p.poi_id for p in outcome.prefix),
                        outcome.safe_lengths,
                    )
                )
    return outcomes


def _outcome_digest(outcomes) -> tuple[int, str]:
    """Summed prefix length plus a digest of every (case, prefix, safe_lengths)."""
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]
    return sum(len(prefix) for _, prefix, _ in outcomes), digest


#: Outcomes of the differential grid and of the tie cases, recorded from
#: the sanitizer that evaluated every POI column with np.hypot.
_EXACT_COLUMN_OUTCOMES = {
    "sum": (404, "594378de225efffd"),
    "max": (402, "7c84752b83894c9c"),
    "min": (712, "a56942c0ac7314a0"),
    "custom": (386, "ac051b3c6f977e50"),
    "ties": (54, "a9631cdf163b0e23"),
}


@pytest.fixture(scope="module")
def sequoia_tree():
    pois = load_sequoia(8000)
    return GNNQueryEngine(pois).tree, pois


@pytest.fixture
def paths(monkeypatch):
    """Counts which evaluation each sanitation took and the band's samples."""
    seen = {"cheap": 0, "exact": 0, "rechecked": 0}
    cheap, exact, recheck = (
        AnswerSanitizer._cheap_counts,
        AnswerSanitizer._exact_counts,
        AnswerSanitizer._recheck,
    )

    def count_cheap(self, *args):
        seen["cheap"] += 1
        return cheap(self, *args)

    def count_exact(self, *args):
        seen["exact"] += 1
        return exact(self, *args)

    def count_recheck(self, band, *args):
        seen["rechecked"] += len(band)
        return recheck(self, band, *args)

    monkeypatch.setattr(AnswerSanitizer, "_cheap_counts", count_cheap)
    monkeypatch.setattr(AnswerSanitizer, "_exact_counts", count_exact)
    monkeypatch.setattr(AnswerSanitizer, "_recheck", count_recheck)
    return seen


class TestSanitizeDifferential:
    """Cheap distances plus the band re-check against exact np.hypot columns."""

    @pytest.mark.parametrize("name", ["sum", "max", "min", "custom"])
    def test_outcomes_match_exact_columns(self, sequoia_tree, paths, name):
        aggregate = _diff_aggregate(name)
        outcomes = _differential_outcomes(*sequoia_tree, aggregate)
        assert _outcome_digest(outcomes) == _EXACT_COLUMN_OUTCOMES[name]
        if name == "custom":
            assert paths["exact"] > 0 and paths["cheap"] == paths["rechecked"] == 0
        else:
            assert paths["cheap"] > 0 and paths["exact"] == 0

    def test_exact_ties_are_rechecked(self, sequoia_tree, paths):
        """A tie on every sample lands in the band and is decided exactly."""
        outcomes = _tie_outcomes(*sequoia_tree)
        assert _outcome_digest(outcomes) == _EXACT_COLUMN_OUTCOMES["ties"]
        whole_column = SanitationTestPlan.from_parameters(0.05).n_samples
        assert paths["rechecked"] >= whole_column


class TestSanitizeMemory:
    """Memory is O(N_H): it does not grow with the prefix the answer keeps."""

    @pytest.mark.parametrize(
        ("name", "co_located", "prefix", "limit_mib"),
        [("sum", False, 3, 8), ("min", True, 32, 8), ("custom", True, 3, 12)],
        ids=["sum", "min-full-answer", "custom"],
    )
    def test_peak_bounded(self, sequoia_tree, name, co_located, prefix, limit_mib):
        """n = 8, k = 32, theta0 = 0.01 (N_H = 63,225): about 0.5 MB a column.

        Caching a column per (target, POI) would hold n*k + k of them,
        140 MiB when all 32 POIs stay safe.  The custom aggregate keeps one
        column per target.
        """
        tree, _ = sequoia_tree
        aggregate = _diff_aggregate(name)
        group = [Point(0.3, 0.6)] * 8 if co_located else spread_group(8, seed=5)
        answer = [item for _, item, _ in mbm_kgnn(tree, group, 32, aggregate)]
        sanitizer = AnswerSanitizer(
            LocationSpace.unit_square(),
            aggregate,
            SanitationTestPlan.from_parameters(0.01),
            np.random.default_rng(0),
        )
        tracemalloc.start()
        try:
            outcome = sanitizer.sanitize([answer], [group])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(outcome.prefix) == prefix
        assert peak <= limit_mib * 2**20


# ------------------------------------------------------------------ batches


def reference_outcomes(sanitizer, answers, groups) -> list:
    """Each candidate tested in turn, drawing its own samples from the
    sanitizer's sampler: the per-candidate reference of a batch."""
    outcomes = []
    for pois, group in zip(answers, groups, strict=True):
        if len(group) < 2 or len(pois) < 2:
            outcomes.append(SanitationOutcome(tuple(pois), tuple([len(pois)] * max(len(group), 1))))
            continue
        xs, ys = sanitizer.space.sample_arrays(sanitizer.plan.n_samples, sanitizer.rng)
        outcomes.append(sanitizer._sanitize_incremental(pois, group, xs, ys))
    return outcomes


@pytest.fixture(params=["two-cores", "inline"])
def placement(request, monkeypatch):
    """A batch on the host's CPUs, and one kept inline by a one-CPU affinity."""
    cores.shutdown()
    if request.param == "inline":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    yield request.param
    cores.shutdown()


class TestBatch:
    """One call per request: the same outcomes and sampler end state as
    testing each candidate on its own draws, on one core or two."""

    @pytest.mark.parametrize("name", ["sum", "max", "min", "custom"])
    def test_grid_batches_equal_per_candidate_runs(self, sequoia_tree, placement, name):
        """Each theta0's grid cases as one batch: the per-candidate reference's
        prefixes, safe lengths and final sampler state, and the pinned digest."""
        aggregate = _diff_aggregate(name)
        cases = _diff_cases(*sequoia_tree, aggregate)
        outcomes = {}
        for theta0 in _DIFF_THETAS:
            batch = [case for case in cases if case[0][1] == theta0]
            answers = [answer for _, answer, _ in batch]
            groups = [group for _, _, group in batch]
            reference = _diff_sanitizer(aggregate, theta0)
            expected = reference_outcomes(reference, answers, groups)
            sanitizer = _diff_sanitizer(aggregate, theta0)
            got = sanitizer.sanitize(answers, groups)
            assert got == expected
            assert sanitizer.rng.bit_generator.state == reference.rng.bit_generator.state
            outcomes.update((case, outcome) for (case, _, _), outcome in zip(batch, got, strict=True))
        records = [_diff_record(case, outcomes[case]) for case, _, _ in cases]
        assert _outcome_digest(records) == _EXACT_COLUMN_OUTCOMES[name]
        helped = placement == "two-cores" and name != "custom" and cores._may_use_helper(2)
        assert (cores._helper is not None) == helped

    def test_untested_candidates_draw_nothing_and_take_no_slot(self, space, engine, placement):
        groups = [
            spread_group(4, seed=1),
            [Point(0.2, 0.3)],  # n = 1
            spread_group(3, seed=2),
            spread_group(5, seed=3),
            spread_group(2, seed=4),
            spread_group(2, seed=5),
        ]
        answers = [engine.query(8, group) for group in groups]
        answers[3] = answers[3][:1]  # k = 1
        answers[5] = []  # k = 0
        reference = make_sanitizer(space, samples=3000, seed=4)
        expected = reference_outcomes(reference, answers, groups)
        sanitizer = make_sanitizer(space, samples=3000, seed=4)
        assert sanitizer.sanitize(answers, groups) == expected
        assert sanitizer.rng.bit_generator.state == reference.rng.bit_generator.state
        assert [o.prefix for o in expected[1::2]] == [tuple(a) for a in answers[1::2]]
        three_tested = make_sanitizer(space, samples=3000, seed=4)
        three_tested.rng.bit_generator.advance(2 * 3000 * 3)
        assert sanitizer.rng.bit_generator.state == three_tested.rng.bit_generator.state

    def test_empty_and_untested_batches_leave_the_sampler(self, space, engine):
        sanitizer = make_sanitizer(space, seed=6)
        before = sanitizer.rng.bit_generator.state
        assert sanitizer.sanitize([], []) == []
        pois = engine.query(4, [Point(0.5, 0.5)])
        assert sanitizer.sanitize([pois], [[Point(0.5, 0.5)]])[0].prefix == tuple(pois)
        assert sanitizer.rng.bit_generator.state == before

    def test_advance_lands_where_the_draws_do(self, space):
        """Each test jumps the sampler 2 * N_H words per earlier test; if numpy
        ever counts a sample's words otherwise, this fails before answers move."""
        for count in (1, 2, 1000, 63_225):
            drawn = np.random.default_rng(count)
            space.sample_arrays(count, drawn)
            jumped = np.random.default_rng(count)
            jumped.bit_generator.advance(2 * count)
            assert jumped.bit_generator.state == drawn.bit_generator.state
            assert np.array_equal(
                np.concatenate(space.sample_arrays(50, jumped)),
                np.concatenate(space.sample_arrays(50, drawn)),
            )

    def test_mismatched_lengths_raise(self, space, engine):
        sanitizer = make_sanitizer(space)
        group = spread_group(3)
        with pytest.raises(ConfigurationError):
            sanitizer.sanitize([engine.query(4, group)], [group, group])

    @pytest.mark.parametrize(
        "rng",
        [np.random.Generator(np.random.MT19937(0)), np.random.Generator(np.random.Philox(0)),
         np.random.RandomState(0), None],
        ids=["mt19937", "philox", "random-state", "none"],
    )
    def test_sampler_must_be_pcg64(self, space, rng):
        plan = SanitationTestPlan.from_parameters(0.05, n_samples_override=100)
        with pytest.raises(ConfigurationError):
            AnswerSanitizer(space, SUM, plan, rng)

    def test_helper_tests_equal_the_inline_ones(self, space, engine):
        group = spread_group(4, seed=8)
        answers = [engine.query(8, group)] * 3
        sanitizer = make_sanitizer(space, samples=2000, seed=9)
        state = sanitizer.rng.bit_generator.state["state"]
        words = (state["state"], state["inc"])
        body = sanitizer._request(words, list(zip(answers, [group] * 3, strict=True)))
        tests = helper_tests(body)
        assert [slot for slot, _ in tests] == [2, 1, 0]
        expected = [o.safe_lengths for o in sanitizer.sanitize(answers, [group] * 3)]
        assert [compute() for _, compute in reversed(tests)] == expected
