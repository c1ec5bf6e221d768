"""Clone-and-sample guard: sampling, influence scores, flagging."""

import numpy as np
import pytest

from fedshield import outliers
from fedshield.errors import InvalidConfigError
from fedshield.fl import make_update, synthetic_dataset
from fedshield.outliers import (
    CloneRun,
    clone_aggregate,
    flag_outliers,
    score_clients,
)
from fedshield.policy import SessionConfig


def guard_cfg(k, m, seed=0):
    return SessionConfig(clone_count=k, clone_subset_size=m, rng_seed=seed)


def updates_for(n_clients, dim=4, seed=0, identical=False):
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(dim + 1)
    out = []
    for i in range(n_clients):
        params = shared if identical else rng.standard_normal(dim + 1)
        out.append(make_update(f"c{i}", 1, params, 20))
    return out


class TestCloneAggregate:
    def test_identical_updates_equal_utilities(self):
        updates = updates_for(5, identical=True)
        validation = synthetic_dataset(60, 4, seed=2)
        runs = clone_aggregate(updates, validation, guard_cfg(k=8, m=3), round_seed=1)
        assert len(runs) == 8
        assert len({run.utility for run in runs}) == 1

    def test_leave_one_out_enumeration(self):
        updates = updates_for(4)
        validation = synthetic_dataset(40, 4, seed=3)
        runs = clone_aggregate(updates, validation, guard_cfg(k=4, m=3), round_seed=1)
        omitted = []
        all_ids = {u.client_id for u in updates}
        for run in runs:
            assert len(run.subset) == 3
            missing = all_ids - run.subset
            assert len(missing) == 1
            omitted.append(missing.pop())
        assert sorted(omitted) == sorted(all_ids)

    def test_fixed_seed_reproducible(self):
        updates = updates_for(6)
        validation = synthetic_dataset(50, 4, seed=5)
        first = clone_aggregate(updates, validation, guard_cfg(k=5, m=3, seed=9),
                                round_seed=4)
        second = clone_aggregate(updates, validation, guard_cfg(k=5, m=3, seed=9),
                                 round_seed=4)
        assert [r.subset for r in first] == [r.subset for r in second]
        assert [r.utility for r in first] == [r.utility for r in second]
        other_round = clone_aggregate(updates, validation,
                                      guard_cfg(k=5, m=3, seed=9), round_seed=5)
        assert [r.subset for r in first] != [r.subset for r in other_round]

    def test_subset_size_must_be_smaller_than_updates(self):
        updates = updates_for(3)
        validation = synthetic_dataset(30, 4, seed=1)
        with pytest.raises(InvalidConfigError):
            clone_aggregate(updates, validation, guard_cfg(k=2, m=3), round_seed=0)


def weighted_updates(n_clients, dim=4, seed=7):
    """Distinct parameters and example counts, so the weights matter."""
    rng = np.random.default_rng(seed)
    return [make_update(f"c{i}", 1, rng.standard_normal(dim + 1), 20 + i)
            for i in range(n_clients)]


# (subset, utility) per clone, as computed by aggregating and scoring every
# clone on its own, repeated subsets included.
GOLDEN_SAMPLED = [
    ("c2c3", 0.365), ("c2c3", 0.365), ("c1c3", 0.34), ("c0c2", 0.435),
    ("c0c2", 0.435), ("c0c1", 0.395), ("c0c2", 0.435), ("c1c2", 0.495),
    ("c1c2", 0.495), ("c2c3", 0.365), ("c2c3", 0.365), ("c1c3", 0.34),
    ("c0c3", 0.34), ("c1c3", 0.34), ("c0c1", 0.395), ("c1c3", 0.34),
    ("c0c1", 0.395), ("c1c3", 0.34), ("c0c2", 0.435), ("c0c2", 0.435),
    ("c1c3", 0.34), ("c2c3", 0.365), ("c1c2", 0.495), ("c0c2", 0.435),
    ("c1c3", 0.34), ("c0c2", 0.435), ("c1c2", 0.495), ("c1c2", 0.495),
    ("c1c3", 0.34), ("c0c1", 0.395), ("c0c3", 0.34), ("c2c3", 0.365),
]
GOLDEN_LEAVE_ONE_OUT = [
    ("c1c2c3c4", 0.2), ("c0c2c3c4", 0.17), ("c0c1c3c4", 0.18),
    ("c0c1c2c4", 0.21), ("c0c1c2c3", 0.345),
]


class TestDistinctSubsets:
    @pytest.mark.parametrize("n, k, m, golden", [
        (4, 32, 2, GOLDEN_SAMPLED),
        (5, 5, 4, GOLDEN_LEAVE_ONE_OUT),
    ], ids=["sampled", "leave-one-out"])
    def test_golden_subsets_and_utilities(self, n, k, m, golden):
        validation = synthetic_dataset(200, 4, seed=11)
        runs = clone_aggregate(weighted_updates(n), validation,
                               guard_cfg(k=k, m=m, seed=7), round_seed=3)
        assert [("".join(sorted(r.subset)), r.utility) for r in runs] == golden

    def test_each_distinct_subset_aggregated_once(self, monkeypatch):
        real_aggregate = outliers.aggregate
        calls = []

        def counting_aggregate(subset):
            calls.append(frozenset(u.client_id for u in subset))
            return real_aggregate(subset)

        monkeypatch.setattr(outliers, "aggregate", counting_aggregate)
        validation = synthetic_dataset(200, 4, seed=11)
        runs = clone_aggregate(weighted_updates(4), validation,
                               guard_cfg(k=32, m=2, seed=7), round_seed=3)
        assert len(runs) == 32
        distinct = {run.subset for run in runs}
        assert len(calls) == len(distinct) == 6
        assert set(calls) == distinct


def pair_fixture():
    """4 clients, all 6 size-2 subsets; utility 0.5 whenever the attacker
    'a' participates, 0.9 otherwise. Hand-computed scores:
    a: 0.5 - 0.9 = -0.4; honest: (0.5+0.9+0.9)/3 - (0.5+0.5+0.9)/3 = 2/15."""
    clients = ["a", "b", "c", "d"]
    runs = []
    for i in range(4):
        for j in range(i + 1, 4):
            subset = frozenset({clients[i], clients[j]})
            utility = 0.5 if "a" in subset else 0.9
            runs.append(CloneRun(subset, utility))
    return clients, runs


class TestScores:
    def test_identical_utilities_score_zero(self):
        runs = [CloneRun(frozenset({"a", "b"}), 0.8),
                CloneRun(frozenset({"b", "c"}), 0.8),
                CloneRun(frozenset({"a", "c"}), 0.8)]
        scores = score_clients(runs, ["a", "b", "c"])
        assert all(s.score == 0.0 for s in scores)

    def test_hand_computed_attack_fixture(self):
        clients, runs = pair_fixture()
        scores = {s.client_id: s for s in score_clients(runs, clients)}
        assert scores["a"].score == pytest.approx(-0.4, abs=1e-12)
        assert scores["a"].in_count == 3 and scores["a"].out_count == 3
        for honest in ("b", "c", "d"):
            assert scores[honest].score == pytest.approx(2.0 / 15.0, abs=1e-12)
            assert scores[honest].score >= 0

    def test_client_in_every_subset_is_undefined(self):
        runs = [CloneRun(frozenset({"a", "b"}), 0.7),
                CloneRun(frozenset({"a", "c"}), 0.9)]
        scores = {s.client_id: s for s in score_clients(runs, ["a", "b", "c"])}
        assert scores["a"].score is None
        assert scores["b"].score is not None


class TestFlagging:
    def test_rule_application(self):
        clients, runs = pair_fixture()
        scores = score_clients(runs, clients)
        assert flag_outliers(scores, tau=0.02) == {"a"}

    def test_all_zero_scores_flags_nothing(self):
        runs = [CloneRun(frozenset({"a", "b"}), 0.5),
                CloneRun(frozenset({"b", "c"}), 0.5),
                CloneRun(frozenset({"a", "c"}), 0.5)]
        scores = score_clients(runs, ["a", "b", "c"])
        for tau in (1e-9, 0.02, 0.5, 10.0):
            assert flag_outliers(scores, tau) == set()

    def test_boundary_is_strict(self):
        clients, runs = pair_fixture()
        scores = score_clients(runs, clients)
        assert flag_outliers(scores, tau=0.4) == set()  # score == -tau: kept
        assert flag_outliers(scores, tau=0.3999) == {"a"}

    def test_tau_must_be_positive(self):
        with pytest.raises(InvalidConfigError):
            flag_outliers([], tau=0.0)


class TestPipelineDeterminism:
    def test_full_pipeline_is_pure(self):
        updates = updates_for(5, seed=8)
        validation = synthetic_dataset(80, 4, seed=8)
        config = guard_cfg(k=5, m=4, seed=11)

        def pipeline():
            runs = clone_aggregate(updates, validation, config, round_seed=2)
            scores = score_clients(runs, [u.client_id for u in updates])
            return flag_outliers(scores, 0.02), [
                (s.client_id, s.score) for s in scores]

        assert pipeline() == pipeline()
