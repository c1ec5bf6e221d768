"""Clone-and-sample defense against poisoning clients.

The aggregation is cloned over random client subsets. Each distinct subset
is aggregated and scored once; its utility is the validation accuracy of
its aggregate. A client's influence score is the mean utility of clones
containing it minus the mean utility of clones excluding it, and clients
whose defined score falls below ``-tau`` are flagged. With ``clone_count ==
len(updates)`` and ``clone_subset_size == len(updates) - 1`` the subsets
enumerate leave-one-out exactly, which removes sampling noise at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .fl import Dataset, ModelUpdate, accuracy, aggregate


@dataclass(frozen=True)
class CloneRun:
    """One cloned aggregation: the sampled subset and its utility."""

    subset: frozenset[str]
    utility: float


@dataclass(frozen=True)
class InfluenceScore:
    """Mean in-subset utility minus mean out-of-subset utility.

    ``score`` is None (undefined) unless the client appears in at least one
    subset and is absent from at least one.
    """

    client_id: str
    score: float | None
    in_count: int
    out_count: int


def clone_aggregate(updates: list[ModelUpdate], validation: Dataset, cfg,
                    round_seed: int) -> list[CloneRun]:
    """Run ``cfg.clone_count`` cloned aggregations over random subsets.

    Subsets of size ``cfg.clone_subset_size`` are drawn uniformly without
    replacement, seeded deterministically from (cfg.rng_seed, round_seed,
    clone index). When the configuration matches leave-one-out exactly
    (k == n, m == n-1), clone i omits the i-th client in id order instead
    of sampling.
    """
    k = int(cfg.clone_count)
    m = int(cfg.clone_subset_size)
    if k < 1:
        raise InvalidConfigError("clone_count must be >= 1")
    n = len(updates)
    if m < 1 or m >= n:
        raise InvalidConfigError(
            f"clone_subset_size must satisfy 1 <= m < {n}, got {m}")
    ordered = sorted(updates, key=lambda u: u.client_id)
    leave_one_out = (k == n and m == n - 1)
    utilities: dict[frozenset[str], float] = {}
    runs: list[CloneRun] = []
    for index in range(k):
        if leave_one_out:
            chosen = [j for j in range(n) if j != index]
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence([int(cfg.rng_seed), int(round_seed), index]))
            chosen = sorted(rng.choice(n, size=m, replace=False).tolist())
        subset = [ordered[j] for j in chosen]
        ids = frozenset(u.client_id for u in subset)
        if ids not in utilities:
            utilities[ids] = accuracy(aggregate(subset), validation)
        runs.append(CloneRun(ids, utilities[ids]))
    return runs


def score_clients(runs: list[CloneRun], roster: list[str]) -> list[InfluenceScore]:
    """Influence score per roster client. Deterministic reduction."""
    if not runs:
        raise InvalidInputError("no clone runs to score")
    scores = []
    for client_id in sorted(roster):
        inside = [run.utility for run in runs if client_id in run.subset]
        outside = [run.utility for run in runs if client_id not in run.subset]
        score = float(np.mean(inside) - np.mean(outside)) if inside and outside else None
        scores.append(InfluenceScore(client_id, score, len(inside), len(outside)))
    return scores


def flag_outliers(scores: list[InfluenceScore], tau: float) -> set[str]:
    """Clients whose defined influence score is strictly below ``-tau``."""
    if tau <= 0:
        raise InvalidConfigError("outlier threshold must be positive")
    return {s.client_id for s in scores if s.score is not None and s.score < -tau}
