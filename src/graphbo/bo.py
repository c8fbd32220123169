"""The graph Bayesian-optimization loop and its random-sampling baseline.

Each iteration fits the GP, hands the solver warm-start candidates that are
drawn only if the solver reads them, solves for the exact LCB minimizer (the
solver checks that the model and domain form a valid acquisition problem),
queries the objective, and appends the observation. Deterministic synthetic
objectives stand in for expensive property predictors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .encode import encode_acquisition  # noqa: F401  re-exported from graphbo.bo
from .errors import GraphBoError, UnknownOracleError
from .gp import FIT_RESTARTS, fit, posterior
from .gp import lcb as gp_lcb  # noqa: F401  re-exported from graphbo.bo
from .graphs import AttributedGraph, DomainSpec, sample_feasible, write_graphs
from .kernels import KernelHyperparams, KernelVariant, k_graph
from .solve import DEFAULT_BUDGET, DEFAULT_STRATEGY, SolveStrategy, solve

HISTORY_COLUMNS = ["iter", "proposal_id", "y", "best_y", "mu", "sigma",
                   "solver_status", "bound", "solve_seconds", "alpha", "beta",
                   "sigma_k_sq"]


@dataclass(frozen=True)
class BoConfig:
    """Loop configuration; all randomness flows from ``seed``."""

    variant: KernelVariant = KernelVariant.SSP
    beta_sqrt: float = 1.0
    initial_samples: int = 10
    iterations: int = 50
    solver_budget: float = DEFAULT_BUDGET
    warm_start_count: int = 20
    seed: int = 0
    strategy: SolveStrategy = DEFAULT_STRATEGY
    fit_restarts: int = FIT_RESTARTS

    def __post_init__(self):
        object.__setattr__(self, "variant", KernelVariant(self.variant))
        object.__setattr__(self, "strategy", SolveStrategy(self.strategy))
        if self.initial_samples < 1 or self.solver_budget <= 0 or self.fit_restarts < 1:
            raise ValueError("counts and budgets must be positive")
        if self.iterations < 0 or self.warm_start_count < 0 or self.beta_sqrt < 0:
            raise ValueError("iterations, warm-start count, and beta_sqrt must be nonnegative")


@dataclass(frozen=True)
class ObjectiveOracle:
    """Deterministic black-box objective over attributed graphs."""

    name: str
    params: dict
    fn: Callable[[AttributedGraph], float]

    def __call__(self, graph: AttributedGraph) -> float:
        return float(self.fn(graph))


@dataclass(frozen=True)
class BoRecord:
    iteration: int
    proposal_id: str
    graph: AttributedGraph
    y: float
    best_y: float
    mu: float | None = None
    sigma: float | None = None
    solver_status: str = "init"
    bound: float | None = None
    solve_seconds: float | None = None
    alpha: float | None = None
    beta: float | None = None
    sigma_k_sq: float | None = None


@dataclass
class BoHistory:
    """Per-evaluation records of a run."""

    records: list[BoRecord] = field(default_factory=list)

    @property
    def best_y(self) -> float:
        if not self.records:
            return math.inf
        return self.records[-1].best_y

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(HISTORY_COLUMNS)
            for rec in self.records:
                writer.writerow([
                    rec.iteration, rec.proposal_id, repr(rec.y), repr(rec.best_y),
                    "" if rec.mu is None else repr(rec.mu),
                    "" if rec.sigma is None else repr(rec.sigma),
                    rec.solver_status,
                    "" if rec.bound is None else repr(rec.bound),
                    "" if rec.solve_seconds is None else repr(rec.solve_seconds),
                    "" if rec.alpha is None else repr(rec.alpha),
                    "" if rec.beta is None else repr(rec.beta),
                    "" if rec.sigma_k_sq is None else repr(rec.sigma_k_sq),
                ])

    def write_proposals(self, path) -> None:
        write_graphs(path, [rec.graph for rec in self.records],
                     ids=[rec.proposal_id for rec in self.records])


def read_history_csv(path) -> list[dict]:
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for raw in csv.DictReader(fh):
            row = dict(raw)
            for key in ("y", "best_y", "mu", "sigma", "bound", "solve_seconds",
                        "alpha", "beta", "sigma_k_sq"):
                row[key] = float(raw[key]) if raw[key] else None
            row["iter"] = int(raw["iter"])
            rows.append(row)
    return rows


class BoRunAborted(GraphBoError):
    """Raised when an iteration fails; carries the partial history."""

    def __init__(self, message: str, history: BoHistory):
        super().__init__(message)
        self.history = history


# ---------------------------------------------------------------------------
# synthetic objectives


def synthetic_oracle(name: str, params: dict | None = None) -> ObjectiveOracle:
    """Deterministic desk-scale objectives.

    path_profile: weighted squared deviation of the per-length path counts
    from a target profile, scaled by n^4.
    feature_count: weighted feature-column sums, scaled by n*M.
    kernel_distance: negative length-count kernel value against a pinned
    graph.
    """
    params = dict(params or {})
    if name == "path_profile":
        target = np.asarray(params["target"], dtype=float)
        weights = np.asarray(params.get("weights", np.ones_like(target)), dtype=float)

        def path_profile(graph: AttributedGraph) -> float:
            counts = graph.summary.length_counts.astype(float)
            width = max(len(counts), len(target))
            c = np.zeros(width)
            c[: len(counts)] = counts
            t = np.zeros(width)
            t[: len(target)] = target
            w = np.zeros(width)
            w[: len(weights)] = weights
            return float(np.sum(w * (c - t) ** 2) / graph.n ** 4)

        return ObjectiveOracle(name, params, path_profile)

    if name == "feature_count":
        coeffs = np.asarray(params["coeffs"], dtype=float)

        def feature_count(graph: AttributedGraph) -> float:
            sums = graph.summary.feature_sums.astype(float)
            return float(np.dot(coeffs[: len(sums)], sums)
                         / (graph.n * graph.num_features))

        return ObjectiveOracle(name, params, feature_count)

    if name == "kernel_distance":
        anchor = params["target_graph"]
        if isinstance(anchor, dict):
            anchor = AttributedGraph.from_dict(anchor)

        def kernel_distance(graph: AttributedGraph) -> float:
            return -k_graph(graph.summary, anchor.summary, KernelVariant.SSP,
                            KernelHyperparams())

        return ObjectiveOracle(name, {"target_graph": anchor.to_dict()},
                               kernel_distance)

    raise UnknownOracleError(f"no synthetic objective named {name!r}")


def path_profile_target(n: int) -> list[int]:
    """Per-length path counts of the n-node path graph, the usual target."""
    counts = [n] + [2 * (n - s) for s in range(1, n)]
    return counts


# ---------------------------------------------------------------------------
# warm start


def warm_start(domain: DomainSpec, k: int, seed,
               prior_points: Sequence[AttributedGraph] = ()) -> list[AttributedGraph]:
    """k fresh feasible samples followed by the prior points, unscored.

    Candidates seed the solver's incumbent, and the solver scores them
    itself when it reads them; they are never oracle-evaluated.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    candidates = [sample_feasible(domain, rng) for _ in range(k)]
    candidates.extend(prior_points)
    return candidates


def _drawn_on_read(domain: DomainSpec, k: int, seed: int,
                   prior_points: Sequence[AttributedGraph]) -> Iterator[AttributedGraph]:
    """``warm_start``'s candidates, sampled only once a solver iterates them:
    ``enumerate`` with a complete profile table never does."""
    yield from warm_start(domain, k, seed, prior_points)


# ---------------------------------------------------------------------------
# the loop


def run(oracle: ObjectiveOracle, domain: DomainSpec, config: BoConfig) -> BoHistory:
    """Bayesian optimization with exact acquisition minimization."""
    master = np.random.default_rng(config.seed)
    history = BoHistory()
    points: list[AttributedGraph] = []
    targets: list[float] = []
    best = math.inf

    for i in range(config.initial_samples):
        try:
            graph = sample_feasible(domain, master)
        except GraphBoError as exc:
            raise BoRunAborted(f"initial sampling failed: {exc}", history) from exc
        value = oracle(graph)
        best = min(best, value)
        points.append(graph)
        targets.append(value)
        history.records.append(BoRecord(0, f"g{len(history.records):04d}",
                                        graph, value, best))

    for t in range(1, config.iterations + 1):
        try:
            fit_seed = int(master.integers(2 ** 31))
            warm_seed = int(master.integers(2 ** 31))
            model = fit(points, targets, config.variant, seed=fit_seed,
                        restarts=config.fit_restarts)
            warm = _drawn_on_read(domain, config.warm_start_count, warm_seed,
                                  tuple(points))
            result = solve(model, domain, config.beta_sqrt,
                           budget=config.solver_budget,
                           strategy=config.strategy,
                           warm_start=warm)
            if result.incumbent is None:
                raise GraphBoError(f"solver returned no incumbent ({result.status})")
        except (GraphBoError, ValueError) as exc:
            raise BoRunAborted(f"iteration {t} failed: {exc}", history) from exc
        proposal = result.incumbent
        mu, var = posterior(model, proposal)
        value = oracle(proposal)
        best = min(best, value)
        points.append(proposal)
        targets.append(value)
        history.records.append(BoRecord(
            t, f"g{len(history.records):04d}", proposal, value, best,
            mu=mu, sigma=math.sqrt(var), solver_status=result.status,
            bound=result.bound, solve_seconds=result.wall_time,
            alpha=model.hyper.alpha, beta=model.hyper.beta,
            sigma_k_sq=model.hyper.sigma_k_sq))
    return history


def random_baseline(oracle: ObjectiveOracle, domain: DomainSpec,
                    config: BoConfig) -> BoHistory:
    """Feasible random sampling at the same evaluation budget."""
    master = np.random.default_rng(config.seed)
    history = BoHistory()
    best = math.inf
    for i in range(config.initial_samples + config.iterations):
        graph = sample_feasible(domain, master)
        value = oracle(graph)
        best = min(best, value)
        iteration = 0 if i < config.initial_samples else i - config.initial_samples + 1
        history.records.append(BoRecord(iteration, f"g{len(history.records):04d}",
                                        graph, value, best,
                                        solver_status="random"))
    return history
