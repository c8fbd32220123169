"""Correctness checks on the program's outputs, run outside the timed region.

Each checker takes what the program returned and returns a list of failure
messages, empty when the output is right. The checkers never feed anything
back into the program, so a deliberately wrong answer can be handed to them
directly to show that it is counted.
"""

from __future__ import annotations

import math

BNP_TOL = 1e-6        # B&P objective against enumeration
POSTERIOR_TOL = 1e-8  # MipModel.mu_sigma_for against gp.posterior
GAP_TOL = 1e-9        # "zero gap" for an Optimal enumerate solve


def check_bo_history(records, results, *, initial_samples: int, iterations: int,
                     domain, oracle, domain_feasible) -> dict[int, str]:
    """Record index -> problem, for every bad or missing record of a
    ``bo.run`` history.

    ``results`` are the SolveResults of the loop's solve calls, in order.
    """
    failures = {i: "missing" for i in range(len(records),
                                            initial_samples + iterations)}
    running = math.inf
    for i, rec in enumerate(records):
        problems = []
        if not domain_feasible(domain, rec.graph):
            problems.append("proposal outside the domain")
        if oracle(rec.graph) != rec.y:
            problems.append(f"y={rec.y!r} does not re-evaluate")
        running = min(running, rec.y)
        if rec.best_y != running:
            problems.append(f"best_y={rec.best_y!r} is not the running minimum")
        if i >= initial_samples:
            t = i - initial_samples
            if t >= len(results):
                problems.append("no solve result")
            elif results[t].status != "Optimal" or not results[t].gap <= GAP_TOL:
                problems.append(f"solve {results[t].status} gap {results[t].gap!r}")
        if problems:
            failures[i] = "; ".join(problems)
    return failures


def check_bnp(result, enumerated) -> list[str]:
    """A branch-and-propagate solve against enumeration on the same model."""
    if result.status != "Optimal":
        return [f"B&P status {result.status}"]
    if enumerated.status != "Optimal":
        return [f"enumeration status {enumerated.status}"]
    if not abs(result.objective - enumerated.objective) <= BNP_TOL:
        return [f"B&P objective {result.objective!r} != enumeration "
                f"{enumerated.objective!r}"]
    return []


def check_export(flat, parsed, fmt: str) -> list[str]:
    """A written file read back against the ExportedModel it came from."""
    failures = []
    if parsed.num_variables != len(flat.variables):
        failures.append(f"{fmt}: {parsed.num_variables} variables, "
                        f"expected {len(flat.variables)}")
    if parsed.num_constraints != len(flat.constraints):
        failures.append(f"{fmt}: {parsed.num_constraints} constraints, "
                        f"expected {len(flat.constraints)}")
    expected = {flat.names[vid]: coef for vid, coef in flat.objective.items()}
    if parsed.objective != expected:
        failures.append(f"{fmt}: objective differs")
    return failures


def check_posterior(mip, gp_model, graphs, posterior) -> list[str]:
    """The encoded model's exact mean/deviation against the GP posterior."""
    failures = []
    for j, graph in enumerate(graphs):
        mu, sigma = mip.mu_sigma_for(graph)
        mu_ref, var_ref = posterior(gp_model, graph)
        if not (abs(mu - mu_ref) <= POSTERIOR_TOL
                and abs(sigma - math.sqrt(var_ref)) <= POSTERIOR_TOL):
            failures.append(f"graph {j}: mu/sigma {mu!r}/{sigma!r} vs "
                            f"{mu_ref!r}/{math.sqrt(var_ref)!r}")
    return failures
