"""Command-line entry point.

Subcommands cover enumeration, sampling, kernel evaluation, GP fit/predict,
model export, exact solving, bijection verification, and full optimization
runs. A JSON config file supplies shared keys; command-line flags override
config values, and every source of randomness flows from a single seed.

Exit codes: 0 success, 1 usage error, 2 runtime error (including a failed
bijection check).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bo as bo_mod
from . import gp as gp_mod
from .encode import encode_acquisition, encode_shortest_paths
from .errors import GraphBoError
from .graphs import (
    DomainSpec,
    enumerate_domain,
    read_graphs,
    read_dataset,
    sample_feasible,
    write_graphs,
)
from .kernels import KernelHyperparams, KernelVariant, k_combined, k_feature, k_graph
from .modelio import DEFAULT_BREAKPOINTS, export_model
from .solve import DEFAULT_BUDGET, DEFAULT_STRATEGY, SolveStrategy, count_feasible, solve

CONFIG_KEYS = {
    "seed", "domain", "variant", "alpha", "beta", "sigma_k_sq", "beta_sqrt",
    "initial_samples", "iterations", "solver_budget", "warm_start_count",
    "strategy", "oracle", "restarts",
    "breakpoints", "format", "count",
}

ORACLE_KEYS = {"name", "target", "weights", "coeffs", "target_graph"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    unknown = set(config) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "oracle" in config:
        bad = set(config["oracle"]) - ORACLE_KEYS
        if bad:
            raise ValueError(f"unknown oracle keys: {sorted(bad)}")
    return config


def _pick(cli_value, config: dict, key: str, default):
    if cli_value is not None:
        return cli_value
    if key in config:
        return config[key]
    return default


def _domain_from(args, config: dict) -> DomainSpec:
    if getattr(args, "n", None) is not None:
        spec = {
            "n": args.n,
            "directed": bool(getattr(args, "directed", False)),
            "num_labels": getattr(args, "labels", None) or 1,
        }
        if getattr(args, "n_min", None) is not None:
            spec["n_min"] = args.n_min
        if getattr(args, "features", None) is not None:
            spec["num_features"] = args.features
        return DomainSpec.from_dict(spec)
    if "domain" in config:
        return DomainSpec.from_dict(config["domain"])
    raise ValueError("no domain given: pass --n or a config with a domain entry")


def _hyper_from(args, config: dict) -> KernelHyperparams:
    default = KernelHyperparams()
    return KernelHyperparams(
        alpha=float(_pick(getattr(args, "alpha", None), config, "alpha", default.alpha)),
        beta=float(_pick(getattr(args, "beta", None), config, "beta", default.beta)),
        sigma_k_sq=_pick(getattr(args, "sigma_k_sq", None), config, "sigma_k_sq", None),
    )


def _bo_config(args, config: dict, seed: int) -> bo_mod.BoConfig:
    """Flags over config keys; a field that neither sets keeps the BoConfig
    default."""
    fields = {  # BoConfig field: (flag value, config key, type)
        "variant": (args.variant, "variant", KernelVariant),
        "beta_sqrt": (args.beta_sqrt, "beta_sqrt", float),
        "initial_samples": (args.initial_samples, "initial_samples", int),
        "iterations": (args.iterations, "iterations", int),
        "solver_budget": (args.budget, "solver_budget", float),
        "warm_start_count": (args.warm, "warm_start_count", int),
        "strategy": (args.strategy, "strategy", SolveStrategy),
    }
    given = {name: kind(value) for name, (flag, key, kind) in fields.items()
             if (value := _pick(flag, config, key, None)) is not None}
    return bo_mod.BoConfig(seed=seed, **given)


def _oracle_from(args, config: dict) -> bo_mod.ObjectiveOracle:
    spec = dict(config.get("oracle", {}))
    if getattr(args, "oracle", None):
        spec["name"] = args.oracle
    if getattr(args, "target", None):
        spec["target"] = [float(x) for x in args.target.split(",")]
    if "name" not in spec:
        raise ValueError("no oracle given: pass --oracle or a config oracle entry")
    name = spec.pop("name")
    return bo_mod.synthetic_oracle(name, spec)


def build_parser() -> _Parser:
    parser = _Parser(prog="graphbo", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_domain_flags(p):
        p.add_argument("--n", type=int, help="graph size (max size when --n-min given)")
        p.add_argument("--n-min", dest="n_min", type=int)
        p.add_argument("--directed", action="store_true")
        p.add_argument("--labels", type=int, help="number of node labels")
        p.add_argument("--features", type=int, help="number of node features")

    p = sub.add_parser("enumerate", help="list every connected graph in a domain")
    add_domain_flags(p)
    p.add_argument("--out", help="write graphs to this file (one JSON object per line)")

    p = sub.add_parser("sample", help="draw feasible random graphs")
    add_domain_flags(p)
    p.add_argument("--count", type=int)
    p.add_argument("--out")

    p = sub.add_parser("kernel", help="kernel value between two graph files")
    p.add_argument("--variant", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--sigma-k-sq", dest="sigma_k_sq", type=float)
    p.add_argument("--combined", action="store_true",
                   help="print alpha*graph+beta*feature instead of the graph kernel")
    p.add_argument("--feature", action="store_true",
                   help="print the feature-kernel value instead")

    p = sub.add_parser("fit", help="fit GP hyperparameters on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--variant")
    p.add_argument("--restarts", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="posterior mean/variance for graphs")
    p.add_argument("--model", required=True)
    p.add_argument("--graphs", required=True)
    p.add_argument("--beta-sqrt", dest="beta_sqrt", type=float)

    p = sub.add_parser("encode", help="export the acquisition model")
    add_domain_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--beta-sqrt", dest="beta_sqrt", type=float)
    p.add_argument("--format", choices=("mps", "lp"))
    p.add_argument("--breakpoints", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="minimize the acquisition over a domain")
    add_domain_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--beta-sqrt", dest="beta_sqrt", type=float)
    p.add_argument("--strategy")
    p.add_argument("--budget", type=float)
    p.add_argument("--warm", type=int)
    p.add_argument("--out", help="write the proposed graph here")

    p = sub.add_parser("verify-bijection",
                       help="feasible-assignment count vs connected-graph count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-min", dest="n_min", type=int)
    p.add_argument("--directed", action="store_true")

    for name in ("bo", "baseline"):
        p = sub.add_parser(name, help="optimization run" if name == "bo"
                           else "random-sampling baseline run")
        add_domain_flags(p)
        p.add_argument("--oracle")
        p.add_argument("--target", help="comma-separated path-profile target")
        p.add_argument("--variant")
        p.add_argument("--beta-sqrt", dest="beta_sqrt", type=float)
        p.add_argument("--initial-samples", dest="initial_samples", type=int)
        p.add_argument("--iterations", type=int)
        p.add_argument("--budget", type=float)
        p.add_argument("--warm", type=int)
        p.add_argument("--strategy")
        p.add_argument("--history", help="write the run history CSV here")
        p.add_argument("--proposals", help="write proposed graphs here")
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config) if args.config else {}
        seed = int(_pick(args.seed, config, "seed", 0))
        return _run_command(args, config, seed)
    except (GraphBoError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_command(args, config: dict, seed: int) -> int:
    command = args.command

    if command == "enumerate":
        domain = _domain_from(args, config)
        graphs = list(enumerate_domain(domain))
        if args.out:
            write_graphs(args.out, graphs)
        print(len(graphs))
        return 0

    if command == "sample":
        domain = _domain_from(args, config)
        count = int(_pick(args.count, config, "count", 1))
        rng = np.random.default_rng(seed)
        graphs = [sample_feasible(domain, rng) for _ in range(count)]
        if args.out:
            write_graphs(args.out, graphs)
        print(len(graphs))
        return 0

    if command == "kernel":
        variant = KernelVariant(args.variant)
        hyper = _hyper_from(args, config)
        ga = read_graphs(args.a)[0]
        gb = read_graphs(args.b)[0]
        if args.combined:
            value = k_combined(ga, gb, variant, hyper)
        elif args.feature:
            value = k_feature(ga.features, gb.features)
        else:
            value = k_graph(ga.summary, gb.summary, variant, hyper)
        print(f"{value:.12g}")
        return 0

    if command == "fit":
        graphs, y = read_dataset(args.data)
        variant = KernelVariant(_pick(args.variant, config, "variant",
                                      bo_mod.BoConfig().variant))
        restarts = int(_pick(args.restarts, config, "restarts", gp_mod.FIT_RESTARTS))
        model = gp_mod.fit(graphs, y, variant, seed=seed, restarts=restarts)
        gp_mod.dump_model(model, args.out)
        h = model.hyper
        print(f"variant={variant.value} alpha={h.alpha:.6g} beta={h.beta:.6g}"
              f" sigma_k_sq={'' if h.sigma_k_sq is None else format(h.sigma_k_sq, '.6g')}")
        return 0

    if command == "predict":
        model = gp_mod.load_model(args.model)
        beta_sqrt = float(_pick(args.beta_sqrt, config, "beta_sqrt",
                                    bo_mod.BoConfig().beta_sqrt))
        print("index,mu,var,lcb")
        for i, graph in enumerate(read_graphs(args.graphs)):
            mu, var = gp_mod.posterior(model, graph)
            # math.sqrt as in gp.lcb: var ** 0.5 may round differently
            print(f"{i},{mu!r},{var!r},{mu - beta_sqrt * math.sqrt(var)!r}")
        return 0

    if command == "encode":
        model = gp_mod.load_model(args.model)
        domain = _domain_from(args, config)
        beta_sqrt = float(_pick(args.beta_sqrt, config, "beta_sqrt",
                                    bo_mod.BoConfig().beta_sqrt))
        fmt = _pick(args.format, config, "format", "mps")
        breakpoints = int(_pick(args.breakpoints, config, "breakpoints",
                                DEFAULT_BREAKPOINTS))
        mip = encode_acquisition(model, domain, beta_sqrt)
        flat = export_model(mip, args.out, fmt=fmt, breakpoints=breakpoints)
        print(f"variables={len(flat.variables)} rows={len(flat.constraints)}")
        return 0

    if command == "solve":
        model = gp_mod.load_model(args.model)
        domain = _domain_from(args, config)
        beta_sqrt = float(_pick(args.beta_sqrt, config, "beta_sqrt",
                                    bo_mod.BoConfig().beta_sqrt))
        strategy = SolveStrategy(_pick(args.strategy, config, "strategy", DEFAULT_STRATEGY))
        budget = float(_pick(args.budget, config, "solver_budget", DEFAULT_BUDGET))
        warm_count = int(_pick(args.warm, config, "warm_start_count", 0))
        warm = bo_mod.warm_start(domain, warm_count, seed)
        result = solve(model, domain, beta_sqrt, budget=budget, strategy=strategy,
                       warm_start=warm)
        print(f"status={result.status} objective="
              f"{'' if result.objective is None else repr(result.objective)}"
              f" bound={result.bound!r} nodes={result.nodes_explored}")
        if args.out and result.incumbent is not None:
            write_graphs(args.out, [result.incumbent])
        return 0 if result.incumbent is not None else 2

    if command == "verify-bijection":
        size = args.n if args.n_min is None else (args.n_min, args.n)
        system = encode_shortest_paths(size, args.directed)
        feasible = count_feasible(system, size, args.directed)
        domain = DomainSpec(n=args.n, n_min=args.n_min, directed=args.directed)
        connected = sum(1 for _ in enumerate_domain(domain))
        print(f"feasible={feasible} connected={connected}")
        if feasible != connected:
            print("error: counts differ", file=sys.stderr)
            return 2
        return 0

    if command in ("bo", "baseline"):
        domain = _domain_from(args, config)
        oracle = _oracle_from(args, config)
        run_config = _bo_config(args, config, seed)
        runner = bo_mod.run if command == "bo" else bo_mod.random_baseline
        history = runner(oracle, domain, run_config)
        if args.history:
            history.to_csv(args.history)
        if args.proposals:
            history.write_proposals(args.proposals)
        print(f"evaluations={len(history.records)} best_y={history.best_y!r}")
        return 0

    raise ValueError(f"unknown command {command!r}")


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
