"""Command-line entry point wiring simulation, fitting, prediction and studies.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 divergence,
5 dimension mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, gibbs, simulate, vi
from .freqfit import frequentist_fit
from .model import (DimensionMismatchError, Hyperparams, ModelConfig, ValidationError,
                    default_hyperparams, load_csv, load_theta_csv, mean_matrix, param_rows,
                    write_csv, write_rows, write_theta_csv)

EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4
EXIT_DIMENSION = 5


def _parse_hyper(pairs, dataset) -> Hyperparams:
    names = {f.name for f in dataclasses.fields(Hyperparams)}
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"--hyper expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        if key not in names:
            raise ValidationError(f"unknown hyperparameter {key!r}")
        overrides[key] = float(val)
    return dataclasses.replace(default_hyperparams(dataset), **overrides)


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sweep_limits(args) -> dict:
    """--max-iter and --tol where given; ModelConfig's defaults apply otherwise."""
    return {k: getattr(args, k) for k in ("max_iter", "tol") if hasattr(args, k)}


def _model_config(args, dataset) -> ModelConfig:
    return ModelConfig(Q=args.q, hyper=_parse_hyper(args.hyper, dataset), seed=args.seed,
                       **_sweep_limits(args))


def _initial_theta(mode, dataset, config, init_file=None):
    if (mode == "file") != bool(init_file):
        raise ValidationError("--init file and --init-file go together: give both or neither")
    if mode == "freq":
        return frequentist_fit(dataset, config.Q)
    if mode == "random":
        return vi.random_theta(dataset, config.Q, np.random.default_rng(config.seed))
    if mode == "file":
        return load_theta_csv(init_file)
    if mode == "mcmc-short":
        return gibbs.mcmc_short_init(dataset, config)
    raise ValidationError(f"unknown init mode {mode!r}")


# simulate's custom-grid flags, by dest, and the SimScenario field each sets;
# they default to argparse.SUPPRESS, so only the given ones are attributes
_CUSTOM_GRID = {"i": "I", "j": "J", "lam": "lambda_true", "sigma2_g": "sigma2_g",
                "sigma2_e": "sigma2_e", "sigma2_y": "sigma2_y", "mu_mean": "mu_mean",
                "missing": "missing_fraction"}


def _scenario_from_args(args) -> simulate.SimScenario:
    custom = {field: getattr(args, dest) for dest, field in _CUSTOM_GRID.items()
              if hasattr(args, dest)}
    if args.scenario:
        if custom:
            raise ValidationError("--scenario takes none of --i, --j, --lambda, --sigma2-g, "
                                  "--sigma2-e, --sigma2-y, --mu-mean, --missing")
        scenario = simulate.scenario_by_name(args.scenario)
        return simulate.with_seed(scenario, args.seed) if args.seed is not None else scenario
    if "I" not in custom or "J" not in custom:
        raise ValidationError("either --scenario or --i/--j/--lambda are required")
    lam_text = custom.pop("lambda_true", "")
    lam = tuple(float(v) for v in lam_text.split(",")) if lam_text else ()
    return simulate.SimScenario(Q=len(lam), lambda_true=lam,
                               seed=args.seed if args.seed is not None else 0,
                               name="custom", **custom)


def run_simulate(args) -> int:
    dataset, truth = simulate.simulate(_scenario_from_args(args))
    out = _outdir(args)
    write_csv(dataset, out / "data.csv")
    write_theta_csv(truth, out / "truth.csv")
    print(f"wrote {out / 'data.csv'} ({dataset.n_obs} observations) and truth.csv")
    return 0


def run_fit_freq(args) -> int:
    dataset = load_csv(args.input)
    theta = frequentist_fit(dataset, args.q)
    out = _outdir(args)
    write_theta_csv(theta, out / "theta.csv")
    print(f"wrote {out / 'theta.csv'}")
    return 0


def _fit_vi(args, dataset):
    config = _model_config(args, dataset)
    return vi.fit(dataset, config, _initial_theta(args.init, dataset, config, args.init_file))


def _print_convergence(result) -> None:
    """The VI fit's convergence line, printed by every command that runs one."""
    print(f"converged={result.converged} n_iter={result.n_iter} "
          f"elbo={result.elbo_trace[-1]:.4f}")


def run_fit_vi(args) -> int:
    dataset = load_csv(args.input)
    result = _fit_vi(args, dataset)
    out = _outdir(args)
    write_theta_csv(result.theta, out / "theta.csv")
    state = result.state
    write_rows(out / "vi_state.csv", ["parameter", "index1", "index2", "mean", "variance"],
               [*param_rows((b, getattr(state, f"mu_q_{b}"), getattr(state, f"Sigma_q_{b}"))
                            for b in vi.BLOCKS),
                ("tau_shape", "", "", state.a_q, ""), ("tau_rate", "", "", state.b_q, "")])
    write_rows(out / "elbo_trace.csv", ["iteration", "elbo"], enumerate(result.elbo_trace))
    write_rows(out / "fit_summary.csv", ["key", "value"],
               [("converged", int(result.converged)), ("n_iter", result.n_iter),
                ("wall_time", result.wall_time), ("final_elbo", result.elbo_trace[-1])])
    _print_convergence(result)
    return 0


def _gibbs_draws(args, dataset, config):
    """gibbs_fit with the chain flags; R-hat's size rule is checked before any scan."""
    if args.chains >= 2 and args.iters - args.burn < 4:
        raise ValidationError(f"R-hat needs --iters - --burn >= 4 with 2 or more chains; "
                              f"got {args.iters} - {args.burn}")
    return gibbs.gibbs_fit(dataset, config, n_chains=args.chains,
                           n_iter=args.iters, n_burn=args.burn)


def run_fit_mcmc(args) -> int:
    dataset = load_csv(args.input)
    draws = _gibbs_draws(args, dataset, _model_config(args, dataset))
    out = _outdir(args)
    summary = gibbs.summarize(draws)
    stats = ("mean", "q05", "q50", "q95")
    write_rows(out / "mcmc_summary.csv", ["parameter", "index1", "index2", *stats],
               param_rows((name, *(block[s] for s in stats)) for name, block in summary.items()))
    write_theta_csv(gibbs.posterior_mean_theta(draws), out / "theta.csv")
    if draws.n_chains >= 2:
        write_rows(out / "rhat.csv", ["parameter", "index", "rhat"],
                   ((name, index, value) for name, index, _, value
                    in param_rows(gibbs.rhat_table(draws).items())))
    if args.save_draws:
        write_rows(out / "draws_scalar.csv", ["chain", "iteration", "mu", "sigma2"],
                   ((c + 1, args.burn + t + 1, draws.mu[c, t], draws.sigma2[c, t])
                    for c in range(draws.n_chains) for t in range(draws.n_iter)))
    print(f"wrote {out / 'mcmc_summary.csv'} ({draws.n_chains} chains x {draws.n_iter} "
          f"draws after {args.burn} burn-in)")
    return 0


def run_predict(args) -> int:
    analysis.check_n_draws(args.draws)
    dataset = load_csv(args.input)
    result = _fit_vi(args, dataset)
    t0 = time.perf_counter()
    summary = analysis.predict(result, dataset, n_draws=args.draws,
                               include_noise=args.include_noise, seed=args.seed)
    seconds = time.perf_counter() - t0
    out = _outdir(args)
    paths = analysis.export_heatmap(summary, dataset, out / args.prefix)
    _print_convergence(result)
    print(f"predict draws={args.draws} threads={summary.threads} seconds={seconds:.3f}")
    print("wrote " + ", ".join(paths))
    return 0


def run_compare(args) -> int:
    dataset = load_csv(args.input)
    config = _model_config(args, dataset)
    # Gibbs first: bad sizes are rejected before either fit does any work
    draws = _gibbs_draws(args, dataset, config)
    vi_fit = vi.fit(dataset, config, frequentist_fit(dataset, config.Q))
    report = analysis.compare(vi_fit, draws, dataset)
    out = _outdir(args)
    report.to_csv(out / "compare.csv")
    (out / "compare.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    _print_convergence(vi_fit)
    if draws.n_chains >= 2:
        # the largest split R-hat and the parameter it belongs to
        name, index, _, value = max(param_rows(gibbs.rhat_table(draws).items()),
                                    key=lambda row: row[3])
        print(f"gibbs max_rhat={value:.4f} parameter={name}{f'[{index}]' if index else ''}")
    print(report.to_text())
    return 0


def run_init_study(args) -> int:
    if args.n_seeds < 1:
        raise ValidationError(f"--n-seeds must be >= 1, got {args.n_seeds}")
    scenario = simulate.scenario_by_name(args.scenario)
    rows = []
    for seed_offset in range(args.n_seeds):
        seed = args.seed + seed_offset
        dataset, truth = simulate.simulate(simulate.with_seed(scenario, seed))
        truth_cells = mean_matrix(truth)[dataset.rows, dataset.cols]
        config = ModelConfig(Q=scenario.Q, hyper=default_hyperparams(dataset), seed=seed,
                             **_sweep_limits(args))
        for mode in ("random", "freq", "mcmc-short"):
            trace = []

            def record(sweep, state, mode=mode, trace=trace):
                theta = vi.posterior_mean_theta(state)
                fitted = mean_matrix(theta)[dataset.rows, dataset.cols]
                trace.append((sweep, analysis.rmse(fitted, dataset.y),
                              analysis.rmse(fitted, truth_cells)))

            vi.fit(dataset, config, _initial_theta(mode, dataset, config), callback=record)
            rows += [(seed, mode, *entry) for entry in trace]
    out = _outdir(args)
    write_rows(out / "init_study.csv",
               ["seed", "init", "iteration", "rmse_observed", "rmse_truth"], rows)
    print(f"wrote {out / 'init_study.csv'}")
    return 0


def run_benchmark(args) -> int:
    rows = analysis.benchmark_rows(
        args.group, q_values=tuple(int(q) for q in args.q_list.split(",")),
        smoke=args.smoke, seed=args.seed)
    out = _outdir(args)
    write_rows(out / f"benchmark_{args.group}.csv",
               ["scenario", "I", "J", "Q", "n", "vi_time", "mcmc_time", "ratio"], rows)
    for r in rows:
        print(f"{r[0]}: n={r[4]} VI {r[5]:.2f}s MCMC {r[6]:.2f}s ratio {r[7]:.2f}")
    return 0


def _read_config_file(path) -> dict:
    values, first_line = {}, {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "hyper":
            # each hyper line is one --hyper flag; a command-line --hyper appends after them
            values[key] = values.get(key, []) + [val]
            continue
        if key in first_line:
            raise ValidationError(f"{path}:{lineno}: config key {key} repeats line "
                                  f"{first_line[key]}")
        first_line[key], values[key] = lineno, val
    return values


_SWITCH_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _config_value(key, value, action):
    """A config value as its flag's default; a switch takes true/false/yes/no/1/0."""
    if action.nargs != 0:
        return value
    if value.lower() not in _SWITCH_VALUES:
        raise ValidationError(f"config key {key} is a switch: expected true/false/yes/no/1/0, "
                              f"got {value!r}")
    return _SWITCH_VALUES[value.lower()]


def _config_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ammivi", add_help=False)
    parser.add_argument("--config", help="key = value config file; flags override it")
    return parser


def build_parser(config_defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ammivi", parents=[_config_parser()],
        description="Bayesian AMMI analysis of genotype-by-environment data "
                    "via variational inference and Gibbs sampling")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = []

    def add_parser(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        subparsers.append(p)
        return p

    # flags shared by several subcommands; built per call because argparse
    # shares these action objects, and config defaults are set on them
    input_flag = argparse.ArgumentParser(add_help=False)
    input_flag.add_argument("--input", required=True)
    output_flag = argparse.ArgumentParser(add_help=False)
    output_flag.add_argument("--output-dir", default=".", help="directory for output files")
    seed_flag = argparse.ArgumentParser(add_help=False)
    seed_flag.add_argument("--seed", type=int, default=0)
    q_flag = argparse.ArgumentParser(add_help=False)
    q_flag.add_argument("--q", type=int, default=1, help="number of bilinear components")
    sweep_flags = argparse.ArgumentParser(add_help=False)
    sweep_flags.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    sweep_flags.add_argument("--max-iter", type=int, default=argparse.SUPPRESS)
    hyper_flag = argparse.ArgumentParser(add_help=False)
    hyper_flag.add_argument("--hyper", action="append", metavar="KEY=VALUE",
                            help="override a prior hyperparameter (repeatable)")
    fit_flags = [output_flag, seed_flag, q_flag, sweep_flags, hyper_flag]
    init_flags = argparse.ArgumentParser(add_help=False)
    init_flags.add_argument("--init", choices=["freq", "random", "file", "mcmc-short"],
                            default="freq")
    init_flags.add_argument("--init-file")
    chain_flags = argparse.ArgumentParser(add_help=False)
    chain_flags.add_argument("--chains", type=int, default=4)
    chain_flags.add_argument("--iters", type=int, default=6000)
    chain_flags.add_argument("--burn", type=int, default=1000)

    p = add_parser("simulate", run_simulate, help="generate a synthetic trial dataset")
    p.add_argument("--scenario", help="named scenario from the built-in grid")
    custom = p.add_argument_group("custom grid (instead of --scenario)",
                                  "left out, SimScenario's defaults apply")
    custom.add_argument("--i", type=int, default=argparse.SUPPRESS, help="number of genotypes")
    custom.add_argument("--j", type=int, default=argparse.SUPPRESS,
                        help="number of environments")
    custom.add_argument("--lambda", dest="lam", default=argparse.SUPPRESS,
                        help="comma-separated singular values")
    for flag in ("--sigma2-g", "--sigma2-e", "--sigma2-y", "--mu-mean", "--missing"):
        custom.add_argument(flag, type=float, default=argparse.SUPPRESS)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--seed", type=int, default=None)

    add_parser("fit-freq", run_fit_freq, help="frequentist multi-stage fit",
               parents=[input_flag, output_flag, q_flag])

    add_parser("fit-vi", run_fit_vi, help="coordinate-ascent variational fit",
               parents=[input_flag, init_flags, *fit_flags])

    p = add_parser("fit-mcmc", run_fit_mcmc, help="Gibbs sampler fit", parents=[
        input_flag, chain_flags, output_flag, seed_flag, q_flag, hyper_flag])
    p.add_argument("--save-draws", action="store_true")

    # parents come first in --help, so own flags that lead it are a parent too
    own = argparse.ArgumentParser(add_help=False)
    own.add_argument("--draws", type=int, default=4000)
    own.add_argument("--include-noise", action="store_true")
    own.add_argument("--prefix", default="predict")
    add_parser("predict", run_predict, help="fit VI and export predictive quantile heatmaps",
               parents=[input_flag, init_flags, own, *fit_flags])

    add_parser("compare", run_compare, help="fit both ways and compare posteriors",
               parents=[input_flag, chain_flags, *fit_flags])

    p = add_parser("init-study", run_init_study, help="per-iteration RMSE for three init modes",
                   parents=[output_flag, seed_flag, sweep_flags])
    p.add_argument("--scenario", default="init-study")
    p.add_argument("--n-seeds", type=int, default=1)

    own = argparse.ArgumentParser(add_help=False)
    own.add_argument("--group", choices=["small", "large"], required=True)
    own.add_argument("--q-list", default="1,2")
    own.add_argument("--smoke", action="store_true",
                     help="reduced-iteration mode (100 Gibbs iterations per chain)")
    add_parser("benchmark", run_benchmark, help="VI vs MCMC wall-time table",
               parents=[own, output_flag, seed_flag])

    if config_defaults:
        # a key is a long flag's name (with _ for -); string defaults are
        # re-parsed by argparse with each flag's type, so config values get
        # the same conversion as command-line values; explicit flags still
        # override because they are parsed afterwards
        flags = [{s[2:].replace("-", "_"): a for a in p._actions for s in a.option_strings
                  if s.startswith("--")} for p in subparsers]
        unknown = sorted(set(config_defaults).difference(*flags))
        if unknown:
            raise ValidationError(f"config key(s) no subcommand defines: {', '.join(unknown)}")
        for p, actions in zip(subparsers, flags):
            p.set_defaults(**{actions[k].dest: _config_value(k, v, actions[k])
                              for k, v in config_defaults.items() if k in actions})
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the config file is read first because its values become parser defaults
    config_path = _config_parser().parse_known_args(argv)[0].config
    try:
        config_defaults = None if config_path is None else _read_config_file(config_path)
        args = build_parser(config_defaults).parse_args(argv)
        return args.func(args)
    except DimensionMismatchError as exc:
        print(f"error: dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except vi.DivergenceError as exc:
        print(f"error: divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
