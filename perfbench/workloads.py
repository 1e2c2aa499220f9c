"""The benchmark's workloads: inputs, one closed-loop operation each, and checks.

Importing this module imports the library, so the import is part of the
timed set-up. Every call into the library goes through a module attribute
(``vi.fit``, ``model.load_csv`` ...) so that the tracer can wrap it.
"""

from __future__ import annotations

import dataclasses
import importlib
import resource
import time
from pathlib import Path

import numpy as np

import checks

model = importlib.import_module("ammivi.model")
freqfit = importlib.import_module("ammivi.freqfit")
vi = importlib.import_module("ammivi.vi")
gibbs = importlib.import_module("ammivi.gibbs")
analysis = importlib.import_module("ammivi.analysis")
statsmath = importlib.import_module("ammivi.statsmath")
# The package re-exports simulate() under the submodule's name; import the
# module itself, which works whether or not the package shadows it.
simulate_mod = importlib.import_module("ammivi.simulate")

MODULES = {"model": model, "freqfit": freqfit, "vi": vi, "gibbs": gibbs,
           "analysis": analysis, "statsmath": statsmath}

N_CHAINS = 4
PREDICT_DRAWS = 4000


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    missing: float
    n_inputs: int           # distinct simulated inputs a run cycles through
    primary: str = "vi"     # fitter whose time and accuracy fit_s and cell_rmse report
    gibbs_iter: int = 0
    gibbs_burn: int = 0
    # Per-input bounds on the posterior-mean cell RMSE, each about 1.5x the
    # worst value the library gave when the benchmark was introduced.
    vi_rmse_bound: float = 0.0
    mcmc_rmse_bound: float = 0.0


@dataclasses.dataclass
class Input:
    csv: Path
    Q: int
    seed: int
    truth: np.ndarray       # I x J true cell means, simulator label order
    g_index: dict
    e_index: dict

    def truth_for(self, dataset) -> np.ndarray:
        """True cell means in the row/column order of a loaded dataset."""
        rows = [self.g_index[label] for label in dataset.genotype_labels]
        cols = [self.e_index[label] for label in dataset.environment_labels]
        return self.truth[np.ix_(rows, cols)]


def make_inputs(workload: Workload, seed: int, directory: Path) -> list[Input]:
    """Simulate the run's inputs from the workload seed and write them as CSV."""
    directory.mkdir(parents=True, exist_ok=True)
    base = simulate_mod.scenario_by_name(workload.scenario)
    inputs = []
    for k in range(workload.n_inputs):
        sub_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        scenario = dataclasses.replace(base, seed=sub_seed,
                                       missing_fraction=workload.missing)
        dataset, truth = simulate_mod.simulate(scenario)
        path = directory / f"input{k}.csv"
        model.write_csv(dataset, path)
        inputs.append(Input(
            csv=path, Q=scenario.Q, seed=sub_seed, truth=model.mean_matrix(truth),
            g_index={label: i for i, label in enumerate(dataset.genotype_labels)},
            e_index={label: j for j, label in enumerate(dataset.environment_labels)}))
    return inputs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cell_rmse(theta, dataset, inp: Input) -> float:
    diff = model.mean_matrix(theta) - inp.truth_for(dataset)
    return float(np.sqrt(np.mean(diff ** 2)))


# --- operations -----------------------------------------------------------
# Each returns (times, outputs). Times cover library calls only; checks run
# afterwards in verify(), outside the timed and traced region.

def _fit_vi(inp: Input, sweep_clock):
    t0 = time.perf_counter()
    dataset = model.load_csv(inp.csv)
    config = model.ModelConfig(Q=inp.Q, hyper=model.default_hyperparams(dataset),
                               seed=inp.seed)
    init = freqfit.frequentist_fit(dataset, inp.Q)
    callback = None
    if sweep_clock is not None:
        def callback(sweep, state):
            sweep_clock.append(time.perf_counter())
    fit = vi.fit(dataset, config, init, callback=callback)
    return dataset, config, fit, time.perf_counter() - t0


def op_vi_predict(workload: Workload, inp: Input, out: Path, sweep_clock=None):
    t0 = time.perf_counter()
    dataset, _, fit, t_fit = _fit_vi(inp, sweep_clock)
    theta_csv = out / "vi_theta.csv"
    model.write_theta_csv(fit.theta, theta_csv)
    t_vi = time.perf_counter() - t0
    summary = analysis.predict(fit, dataset, n_draws=PREDICT_DRAWS)
    heatmaps = analysis.export_heatmap(summary, dataset, out / "heatmap")
    t_op = time.perf_counter() - t0
    times = {"fit_s": t_fit, "op_s": t_op, "vi_fit_s": t_vi, "predict_s": t_op - t_vi}
    return times, {"dataset": dataset, "vi": fit, "vi_theta_csv": theta_csv,
                   "summary": summary, "heatmaps": heatmaps,
                   "predict_rss_mb": peak_rss_mb()}


def op_gibbs(workload: Workload, inp: Input, out: Path, sweep_clock=None):
    t0 = time.perf_counter()
    dataset = model.load_csv(inp.csv)
    config = model.ModelConfig(Q=inp.Q, hyper=model.default_hyperparams(dataset),
                               seed=inp.seed)
    draws = gibbs.gibbs_fit(dataset, config, n_chains=N_CHAINS,
                            n_iter=workload.gibbs_iter, n_burn=workload.gibbs_burn)
    t_fit = time.perf_counter() - t0
    rhat = gibbs.rhat_table(draws)
    summary = gibbs.summarize(draws)
    theta = gibbs.posterior_mean_theta(draws)
    theta_csv = out / "mcmc_theta.csv"
    model.write_theta_csv(theta, theta_csv)
    t_op = time.perf_counter() - t0
    scans = N_CHAINS * workload.gibbs_iter
    times = {"fit_s": t_fit, "op_s": t_op, "gibbs_scans_per_s": scans / t_op}
    return times, {"dataset": dataset, "draws": draws, "rhat": rhat,
                   "mcmc_summary": summary, "mcmc_theta": theta,
                   "mcmc_theta_csv": theta_csv}


def op_compare(workload: Workload, inp: Input, out: Path, sweep_clock=None):
    t0 = time.perf_counter()
    dataset, config, fit, t_fit = _fit_vi(inp, sweep_clock)
    t1 = time.perf_counter()
    draws = gibbs.gibbs_fit(dataset, config, n_chains=N_CHAINS,
                            n_iter=workload.gibbs_iter, n_burn=workload.gibbs_burn)
    t_gibbs = time.perf_counter() - t1
    report = analysis.compare(fit, draws, dataset)
    report_csv = out / "compare.csv"
    report.to_csv(report_csv)
    t_op = time.perf_counter() - t0
    scans = N_CHAINS * workload.gibbs_iter
    times = {"fit_s": t_fit, "op_s": t_op, "vi_fit_s": t_fit,
             "gibbs_scans_per_s": scans / t_gibbs}
    return times, {"dataset": dataset, "vi": fit, "draws": draws,
                   "report_csv": report_csv}


WARMUP_SCENARIO = "bench-small-n100-q2"     # 10 x 10, Q=2


def warm_up(workload: Workload, op, directory: Path) -> None:
    """Run the operation once on a tiny input so lazy set-up is done before timing.

    Same code paths as the timed operations at a fraction of the cost; its
    outputs are not checked (the short chains are not meant to converge).
    """
    tiny = dataclasses.replace(workload, scenario=WARMUP_SCENARIO, n_inputs=1,
                               gibbs_iter=min(workload.gibbs_iter, 20),
                               gibbs_burn=min(workload.gibbs_burn, 5))
    op(tiny, make_inputs(tiny, 0, directory)[0], directory)


WORKLOADS = {
    w.name: (w, op) for w, op in (
        (Workload(
            name="vi-predict-large",
            why="200x100 Q=2, 20% missing (n=16000): O(n) VI sweeps, the dense "
                "fit_additive design and predict's draws x I x J arrays dominate; "
                "no Gibbs",
            scenario="bench-large-n20000-q2", missing=0.2, n_inputs=5,
            vi_rmse_bound=0.4), op_vi_predict),
        (Workload(
            name="gibbs-large",
            why="100x50 Q=2 complete grid (n=5000, the criterion-6 scenario): O(n) "
                "conditionals and the per-draw I x J SVD in post_process dominate; no VI",
            scenario="bench-large-n5000-q2", missing=0.0, n_inputs=2, primary="mcmc",
            gibbs_iter=2400, gibbs_burn=400, mcmc_rmse_bound=0.65), op_gibbs),
        (Workload(
            name="compare-small",
            why="25x12 Q=2, 20% missing: the paper's VI-vs-MCMC comparison, where "
                "per-call Python overhead dominates and VI runs to the sweep cap",
            scenario="recovery-q2", missing=0.2, n_inputs=8,
            gibbs_iter=1000, gibbs_burn=200, vi_rmse_bound=1.2,
            mcmc_rmse_bound=2.0), op_compare),
    )
}


# --- checks ---------------------------------------------------------------

def verify(workload: Workload, inp: Input, outputs: dict) -> dict:
    """Check every output of one operation; return its per-operation facts."""
    dataset = outputs["dataset"]
    I, J = dataset.n_genotypes, dataset.n_environments
    facts: dict = {"rmse": {}}
    fit = outputs.get("vi")
    if fit is not None:
        theta = fit.theta
        checks.check_elbo(fit.elbo_trace)
        checks.check_identifiable(theta.mu, theta.g, theta.e, theta.lam,
                                  theta.gamma, theta.delta)
        facts["vi.sweeps"] = fit.n_iter
        facts["vi.converged"] = float(fit.converged)
        facts["freqfit.design_bytes"] = dataset.n_obs * (I + J - 1) * 8
        rmse = cell_rmse(theta, dataset, inp)
        checks.check_rmse(rmse, workload.vi_rmse_bound, "VI")
        facts["rmse"]["vi"] = rmse
    summary = outputs.get("summary")
    if summary is not None:
        checks.check_quantiles(summary.q05, summary.q50, summary.q95, (I, J))
        rows, cols = dataset.genotype_labels, dataset.environment_labels
        paths = [Path(p) for p in outputs["heatmaps"]]
        if len(paths) != 4:
            raise checks.CheckError(f"export_heatmap wrote {len(paths)} files, expected 4")
        for path, grid in zip(paths, (summary.q05, summary.q50, summary.q95)):
            if not np.allclose(checks.check_heatmap_csv(path, rows, cols), grid,
                               rtol=1e-10, atol=0.0):
                raise checks.CheckError(f"{path} does not match the predicted grid")
        mask = checks.check_heatmap_csv(paths[3], rows, cols)
        if not np.array_equal(mask, summary.observed.astype(float)):
            raise checks.CheckError(f"{paths[3]} does not match the observed cells")
        facts["analysis.predict.cells"] = PREDICT_DRAWS * I * J
        facts["analysis.predict.rss_mb"] = outputs["predict_rss_mb"]
    draws = outputs.get("draws")
    if draws is not None:
        checks.check_identifiable(draws.mu, draws.g, draws.e, draws.lam,
                                  draws.gamma, draws.delta)
        rhat = outputs["rhat"] if "rhat" in outputs else gibbs.rhat_table(draws)
        facts["gibbs.rhat_max"] = checks.check_rhat(rhat)
        Q = draws.n_components
        facts["gibbs.scans"] = draws.n_chains * draws.n_iter
        facts["gibbs.draw_bytes"] = (draws.n_chains * draws.n_iter
                                     * (3 + I + J + Q + I * Q + J * Q) * 8)
        mcmc_theta = outputs.get("mcmc_theta") or gibbs.posterior_mean_theta(draws)
        rmse = cell_rmse(mcmc_theta, dataset, inp)
        checks.check_rmse(rmse, workload.mcmc_rmse_bound, "MCMC")
        facts["rmse"]["mcmc"] = rmse
    for stats in outputs.get("mcmc_summary", {}).values():
        checks.check_quantiles(stats["q05"], stats["q50"], stats["q95"],
                               np.shape(stats["mean"]))
    written = [(outputs["vi_theta_csv"], fit.theta)] if "vi_theta_csv" in outputs else []
    if "mcmc_theta_csv" in outputs:
        written.append((outputs["mcmc_theta_csv"], outputs["mcmc_theta"]))
    for path, theta in written:
        defect = checks.theta_csv_defect(path, theta, model.load_theta_csv)
        if defect:
            facts.setdefault("defects", []).append(defect)
    if "report_csv" in outputs:
        Q = fit.theta.n_components
        checks.check_csv_rows(outputs["report_csv"],
                              ["parameter", "vi_mean", "mcmc_mean", "vi_sd", "mcmc_sd",
                               "abs_gap"], 1 + I + J + Q + 1)
    return facts
