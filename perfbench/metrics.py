"""Names, units and meaning of every metric the benchmark reports.

END_TO_END and PER_LAYER mirror BENCHMARK.json (the self-tests keep them in
step). Every workload reports every metric, so the end-to-end metrics are
defined per workload by its role: the *primary fitter* is VI on
vi-predict-large and compare-small and Gibbs on gibbs-large.

PER_OPERATION lists further end-to-end figures that apply to some workloads
only. They are printed by name on every untraced run ("n/a" where a
workload does not exercise them) but carry no regression bound.
"""

# name, unit, better, bound, meaning
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "import the package, simulate the inputs and write the input CSVs; "
     "median of several fresh-process set-ups"),
    ("fit_s", "s", "lower", 0.25,
     "median seconds from CSV on disk to the primary fitter's posterior: "
     "load_csv + frequentist_fit + vi.fit, or load_csv + gibbs_fit"),
    ("op_s", "s", "lower", 0.25,
     "median seconds of one closed-loop operation: fit-vi then predict "
     "(vi-predict-large), fit-mcmc (gibbs-large), compare (compare-small)"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "high-water resident set size of the benchmark process"),
    ("cell_rmse", "yield", "lower", 0.25,
     "RMSE over all I x J cells of the primary fitter's posterior-mean cell "
     "means against the simulated truth, pooled over the run's inputs"),
)

# name, unit, workloads it applies to
PER_OPERATION = (
    ("vi_fit_s", "s", ("vi-predict-large", "compare-small")),
    ("predict_s", "s", ("vi-predict-large",)),
    ("gibbs_scans_per_s", "1/s", ("gibbs-large", "compare-small")),
    ("error_rate", "fraction", ("vi-predict-large", "gibbs-large", "compare-small")),
    ("vi_cell_rmse", "yield", ("vi-predict-large", "compare-small")),
    ("mcmc_cell_rmse", "yield", ("gibbs-large", "compare-small")),
)

_FIT = "fit_s, op_s (vi_fit_s)"
_GIBBS = "fit_s, op_s (gibbs_scans_per_s)"

# name, unit, better, the end-to-end metric and workload it should move.
# Timings and counts are per operation, median over the traced operations.
PER_LAYER = (
    ("model.load_csv_s", "s", "lower", f"{_FIT} on vi-predict-large"),
    ("freqfit.fit_additive_s", "s", "lower",
     f"{_FIT} on vi-predict-large; barely compare-small"),
    ("freqfit.fit_interaction_s", "s", "lower",
     f"{_FIT} on vi-predict-large; barely compare-small"),
    ("freqfit.design_bytes", "bytes", "lower",
     f"{_FIT} on vi-predict-large; barely compare-small (n*(I+J-1)*8, computed)"),
    ("vi.sweeps", "count", "lower",
     f"{_FIT} on vi-predict-large and compare-small; a cut shows most on compare-small"),
    ("vi.converged", "fraction", "higher",
     f"{_FIT} on vi-predict-large and compare-small"),
    ("vi.sweep_s", "s", "lower",
     f"{_FIT} on vi-predict-large and compare-small (median callback interval)"),
    ("vi.update_mu_s", "s", "lower",
     f"{_FIT} on vi-predict-large; compare-small only via per-call overhead"),
    ("vi.update_g_s", "s", "lower",
     f"{_FIT} on vi-predict-large; compare-small only via per-call overhead"),
    ("vi.update_e_s", "s", "lower",
     f"{_FIT} on vi-predict-large; compare-small only via per-call overhead"),
    ("vi.update_lambda_s", "s", "lower",
     f"{_FIT} on vi-predict-large; compare-small only via per-call overhead"),
    ("vi.update_gamma_s", "s", "lower",
     f"{_FIT} on vi-predict-large; compare-small only via per-call overhead"),
    ("vi.update_delta_s", "s", "lower",
     f"{_FIT} on vi-predict-large; compare-small only via per-call overhead"),
    ("vi.update_tau_s", "s", "lower",
     f"{_FIT} on vi-predict-large; compare-small only via per-call overhead"),
    ("vi.elbo_s", "s", "lower",
     f"{_FIT} on vi-predict-large; compare-small only via per-call overhead"),
    ("vi.post_process_s", "s", "lower",
     f"{_FIT} on vi-predict-large; compare-small only via per-call overhead"),
    ("statsmath.trunc_normal_moments.calls", "count", "lower",
     f"{_FIT} on compare-small"),
    ("statsmath.sample_trunc_normal_s", "s", "lower",
     "op_s (gibbs_scans_per_s) on compare-small"),
    ("statsmath.sample_trunc_normal.calls", "count", "lower",
     "op_s (gibbs_scans_per_s) on compare-small"),
    ("gibbs.scans", "count", "lower",
     f"{_GIBBS} on gibbs-large; compare-small only via overhead"),
    ("gibbs.scan_s", "s", "lower",
     f"{_GIBBS} on gibbs-large; compare-small only via overhead"),
    ("gibbs.post_process_s", "s", "lower",
     f"{_GIBBS} on gibbs-large; compare-small only via overhead"),
    ("gibbs.post_process.calls", "count", "lower",
     f"{_GIBBS} on gibbs-large; compare-small only via overhead"),
    ("gibbs.self_s", "s", "lower",
     f"{_GIBBS} on gibbs-large; compare-small only via overhead"),
    ("gibbs.draw_bytes", "bytes", "lower",
     "peak_rss_mb on gibbs-large (chains*iters*(3+I+J+Q+IQ+JQ)*8, computed)"),
    ("gibbs.rhat_table_s", "s", "lower", "op_s (gibbs_scans_per_s) on gibbs-large"),
    ("gibbs.summarize_s", "s", "lower", "op_s (gibbs_scans_per_s) on gibbs-large"),
    ("gibbs.rhat_max", "ratio", "lower",
     "correctness checks (must stay <= 1.1) on gibbs-large and compare-small"),
    ("analysis.predict_s", "s", "lower", "op_s (predict_s) on vi-predict-large"),
    ("analysis.predict.cells", "count", "lower",
     "op_s (predict_s) and peak_rss_mb on vi-predict-large (draws*I*J)"),
    ("analysis.predict.rss_mb", "MB", "lower",
     "peak_rss_mb on vi-predict-large (high-water just after predict)"),
    ("analysis.export_heatmap_s", "s", "lower", "op_s (predict_s) on vi-predict-large"),
    ("analysis.compare_s", "s", "lower", "op_s on compare-small, informational"),
    ("trace.overhead_s", "s", "lower",
     "none: traced minus untraced op_s on the same input, median over pairs"),
)
