"""One run of one workload, in a fresh process started by run.py.

Modes:
  setup    import disentlab and write the generated inputs, then exit; the
           parent starts several of these to take a median set-up time
  measure  set up, then run the workload's CLI chain in a closed loop (one
           client, one chain at a time) for --seconds, untraced, with the
           host-speed sampler of hostspeed.py timing each chain
  trace    one untraced and one traced chain, the threads probe and the
           scaling sweep, for the per-layer metrics

The result is one JSON object on the last line of standard output.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import workloads as w
from hostspeed import SETUP_PIECES, Sampler, host_speed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every per-layer metric a traced run reports. A layer the workload does not
# reach reads 0, as do the threads probe and the sweep points on workloads
# that do not run them.
LAYER_METRICS = (
    "contrastive.train_discriminator.calls",
    "contrastive.train_discriminator.s",
    "lingauss.optimize_generator.calls",
    "lingauss.optimize_generator.s",
    "lingauss.optimize_generator.iterations",
    "linalg.project_contraction.calls",
    "linalg.project_contraction.s",
    "lingauss.accepted_step_ratio",
    "lingauss.bias_decomposition.s",
    "metrics.factorvae_metric.calls",
    "metrics.factorvae_metric.s",
    "metrics.factorvae_metric.self_s",
    "metrics.GeneratorSampler.sample_group.calls",
    "metrics.GeneratorSampler.sample_group.s",
    "metrics.GeneratorSampler.sample_reference.calls",
    "metrics.LinearEncoder.encode.calls",
    "metrics.LinearEncoder.encode.rows",
    "metrics.LinearEncoder.encode.s",
    "selection.model_centrality.s",
    "selection.model_centrality.self_s",
    "selection.subsampled_centrality.s",
    "selection.pairs",
    "selection.premise_rho",
    "selection.premise_selected",
    "selection.udr_pair_scores.s",
    "selection.udr_relevance.calls",
    "selection.udr_relevance.s",
    "metrics.lasso_fit.calls",
    "metrics.lasso_fit.s",
    "metrics.spearman_rho.calls",
    "metrics.spearman_rho.s",
    "selection.udr_select.s",
    "metrics.dci_disentanglement.s",
    "metrics.dhsic.calls",
    "metrics.dhsic.s",
    "metrics.dhsic.peak_alloc_mib",
    "metrics.dhsic.peak_doubles_per_n2",
    "datasets.gen_linear_gaussian_dataset.s",
    "datasets.gen_linear_gaussian_dataset.rows",
    "datasets.gen_circular_dsprites.s",
    "datasets.write_circular_dataset.s",
    "metrics.FactorDataset.save.s",
    "metrics.FactorDataset.save.bytes",
    "metrics.FactorDataset.load.s",
    "plots.heatmap_svg.s",
    "plots.line_chart_svg.s",
    "plots.write_svg.bytes",
    "cli.verify-theorems.s",
    "cli.select.s",
    "cli.optimize.s",
    "cli.gen-data.s",
    "cli.metrics.s",
    "cli.threads2_speedup",
    "cli.artifacts_identical",
    "cli.artifacts_recorded",
    "trace.overhead_ratio",
    "trace.predicted_share",
    "sweep.centrality.N5.factorvae_metric.calls",
    "sweep.centrality.N5.factorvae_metric.s",
    "sweep.centrality.N10.factorvae_metric.calls",
    "sweep.centrality.N10.factorvae_metric.s",
    "sweep.centrality.N20.factorvae_metric.calls",
    "sweep.centrality.N20.factorvae_metric.s",
    "sweep.udr.N4.n1000.udr_relevance.calls",
    "sweep.udr.N4.n1000.udr_relevance.s",
    "sweep.udr.N4.n2000.udr_relevance.calls",
    "sweep.udr.N4.n2000.udr_relevance.s",
    "sweep.udr.N8.n1000.udr_relevance.calls",
    "sweep.udr.N8.n1000.udr_relevance.s",
    "sweep.udr.N8.n2000.udr_relevance.calls",
    "sweep.udr.N8.n2000.udr_relevance.s",
)

# The layer predicted to take most of each workload's time, checked by the
# traced run as trace.predicted_share.
PREDICTED = {
    "verify": ("contrastive.train_discriminator",),
    "centrality": ("metrics.factorvae_metric",),
    "udr": ("metrics.lasso_fit", "metrics.spearman_rho"),
    "score": ("metrics.dhsic",),
}
THREADS_PROBE = ("verify", "centrality")


def run_chain(cli_main, steps, call=None) -> str | None:
    """Run the CLI steps in order; return what went wrong, or None.

    With call (a tracer's span runner), each invocation is a cli.<subcommand>
    span. The CLI's own output is captured and shown only on failure.
    """
    for step, argv in steps:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if call is None:
                    code = cli_main(argv)
                else:
                    code = call(f"cli.{argv[0]}", cli_main, argv)
        except Exception as exc:  # a raising invocation is a failed one, not a crash
            return f"{step} raised {type(exc).__name__}: {exc}"
        if code != 0:
            return f"{step} exited {code}: {err.getvalue().strip()[-400:]}"
    return None


class Runner:
    """A workload at one seed: inputs, chains and their output checks."""

    def __init__(self, cli_main, workload: str, seed: int, work: Path):
        self.cli_main = cli_main
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.first_artifacts = None
        self.artifacts_identical = 0
        self.artifacts_recorded = 0
        self.premise = None
        self._chains = 0
        seeds = json.loads((HERE / "golden.json").read_text())["seeds"]
        self.golden = seeds.get(str(seed), {}).get(workload)
        # The artifacts recorded for this workload on any seed are its
        # deterministic outputs; only these must repeat within a run and
        # across thread counts, so a timings file does not fail a chain.
        self.stable = {name for record in seeds.values() if workload in record
                       for name in record[workload]["artifacts"]}

    def chain(self, threads: int = 1, call=None, sampler: Sampler | None = None,
              **size) -> dict:
        """Run one chain; return its wall and CPU seconds and its problems.

        With sampler, the times are net of its pieces and also given at the
        reference host speed (Sampler.timed).
        """
        out = self.work / f"chain{self._chains}"
        self._chains += 1
        out.mkdir(parents=True)
        steps = w.chain(self.workload, self.inputs, out, self.seed, threads, **size)
        if sampler is None:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            problem = run_chain(self.cli_main, steps, call)
            times = {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0}
        else:
            problem, times = sampler.timed(run_chain, self.cli_main, steps, call)
        problems = [problem] if problem else self._check(out, size)
        shutil.rmtree(out)
        return {**times, "problems": problems}

    def _check(self, out: Path, size: dict) -> list[str]:
        try:
            got = w.values(self.workload, out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return [f"unreadable outputs: {type(exc).__name__}: {exc}"]
        if size:
            return w.check(self.workload, got, None)
        problems = w.check(self.workload, got, (self.golden or {}).get("values"))
        found = {k: v for k, v in w.artifacts(out).items() if k in self.stable}
        if self.first_artifacts is None:
            self.first_artifacts = found
            if self.workload == "centrality":
                self.premise = w.premise(got)
            recorded = self.golden["artifacts"] if self.golden else {}
            self.artifacts_recorded = len(recorded)
            self.artifacts_identical = sum(found.get(k) == v for k, v in recorded.items())
        elif found != self.first_artifacts:
            problems.append("artifacts differ from the first chain of this run")
        return problems


def measure(runner: Runner, seconds: float) -> dict:
    """Run chains one after another for about `seconds`.

    Another chain starts only while at least half of it, at the mean chain
    time so far, fits in the time left, so a run overruns by less than half
    a chain on average.
    """
    chains = []
    sampler = Sampler()
    start = time.monotonic()
    while True:
        chains.append(runner.chain(sampler=sampler))
        mean = sum(c["wall_s"] for c in chains) / len(chains)
        if time.monotonic() - start + 0.5 * mean > seconds:
            return {"chains": chains}


def trace(runner: Runner, out_file: Path) -> dict:
    """Untraced chain, traced chain, scaling sweep and threads probe."""
    workload = runner.workload
    chains = [runner.chain()]
    untraced = chains[0]["wall_s"]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.invocation = 1
        chains.append(runner.chain(call=tracer.call))
        traced = chains[-1]["wall_s"]
        layer = tracer.summary(1)
        sweep = {}
        if workload == "centrality":
            points = [((n,), {"pool_size": n}) for n in w.CENTRALITY_SWEEP]
        elif workload == "udr":
            points = [((n, s), {"pool_size": n, "samples": s}) for n, s in w.UDR_SWEEP]
        else:
            points = []
        for point, size in points:
            if point in ((len(w.NOISE_LEVELS),), (w.UDR_MODELS, w.UDR_SAMPLES)):
                sweep[point] = layer
                continue
            tracer.invocation += 1
            chains.append(runner.chain(call=tracer.call, **size))
            sweep[point] = tracer.summary(tracer.invocation)
    finally:
        tracer.uninstall()

    metrics = {name: 0.0 for name in LAYER_METRICS}
    metrics.update({k: v for k, v in layer.items() if k in metrics})
    opt_calls = layer["lingauss.optimize_generator.calls"]
    candidates = tracer.count_children(
        1, "linalg.project_contraction", "lingauss.optimize_generator") - opt_calls
    if candidates > 0:
        metrics["lingauss.accepted_step_ratio"] = (
            layer["lingauss.optimize_generator.iterations"] / candidates)
    metrics["selection.pairs"] = tracer.count_children(
        1, "metrics.factorvae_metric", "selection.model_centrality")
    rows = layer["metrics.dhsic.rows"]
    if rows:
        metrics["metrics.dhsic.peak_doubles_per_n2"] = (
            layer["metrics.dhsic.peak_alloc_mib"] * 1024.0 * 1024.0 / 8.0 / rows**2)
    for point, summary in sweep.items():
        if workload == "centrality":
            prefix, layer_name = f"sweep.centrality.N{point[0]}", "metrics.factorvae_metric"
        else:
            prefix, layer_name = f"sweep.udr.N{point[0]}.n{point[1]}", "selection.udr_relevance"
        short = layer_name.split(".", 1)[1]
        metrics[f"{prefix}.{short}.calls"] = summary[f"{layer_name}.calls"]
        metrics[f"{prefix}.{short}.s"] = summary[f"{layer_name}.s"]
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["trace.predicted_share"] = (
        sum(layer[f"{name}.s"] for name in PREDICTED[workload]) / traced)
    if runner.premise is not None:
        metrics["selection.premise_rho"] = runner.premise["rho"]
        metrics["selection.premise_selected"] = runner.premise["selected"]
    metrics["cli.artifacts_identical"] = runner.artifacts_identical
    metrics["cli.artifacts_recorded"] = runner.artifacts_recorded

    if workload in THREADS_PROBE:
        # The untraced chain ran at --threads 1; the runner's check fails
        # this chain if its artifacts differ from that one's.
        chains.append(runner.chain(threads=2))
        metrics["cli.threads2_speedup"] = untraced / chains[-1]["wall_s"]

    tracer.write(out_file)
    return {"chains": chains, "metrics": metrics, "predicted": list(PREDICTED[workload])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True, help="scratch directory for this run")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--trace-file", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from disentlab.cli import main as cli_main

    work = Path(args.work)
    digests = w.build_inputs(work / "inputs", args.seed, args.workload,
                             sweep=args.mode == "trace")
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "ref_setup_s": setup_s * host_speed(SETUP_PIECES)}
    if args.mode != "setup":
        runner = Runner(cli_main, args.workload, args.seed, work)
        if args.mode == "measure":
            result.update(measure(runner, args.seconds))
        else:
            result.update(trace(runner, Path(args.trace_file)))
        result["inputs"] = digests
        result["premise"] = runner.premise
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["items"] = w.items_per_chain(args.workload)
    result["item_unit"] = w.ITEM_UNITS[args.workload]
    result["numpy"] = np.__version__
    result["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
