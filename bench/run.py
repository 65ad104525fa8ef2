"""advlab benchmark: one workload per run, through the program's CLI.

    python3 bench/run.py --workload train|sweep|evaluate --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-benchmark-json

Run it from the repository root. A run prepares its inputs from ``--seed``,
times set-up in fresh processes, then repeats whole rounds of the workload's
commands, checking every output, until ``--seconds`` have passed. It prints
each metric by name with its unit, then one JSON line: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a traced run. The run
record (environment, per-round timings, artifact digests, failures) goes to
``.bench_out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller says otherwise: on a 2-core machine a
# second busy process makes multi-threaded OpenBLAS 10-50x slower. This must
# be set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9

BENCHMARK = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 20,
    "workloads": [
        {"name": "train", "why": "advlab train for at, edac and edac_reg, 3 epochs crossing both "
                                 "lr decays: attack, autodiff, netcore, objective and train do "
                                 "the work, in a different ratio per update rule"},
        {"name": "sweep", "why": "advlab sweep over the 21-point eta grid from an early at "
                                 "checkpoint: independent rows, the Polyak cap binds from "
                                 "eta 0.9 up, so reuse across rows shows here only"},
        {"name": "evaluate", "why": "advlab eval with the bundled attacks and advlab heatmap on "
                                    "both splits of three checkpoints: diagnostics and attack "
                                    "alone, no training"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    # "per_layer" comes from tracing.PER_LAYER
}
# per-command times a round reports beside wall_s, by workload
COMMAND_METRICS = {
    "train": {f"train_s.{m}": f"train.{m}" for m in ("at", "edac", "edac_reg")},
    "sweep": {"sweep_s": "sweep"},
    "evaluate": {"eval_s": "eval", "heatmap_s": "heatmap"},
}


def environment() -> dict:
    """The build, thread count and load this run ran with."""
    import numpy as np

    env = {"loadavg_at_start": os.getloadavg(), "nproc": os.cpu_count(),
           "affinity_cpus": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                env["blas_threads"] = getter()
                break
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False) if (ROOT / ".git").exists() else None
    env["commit"] = git.stdout.strip() if git and git.returncode == 0 else None
    h = hashlib.sha256()
    sources = sorted((ROOT / "src" / "advlab").glob("*.py"))
    sources += sorted((ROOT / "configs").glob("*.ini"))
    for p in sources:
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    env["source_sha256"] = h.hexdigest()
    return env


def time_setup(config, ckpt, probe) -> tuple:
    """Median of SETUP_REPEATS fresh-process set-ups at the reference speed,
    and every probe's phases as measured."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(config)]
    if ckpt is not None:
        argv.append(str(ckpt))
    probes = []
    for _ in range(SETUP_REPEATS):
        before = statistics.median(probe.kernel() for _ in range(3))
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120,
                              check=False)
        after = statistics.median(probe.kernel() for _ in range(3))
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr[-2000:]}")
        phases = json.loads(done.stdout.strip().splitlines()[-1])
        phases["at_reference_s"] = probe.at_reference(phases["total_s"], (before + after) / 2)
        probes.append(phases)
    return statistics.median(p["at_reference_s"] for p in probes), probes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args()

    for needed in ("src/advlab/cli.py", *(f"configs/benchmark_{m}.ini"
                                          for m in ("at", "edac", "edac_reg"))):
        if not (ROOT / needed).is_file():
            print(f"bench: {needed} is missing: run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]

    if args.write_benchmark_json:
        from tracing import PER_LAYER

        per_layer = [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER.items()]
        manifest = dict(BENCHMARK, per_layer=per_layer)
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                             encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    env = environment()
    import workloads

    OUT.mkdir(exist_ok=True)
    # the same path on every run: eval.json records the checkpoint path
    work = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        record = run_workload(args, work, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = env
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for metric, m in record["metrics"].items():
        print(f"{metric:40s} {m['value']:.6g} {m['unit']}")
    for metric, value in record["command_s"].items():
        print(f"{metric:40s} {value:.6g} s")
    for line in record["failures"][:20]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


def run_workload(args, work: Path, workloads) -> dict:
    from speed import K_REF_S, SpeedProbe

    run = workloads.Run(ROOT, work, args.seed)
    wl = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    rounds = []
    digests, digest_changes = None, 0
    with SpeedProbe() as probe:
        run.probe = probe
        t_prep = time.perf_counter()
        setup_config, setup_ckpt = wl.prepare(run)
        prep_s = time.perf_counter() - t_prep
        setup_s, probes = time_setup(setup_config, setup_ckpt, probe)
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            run.round_times.clear()
            run.round_raw.clear()
            if traced:
                tracer.new_round()
                tracer.install()
                run.tracer = tracer
            try:
                wl.round(run)
            finally:
                if traced:
                    tracer.uninstall()
                    run.tracer = None
            rounds.append({"traced": traced, "command_s_at_reference_speed": dict(run.round_times),
                           "command_s": dict(run.round_raw)})
            now = workloads.run_dir_digests(wl.out_dirs)
            if digests is None:
                digests = now
            digest_changes += now != digests
            if time.perf_counter() - start >= args.seconds and (tracer is None or len(rounds) >= 2):
                break

    def median_round(traced=False, key="command_s_at_reference_speed", label=None):
        return statistics.median(sum(r[key].values()) if label is None else r[key][label]
                                 for r in rounds if r["traced"] == traced)

    command_s = {metric: median_round(label=label)
                 for metric, label in COMMAND_METRICS[args.workload].items()}
    command_s["wall_s.as_measured"] = median_round(key="command_s")
    if tracer is not None:
        overhead = 100.0 * (median_round(traced=True) / median_round() - 1.0)
        traced_rounds = sum(r["traced"] for r in rounds)
        metrics = tracing.per_layer_metrics(tracer, traced_rounds, overhead)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": median_round(), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": run.checks_failed == 0,
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
        "metrics": metrics, "command_s": command_s, "prep_s": prep_s,
        "setup_probes": probes,
        "speed_probe": {"ticks": len(probe.kernel_s), "skipped": probe.skipped,
                        "median_kernel_s": statistics.median(probe.kernel_s),
                        "reference_kernel_s": K_REF_S},
        "rounds": rounds, "artifact_sha256": digests, "rounds_with_other_digests": digest_changes,
    }


if __name__ == "__main__":
    sys.exit(main())
