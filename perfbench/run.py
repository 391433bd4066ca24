#!/usr/bin/env python3
"""Leave-one-out sweep benchmark for TransferGraph.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/sweep_bench.cc against the library (CMake, into
.bench_build/), turns the workload and seed into a config for the resulting
tg_perfbench binary, runs it, checks its outputs, and prints one JSON line
last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of the timed pass; --trace 1 also
runs the traced pass and reports the per-layer metrics. See
perfbench/README.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "tg_perfbench"
DIGESTS = BUILD / "digests.json"

# One zoo size for every workload: 48 image and 32 text models (the paper's
# catalog has 185 and 163). It keeps every run of every workload within the
# benchmark's time budget; see README.md.
IMAGE_MODELS = 48
TEXT_MODELS = 32

# Workloads. "group" names the workloads whose predictions must be
# bit-identical for the same seed (thread count is not an input).
WORKLOADS = {
    "loo-image-n2v-xgb": dict(mode="loo", modality="image", learner="n2v",
                              predictor="xgb", threads=1,
                              group="loo-image-n2v-xgb"),
    "loo-text-sage-rf": dict(mode="loo", modality="text", learner="sage",
                             predictor="rf", threads=1,
                             group="loo-text-sage-rf"),
    "baselines-cold": dict(mode="baselines", modality="image", learner="n2v",
                           predictor="xgb", threads=1,
                           group="baselines-cold"),
    "loo-image-n2v-xgb-par": dict(mode="loo", modality="image",
                                  learner="n2v", predictor="xgb", threads=2,
                                  group="loo-image-n2v-xgb"),
}

# Setups per run; setup_s is their median. A baselines setup is only the
# zoo constructor (a few milliseconds), so it takes more samples.
SETUP_REPS = {"loo": 3, "baselines": 25}

END_TO_END_UNITS = {
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "targets_ok_frac": "fraction",
}

PER_LAYER_UNITS = {
    "zoo.ctor_s": "s",
    "zoo.similarity_s": "s",
    "transferability.logme_warm_s": "s",
    "zoo.samples_s": "s",
    "transferability.logme_s": "s",
    "transferability.leep_s": "s",
    "transferability.nce_s": "s",
    "transferability.parc_s": "s",
    "transferability.hscore_s": "s",
    "transferability.score_misses": "count",
    "graph_builder.build_s": "s",
    "graph_builder.edges": "count",
    "embedding.walk_s": "s",
    "embedding.skipgram_s": "s",
    "embedding.walk_tokens": "count",
    "gnn.train_s": "s",
    "ml.fit_s": "s",
    "ml.fit_s_max": "s",
    "ml.split_evaluations": "count",
    "feature_table.build_s": "s",
    "feature_table.rows": "count",
    "pipeline.score_s": "s",
    "pipeline.target_s_p50": "s",
    "pipeline.target_s_max": "s",
    "pipeline.target_n": "count",
    "pipeline.unattributed_s": "s",
    "pipeline.coverage": "fraction",
    "pipeline.traced_sweep_s": "s",
    "pipeline.trace_overhead_s": "s",
    "pipeline.mean_pearson": "corr",
    "pipeline.mean_spearman": "corr",
    "pipeline.top5_acc": "fraction",
    "process.sys_s": "s",
    "process.minor_faults": "count",
    "thread_pool.cpu_s": "s",
    "thread_pool.cpu_per_wall": "cpu_s/s",
    "thread_pool.parallel_for_calls": "count",
    "thread_pool.tasks": "count",
}

BENCH_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def derive_seed(seed, stream):
    """SplitMix64 of (seed, stream): independent 63-bit seeds per use."""
    mask = (1 << 64) - 1
    z = (seed * 0x9E3779B97F4A7C15 + stream * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) >> 1


def build():
    """Configures (once per checkout) and incrementally builds tg_perfbench."""
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in \
            cache.read_text(errors="replace"):
        # A build tree configured for another copy of the sources.
        shutil.rmtree(BUILD)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "tg_perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout)
            raise RuntimeError(f"build step failed: {' '.join(step)}")


def source_digest():
    """sha256 over the library and benchmark sources (provenance when the
    checkout is not a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout at run time, or None outside a git work tree
    (the build's own sha is fixed when CMake configures)."""
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
             "--short", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def write_config(path, workload, spec, seed, seconds, trace, models):
    image_models, text_models = models
    lines = {
        "workload": workload,
        "mode": spec["mode"],
        "modality": spec["modality"],
        "learner": spec["learner"],
        "predictor": spec["predictor"],
        "threads": spec["threads"],
        "world_seed": derive_seed(seed, 1),
        "pipeline_seed": derive_seed(seed, 2),
        "image_models": image_models,
        "text_models": text_models,
        "setup_reps": SETUP_REPS[spec["mode"]],
        "seconds": seconds,
        "trace": int(trace),
    }
    path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))


def check_digest(source, group, seed, models, digest):
    """Same sources + group + seed + zoo must give bit-identical predictions
    on every run in this checkout (and across the thread counts of a
    group)."""
    key = f"{source}|{group}|seed={seed}|models={models[0]},{models[1]}"
    known = {}
    if DIGESTS.exists():
        try:
            known = json.loads(DIGESTS.read_text())
        except json.JSONDecodeError:
            known = {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    tmp = DIGESTS.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, DIGESTS)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--models", type=int, nargs=2,
                        metavar=("IMAGE", "TEXT"),
                        default=(IMAGE_MODELS, TEXT_MODELS),
                        help="zoo size override (self-check only)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    spec = WORKLOADS[args.workload]
    models = tuple(args.models)

    start = time.monotonic()
    build()
    log(f"build ready in {time.monotonic() - start:.1f}s")

    config_path = BUILD / f"{args.workload}.{os.getpid()}.cfg"
    write_config(config_path, args.workload, spec, args.seed, args.seconds,
                 args.trace, models)
    env = {k: v for k, v in os.environ.items() if not k.startswith("TG_")}
    env["TG_THREADS"] = str(spec["threads"])
    try:
        result = subprocess.run([str(BINARY), str(config_path)], env=env,
                                stdout=subprocess.PIPE, text=True,
                                timeout=BENCH_TIMEOUT_S)
    finally:
        config_path.unlink(missing_ok=True)
    if result.returncode != 0:
        raise RuntimeError(f"tg_perfbench exited with {result.returncode}")
    report = json.loads(result.stdout.strip().splitlines()[-1])

    errors = list(report["errors"])
    source = source_digest()
    if not check_digest(source, spec["group"], args.seed, models,
                        report["digest"]):
        errors.append("predictions differ from an earlier run of "
                      f"group {spec['group']} with seed {args.seed}")
    if args.trace == 0:
        values = report["end_to_end"]
    else:
        values = dict(report["per_layer"],
                      **{f"pipeline.{k}": v
                         for k, v in report["quality"].items()})
    units = END_TO_END_UNITS if args.trace == 0 else PER_LAYER_UNITS
    missing = sorted(set(units) - set(values))
    if missing:
        errors.append(f"tg_perfbench did not report {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for error in errors:
        log(f"check failed: {error}")

    provenance = dict(report["provenance"], git_sha=git_sha(),
                      source_sha256=source,
                      workload=args.workload, seed=args.seed,
                      trace=args.trace, digest=report["digest"],
                      quality=report["quality"],
                      image_models=models[0], text_models=models[1])
    print(json.dumps({"provenance": provenance, "errors": errors}))
    print(json.dumps({"correct": not errors,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError, IndexError,
            subprocess.TimeoutExpired) as error:
        log(f"failed: {error}")
        sys.exit(1)
