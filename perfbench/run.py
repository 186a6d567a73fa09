"""occlusion-meter benchmark: one seeded command per workload.

Run from the repository root:

  python3 perfbench/run.py --workload detect_frames --seed 1 --seconds 20 --trace 0

Workloads: detect_frames, oracle_sparse, oracle_crowded, cli_cold (see
perfbench/README.md). With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced pass; either way the last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
Lines before it give the same figures for people, with sample counts.

Every workload runs in fresh worker processes (perfbench/worker.py) that
import the package from ./src, so the layers a workload does not use stay
out of its memory and timings. This process never imports the package.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layers
from worker import child_env, run_process

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("detect_frames", "oracle_sparse", "oracle_crowded", "cli_cold")

# cli.interpreter_ms and cli.import_ms are medians of this many processes.
CLI_PROBES = 7
WORKER_TIMEOUT_S = 150

IMPORT_PROBE = (
    "import json, sys, time\n"
    "t = time.perf_counter()\n"
    "import occlusion_meter.cli\n"
    "print(json.dumps([(time.perf_counter() - t) * 1000.0, 'numpy' in sys.modules]))"
)

# Workload-specific names of the plain (all-operation) figures on the # lines.
OP_NAMES = {
    "detect_frames": ("frames_per_s", "frame_{}_ms"),
    "oracle_sparse": ("scenes_per_s", "scene_{}_ms"),
    "oracle_crowded": ("scenes_per_s", "scene_{}_ms"),
    "cli_cold": ("cli_per_s", "cli_{}_ms"),
}


def worker(mode: str, workload: str, seed: int, work: Path, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--work", str(work), *extra]
    # A session of its own, so a timeout also stops the CLI and probe
    # processes the worker started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {mode} {workload} took over {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"worker {mode} {workload} failed with exit code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def probe(*argv: str) -> str:
    """Stdout of a fresh interpreter run with the benchmark's environment."""
    code, stdout = run_process([sys.executable, *argv])
    if code != 0:
        raise SystemExit(f"probe {argv} exited {code}")
    return stdout.decode("utf-8")


def cli_probes() -> dict[str, float]:
    """Bare interpreter start, and the CLI module's import, in fresh processes."""
    bare = []
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        probe("-c", "pass")
        bare.append((time.perf_counter() - start) * 1000.0)
    imports = [json.loads(probe("-c", IMPORT_PROBE)) for _ in range(CLI_PROBES)]
    loaded = {flag for _, flag in imports}
    if len(loaded) != 1:
        raise SystemExit("numpy was loaded by some CLI imports and not by others")
    return {
        "cli.interpreter_ms": statistics.median(bare),
        "cli.import_ms": statistics.median(ms for ms, _ in imports),
        "cli.numpy_loaded": int(loaded.pop()),
    }


def facts() -> str:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return (f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy_version} src_lines={src_lines}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "occlusion_meter" / "__init__.py").is_file() or not (ROOT / "fixtures" / "scenarios").is_dir():
        print(f"error: {ROOT} holds no occlusion-meter checkout (src/occlusion_meter, fixtures/scenarios)", file=sys.stderr)
        return 2
    # The only build step: byte-compile once so no timed import pays for it.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    print(facts())
    try:
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            result = worker("trace", args.workload, args.seed, work, "--trace-out", str(trace_path))
            values = dict(result["metrics"])
            values.update(cli_probes())
            metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER}
            print(f"# traced {result['attempted']} operations, {result['spans']} spans -> {trace_path}")
        else:
            result = worker("run", args.workload, args.seed, work, "--seconds", str(args.seconds))
            metrics = {
                "setup_s": (result["setup_s"], "s"),
                "ops_per_s": (result["ops_per_s"], "1/s"),
                "op_p50_ms": (result["op_p50_ms"], "ms"),
                "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            }
            rate, latency = OP_NAMES[args.workload]
            n, inputs, raw_setups = result["ops"], result["inputs_timed"], result["raw_setup_s"]
            print(f"# times at the reference host speed; median speed factor {result['speed_p50']:.4f} "
                  f"({result['reference_samples']} reference samples)")
            print(f"# setup_s {result['setup_s']:.4f} s (median of {len(raw_setups)} processes; raw: "
                  + " ".join(f"{v:.4f}" for v in raw_setups) + ")")
            print(f"# ops_per_s {result['ops_per_s']:.3f} 1/s, op_p50_ms {result['op_p50_ms']:.4f} ms "
                  f"(median of each input's repeats, {inputs} inputs, {n} operations)")
            print(f"# {rate} {n / result['raw_busy_s']:.3f} 1/s raw (all n={n} operations, busy {result['raw_busy_s']:.2f} s)")
            print(f"# {latency.format('p50')} {result['raw_p50_ms']:.4f} ms raw (n={n})")
            for p, value in sorted(result["raw_tails_ms"].items(), key=lambda kv: int(kv[0])):
                print(f"# {latency.format('p' + p)} {value:.4f} ms raw (n={n})")
            print(f"# peak_rss_mb {result['peak_rss_mb']:.1f} MB")
        print(f"# failed_share {result['failed'] / result['attempted']:.6f} "
              f"({result['failed']} of {result['attempted']} distinct inputs)")
        for problem in result["problems"][:20]:
            print(f"# PROBLEM {problem}")
        emit(not result["problems"], result["attempted"], result["failed"], metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
