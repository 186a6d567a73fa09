"""Time a fresh process's package import plus its first (warm-up) call.

Usage: python perfbench/setup_probe.py WORKLOAD INPUTS.marshal

INPUTS holds one or more inputs, written one after another with
``marshal`` and read back one at a time, so that no module the package
itself imports (json, logging, numpy...) is loaded early and left out of
the measured import. The first input is the timed warm-up. Any further
inputs then run untimed, so that the process's peak memory covers them
while it holds only the package and one input. Prints the seconds taken
and the peak resident set in KiB.

The peak is Linux's VmHWM, the high-water mark of this process's own
memory. ``ru_maxrss`` would not do: a spawned child's count starts from
its parent's resident set.
"""

import marshal
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def call(workload: str, item: dict) -> None:
    if workload == "detect_frames":
        from occlusion_meter import classifier, ingest

        try:
            frame = ingest.parse_detections(item["doc"], permissive=item["permissive"])
            ingest.write_reports(classifier.classify_frame(frame), item["format"])
        except Exception:  # a must-reject document may raise; the call still counts
            pass
    elif workload in ("oracle_sparse", "oracle_crowded"):
        from occlusion_meter import synthetic

        synthetic.estimator_error(synthetic.generate_scene(item["scene_seed"], item["k"], item["target"]))
    elif workload == "cli_cold":
        import io

        from occlusion_meter import cli

        stdout, stderr = sys.stdout, sys.stderr
        sys.stdout = sys.stderr = io.StringIO()
        try:
            cli.main(list(item["argv"]))
        finally:
            sys.stdout, sys.stderr = stdout, stderr
    else:
        raise SystemExit(f"unknown workload {workload}")


def main() -> None:
    workload, path = sys.argv[1], sys.argv[2]
    with open(path, "rb") as handle:
        item = marshal.load(handle)
        start = time.perf_counter()
        call(workload, item)
        elapsed = time.perf_counter() - start
        while True:
            try:
                item = marshal.load(handle)
            except EOFError:
                break
            call(workload, item)
    print(elapsed, peak_rss_kb())


if __name__ == "__main__":
    main()
