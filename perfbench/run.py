"""Pipeline benchmark for convexkan.

    python3 perfbench/run.py --workload {discover,forward,redeploy} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One process serves one workload as a closed
loop: a single client runs one job at a time through ``convexkan.cli.main``
until ``--seconds`` have passed, then every job's outputs are checked.  BLAS
is pinned to one thread.  The last line of standard output is the result
object; the lines before it name every metric with its unit.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs and reports per-layer metrics from the traced ones.
See perfbench/README.md for the workloads and what each metric should move.
"""
import time

START = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # this process plus two fresh set-up-only processes
E2E_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def import_program():
    """Import convexkan from this checkout's sources, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import convexkan
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import convexkan from {src}: {exc}")
    if Path(convexkan.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: convexkan resolved outside {src}: {convexkan.__file__}")


def calibration_ms() -> float:
    """Fixed small-array kernel, the same kind of work as the program's
    per-element loops; its time tracks host speed between runs."""
    import numpy as np

    F = np.random.default_rng(0).normal(size=(400, 3, 3)) + 2.0 * np.eye(3)
    times = []
    for _ in range(6):
        t = time.perf_counter()
        for f in F:
            np.linalg.inv(f)
            np.einsum("ij,kj->ik", f, f)
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times[1:])  # the first pass warms up


def machine_facts() -> dict:
    import numpy
    import scipy
    import sympy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def setup_workload(name, seed, sizes, work: Path):
    """Fresh work directory plus the workload's inputs; returns
    (workload, seconds since this process started)."""
    from workloads import WORKLOADS

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](work, seed, sizes)
    workload.setup()
    return workload, time.perf_counter() - START


def setup_probe(args) -> float:
    """Time the set-up of ``args.workload`` in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_job(workload, k, tracer=None) -> dict:
    """Run one job's commands in order; stops at the first failing one."""
    from workloads import run_cli
    from spans import NAMES, ROOT as ROOT_SPAN

    rec = {"job": k, "traced": tracer is not None, "times": {}, "stdout": {}, "error": None}
    if tracer is not None:
        tracer.current_job = k
        tracer.install()
    t0 = time.perf_counter()
    try:
        for metric, argv in workload.job():
            t = time.perf_counter()
            idx = tracer.open(NAMES.index(ROOT_SPAN)) if tracer is not None else None
            try:
                code, out, err = run_cli(argv)
            except Exception:  # a crash inside the program fails the job
                code, out, err = -1, "", traceback.format_exc()
            finally:
                if tracer is not None:
                    tracer.close(idx)
            rec["times"][metric] = time.perf_counter() - t
            rec["stdout"][metric] = out
            if code != 0:
                rec["error"] = f"{argv[0]} exited {code}: {err.strip()[-500:]}"
                break
    finally:
        rec["job_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return rec


def run_jobs(workload, seconds, tracer=None, corrupt_first=False) -> list:
    """Closed loop: start jobs until ``seconds`` have passed.  With a tracer,
    even jobs run untraced and odd jobs traced, at least one of each."""
    records = []
    start = time.perf_counter()
    minimum = 2 if (tracer is not None or corrupt_first) else 1
    while len(records) < minimum or (
        not corrupt_first and time.perf_counter() - start < seconds
    ):
        k = len(records)
        rec = run_job(workload, k, tracer if tracer is not None and k % 2 else None)
        if rec["error"] is None:
            if corrupt_first and k == 0:
                workload.corrupt()
            rec["evidence"] = workload.evidence(rec["stdout"])
        records.append(rec)
    return records


def check_jobs(workload, records) -> dict:
    """Check every job; equal evidence is checked once.  Returns the quality
    numbers of the first checked job."""
    verdicts, quality = {}, None
    for rec in records:
        if rec["error"] is not None:
            rec["problems"] = [rec["error"]]
            continue
        key = rec["evidence"]
        if key not in verdicts:
            try:
                verdicts[key] = workload.check(key)
            except Exception:
                verdicts[key] = ([f"check crashed: {traceback.format_exc()[-500:]}"], {})
        rec["problems"], q = verdicts[key]
        quality = q if quality is None else quality
    return quality or {}


def median(values):
    return statistics.median(values) if values else float("nan")


def layer_metrics(tracer, traced, untraced) -> dict:
    """Per-job medians of the traced jobs' layer numbers."""
    from spans import NAMES, SPANS, job_layer_metrics

    spans = tracer.arrays()
    per_job = [job_layer_metrics(spans, r["job"]) for r in traced]
    out = {}

    def put(name, unit, value):
        out[name] = {"value": value, "unit": unit}

    def med(key):
        return median([m[key] for m in per_job])

    for name in NAMES:
        put(f"{name}.calls", "count", med(f"{name}.calls"))
        put(f"{name}.self_s", "s", med(f"{name}.self_s"))
        counter = SPANS.get(name, (None, None))[1]
        if counter is not None:
            unit = "B" if name == "cli.io" else "count"
            put(f"{name}.{'bytes' if unit == 'B' else 'points'}", unit, med(f"{name}.work"))
    epochs = [e for m in per_job for e in m["epoch_ms"]]
    put("training.epoch_ms.p50", "ms", statistics.median(epochs) if epochs else 0.0)
    put("training.epoch_ms.p99", "ms",
        statistics.quantiles(epochs, n=100)[98] if len(epochs) >= 2 else 0.0)

    def ratio(num, den):
        return median([m[num] / m[den] if m[den] else 0.0 for m in per_job])

    put("mechanics.stress_calls_per_assembly", "count",
        ratio("stress_in_assembly", "fem.nodal_forces.calls"))
    put("fem.tangents_per_solve", "count", ratio("fem.tangent_matrix.calls", "fem.solve.calls"))
    traced_s = median([r["job_s"] for r in traced])
    untraced_s = median([r["job_s"] for r in untraced])
    put("trace.job_s", "s", traced_s)
    put("trace.untraced_job_s", "s", untraced_s)
    put("trace.overhead_frac", "ratio", traced_s / untraced_s - 1.0)
    self_sum = median([sum(m[f"{n}.self_s"] for n in NAMES) / r["job_s"]
                       for m, r in zip(per_job, traced)])
    put("trace.self_sum_frac", "ratio", self_sum)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["discover", "forward", "redeploy"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, two jobs, the first one's output corrupted")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    import_program()
    from workloads import FULL, SMOKE

    sizes = SMOKE if args.smoke else FULL
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, own_setup = setup_workload(args.workload, args.seed, sizes, work)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        return measure(args, workload, own_setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, own_setup) -> int:
    from spans import Tracer

    calib = [calibration_ms()]
    setups = [own_setup]
    if not args.trace:
        setups += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    tracer = Tracer() if args.trace else None
    records = run_jobs(workload, args.seconds, tracer, corrupt_first=args.smoke)
    calib.append(calibration_ms())
    quality = check_jobs(workload, records)

    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    if args.trace:
        metrics = layer_metrics(tracer, [r for r in records if r["traced"]],
                                [r for r in records if not r["traced"]])
    else:
        metrics = {
            "job_s": median([r["job_s"] for r in records]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}

    commands = {}  # per-command times of the untraced jobs
    for r in records:
        if not r["traced"]:
            for metric, t in r["times"].items():
                commands.setdefault(metric, []).append(t)
    facts = machine_facts()
    facts["calibration_ms"] = calib
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke, "machine": facts,
        "setup_s_samples": setups,
        "jobs": [{"job": r["job"], "traced": r["traced"], "job_s": r["job_s"],
                  "times": r["times"], "problems": r["problems"]} for r in records],
        "commands_median_s": {m: median(v) for m, v in commands.items()},
        "quality": quality, "metrics": metrics,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1, default=str))
    if tracer is not None:
        tracer.save(stem.with_suffix(".spans.npz"))

    print(f"machine {json.dumps(facts)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs, {failed} failed")
    for metric, values in commands.items():
        print(f"{metric} {median(values):.4f} s (median of {len(values)} commands)")
    print(f"fail_frac {failed / attempted:.4f} ({failed}/{attempted})")
    for r in records:
        for problem in r["problems"]:
            print(f"job {r['job']} failed: {problem}")
    if quality:
        print(f"quality (ungated) {json.dumps(quality, default=float)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
