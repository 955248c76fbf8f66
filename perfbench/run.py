"""Benchmark of quditcs: CLI and library calls, timed end to end, checked
against an independent oracle, and split by layer in a separate traced run.

Run from the root of a source checkout (the program is imported from src/):

  python3 perfbench/run.py --workload cli-short --seed 1 --seconds 22 --trace 0
  python3 perfbench/run.py --workload all --seed 1

Workloads (see workloads.py and BENCHMARK.json): cli-short, cli-grids,
cli-volume, lib-sweep. Every workload is a closed loop with one client: one
child process at a time, waited for before the next starts. A pass is the
workload's fixed op list; passes repeat for about --seconds (at least one).
Each op's time is its fastest over the run's untraced passes; wall_s sums
these over the op list, op_p50_s and op_p90_s are taken across them.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics:
each traced pass wraps the public quditcs functions in the child (tracer.py)
and is preceded by an untraced pass, whose wall time it is compared with.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Failed ops are counted, each op of the list once; "correct" is
false when a failure is not one of the documented defects
(checks.known_defect).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Children that only import quditcs; setup_s is their median. The first runs
# before the first pass, the others after the passes that end each further
# fifth of the measured time, so that they sample the whole run and not only
# the seconds before it.
SETUP_CHILDREN = 5
IMPORTTIME_CHILDREN = 3

# Spans whose summed self time is the per-layer metric "<span name>_s".
TIMED_SPANS = (
    "cli.main", "cli.write_json", "special_fn.orthonormal_he_table",
    "qcs.nonlinear_qcs", "qcs.linear_qcs", "qcs.cat_state", "qcs.complementary_state",
    "qcs.parity_coefficients", "fock.fidelity", "fock.mixed_fidelity",
    "fock.photon_distribution", "phase_space.wigner_grid", "phase_space.nonclassical_volume",
    "phase_space.wigner_values", "phase_space.write_csv", "tomography.tomogram_grid",
    "tomography.tomogram_closed_form", "tomography.write_csv",
)
STATE_BUILDERS = ("qcs.nonlinear_qcs", "qcs.linear_qcs", "qcs.cat_state", "qcs.complementary_state")
GRID_DIMS = (2, 8, 32)
# The traced CLI op every traced pass adds, so that cli.* layers are
# measured on every workload.
PROBE_CLI_ARGS = ["state", "--dim", "2", "--amp", "Td/2", "--format", "json"]


def child_env():
    """The user's environment with src/ first on the path. QCS_THREADS is
    unset, as it is for users. OpenBLAS gets one thread unless the user
    chose otherwise: at these matrix sizes a second thread gains nothing
    here but spins on the other core, which makes timings swing with any
    other load on a small machine."""
    env = dict(os.environ)
    env.pop("QCS_THREADS", None)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


ENV = child_env()


def spawn(args, tag):
    """Run python with args to completion; stdout and stderr go to files in
    the work directory. Returns (seconds, exit code, peak RSS in MB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(WORK / f"{tag}.out"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(WORK / f"{tag}.err"), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *map(str, args)], ENV,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def last_line(path):
    lines = Path(path).read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def machine_facts():
    facts = {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
             "numpy": np.__version__}
    try:
        import scipy
        facts["scipy"] = scipy.__version__
    except ImportError:
        facts["scipy"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = None
    threads = ("QCS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    facts["thread_env"] = {var: ENV.get(var) for var in threads}  # as the children see it
    facts["thread_env_inherited"] = {var: os.environ.get(var) for var in threads}
    return facts


class Record:
    """Everything one workload run measures.

    Every op of the list counts once in attempted and failed, however many
    passes ran it: an op fails when any pass failed it. So the counts depend
    on the seed alone, not on how many passes fit in the measured time.
    """

    def __init__(self):
        self.pass_walls = []
        self.pass_times = []  # per untraced pass, each op's wall seconds
        self.rss = 0.0
        self.fails = {}  # op index -> failures of its first failing pass, else []
        self.traced = []  # per-layer metrics of each traced pass

    def verdict(self, k, fails):
        if not self.fails.get(k):
            self.fails[k] = fails

    @property
    def attempted(self):
        return len(self.fails)

    @property
    def failed(self):
        return sum(bool(fails) for fails in self.fails.values())

    @property
    def unexplained(self):
        return sum(bool(fails) and not checks.known_defect(fails) for fails in self.fails.values())

    def failures(self):
        """(known, label, d) -> (failed ops, first detail)."""
        out = {}
        for fails in self.fails.values():
            known = checks.known_defect(fails)
            for label, d, detail in fails:
                n, example = out.get((known, label, d), (0, detail))
                out[(known, label, d)] = (n + 1, example)
        return out


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    inner = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            inner[parent] += t1 - t0
    return [t1 - t0 - inner[i] for i, (_, _, t0, t1, _) in enumerate(spans)]


def merge_spans(into, spans):
    """Append one process's spans, shifting its parent indices."""
    base = len(into)
    into.extend([n, p + base if p >= 0 else -1, t0, t1, info] for n, p, t0, t1, info in spans)


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, from its spans."""
    out = {f"{name}_s": 0.0 for name in TIMED_SPANS}
    out.update({"special_fn.he_roots_cold_s": 0.0, "qcs.states_built": 0,
                "phase_space.wigner_points": 0, "phase_space.volume_calls": 0,
                "tomography.tomogram_points": 0})
    out.update({f"phase_space.wigner_grid_s.d{d}": 0.0 for d in GRID_DIMS})
    for (name, _, _, _, info), own in zip(spans, self_times(spans)):
        if name in TIMED_SPANS:
            out[f"{name}_s"] += own
        if name == "special_fn.he_roots" and info.get("cold"):
            out["special_fn.he_roots_cold_s"] += own
        if name in STATE_BUILDERS:
            out["qcs.states_built"] += 1
        if name == "phase_space.wigner_grid":
            out["phase_space.wigner_points"] += info["nq"] * info["npts"]
            if info.get("d") in GRID_DIMS:
                out[f"phase_space.wigner_grid_s.d{info['d']}"] += own
        if name == "tomography.tomogram_grid":
            out["tomography.tomogram_points"] += info["nq"] * info["ntheta"]
        if name == "phase_space.nonclassical_volume":
            out["phase_space.volume_calls"] += 1
    return out


def import_layers():
    """import.* metrics from `python -X importtime -c 'import quditcs'`."""
    runs = []
    for i in range(IMPORTTIME_CHILDREN):
        _, rc, _ = spawn(["-X", "importtime", "-c", "import quditcs"], f"importtime{i}")
        if rc != 0:
            raise RuntimeError(f"import quditcs failed: {last_line(WORK / f'importtime{i}.err')}")
        runs.append(parse_importtime((WORK / f"importtime{i}.err").read_text()))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(text):
    """Import seconds of quditcs and of the numpy and scipy it pulls in.

    importtime lists children before parents, indented two spaces a level.
    An entry of numpy or scipy counts toward its package when its parent
    belongs to neither, so numpy modules that scipy loads count as scipy.
    """
    entries = [((len(m.group(3)) - 1) // 2, m.group(4), int(m.group(2)) * 1e-6)
               for m in map(_IMPORT_LINE.match, text.splitlines()) if m]
    parent_of, last_at_depth = {}, {}
    for i in range(len(entries) - 1, -1, -1):
        depth, name, _ = entries[i]
        parent_of[i] = last_at_depth.get(depth - 1, "")
        last_at_depth[depth] = name

    def package(name):
        top = name.split(".", 1)[0]
        return top if top in ("numpy", "scipy", "quditcs") else None

    totals = {"numpy": 0.0, "scipy": 0.0, "quditcs": 0.0}
    for i, (_, name, cumulative) in enumerate(entries):
        pkg = package(name)
        if pkg == "quditcs" and name == "quditcs":
            totals[pkg] = cumulative
        elif pkg in ("numpy", "scipy") and package(parent_of[i]) not in ("numpy", "scipy"):
            totals[pkg] += cumulative
    return {"import.total_s": totals["quditcs"], "import.numpy_s": totals["numpy"],
            "import.scipy_s": totals["scipy"],
            "import.quditcs_self_s": totals["quditcs"] - totals["numpy"] - totals["scipy"]}


class TracedPass:
    """Spans of one traced pass, merged over its processes, with the CLI
    spawn time and bytes written."""

    def __init__(self, spans=()):
        self.spans = []
        merge_spans(self.spans, spans)
        self.spawn_s = 0.0
        self.bytes_written = 0

    def add_cli(self, seconds, spans_path, out_path):
        with open(spans_path) as fh:
            spans = json.load(fh)
        main = sum(t1 - t0 for name, _, t0, t1, _ in spans if name == "cli.main")
        self.spawn_s += seconds - main
        self.bytes_written += os.path.getsize(out_path) if os.path.exists(out_path) else 0
        merge_spans(self.spans, spans)

    def add_probe(self, lib):
        """The traced probe: one small CLI call plus each library layer once."""
        out = WORK / "probe.json"
        seconds, _, _ = spawn([HERE / "child.py", "cli", WORK / "probe.spans", *PROBE_CLI_ARGS,
                               "--out", out], "probe")
        self.add_cli(seconds, WORK / "probe.spans", out)
        merge_spans(self.spans, lib.probe())

    def metrics(self):
        out = layer_metrics(self.spans)
        out["cli.spawn_s"] = self.spawn_s
        out["cli.bytes_written"] = self.bytes_written
        return out


class LibChild:
    """The library workload's process: child.py lib, fed one command a line."""

    def __init__(self):
        self.err = open(WORK / "lib.err", "w")
        self.proc = subprocess.Popen([sys.executable, HERE / "child.py", "lib"], cwd=ROOT, env=ENV,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True)

    def call(self, **cmd):
        self.proc.stdin.write(json.dumps({k: str(v) if isinstance(v, Path) else v
                                          for k, v in cmd.items()}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            self.err.flush()
            raise RuntimeError(f"library child exited: {last_line(WORK / 'lib.err')}")
        return json.loads(line)

    def probe(self):
        return self.call(cmd="probe", dir=WORK)["spans"]

    def close(self):
        """Stop the child and return its peak RSS in MB."""
        try:
            self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.err.close()
        return usage.ru_maxrss / 1024.0


class CliWorkload:
    """Ops that each start `python -m quditcs ...` and write one file."""

    def __init__(self, ops):
        self.ops = ops
        self.verdicts = {}
        self.rss = 0.0

    def out(self, k):
        return WORK / f"op{k}.{self.ops[k]['fmt']}"

    def args(self, k):
        op = self.ops[k]
        return [*op["args"], "--out", self.out(k), "--format", op["fmt"]]

    def warm_up(self):
        """Nothing to warm: the set-up children already imported quditcs."""

    def run_pass(self, traced):
        """Returns (wall, op times, verdicts, TracedPass or None)."""
        results = []
        start = time.perf_counter()
        for k in range(len(self.ops)):
            if traced:
                argv = [HERE / "child.py", "cli", WORK / f"op{k}.spans", *self.args(k)]
            else:
                argv = ["-m", "quditcs", *self.args(k)]
            results.append(spawn(argv, f"op{k}"))
        wall = time.perf_counter() - start
        self.rss = max([self.rss] + [rss for _, _, rss in results])
        verdicts = [self.check(k, rc) for k, (_, rc, _) in enumerate(results)]
        traced_pass = None
        if traced:
            traced_pass = TracedPass()
            for k, (seconds, _, _) in enumerate(results):
                traced_pass.add_cli(seconds, WORK / f"op{k}.spans", self.out(k))
        return wall, [seconds for seconds, _, _ in results], verdicts, traced_pass

    def check(self, k, rc):
        op = self.ops[k]
        if rc != 0:
            return [("exit", op.get("d"), f"exit code {rc}: {last_line(WORK / f'op{k}.err')}")]
        key = (k, checks.file_digest(self.out(k)))
        if key not in self.verdicts:
            try:
                self.verdicts[key] = checks.check_cli_output(op, self.out(k))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                self.verdicts[key] = [("output", op.get("d"), f"unreadable: {exc!r}")]
        return self.verdicts[key]

    def close(self):
        return self.rss


class LibWorkload:
    """Library ops in one long-lived child that imported quditcs in set-up."""

    def __init__(self, ops):
        self.ops = ops
        self.child = LibChild()
        self.verdicts = {}
        first = {}
        for i, op in enumerate(ops):
            first.setdefault(op["d"], i)
        # ops whose off-origin Wigner points are also checked in mpmath
        self.mp_ops = set(first.values())
        with open(WORK / "lib_ops.json", "w") as fh:
            json.dump(ops, fh)
        with open(WORK / "lib_warm.json", "w") as fh:
            json.dump([ops[i] for i in sorted(self.mp_ops)], fh)

    def warm_up(self):
        self.child.call(cmd="pass", ops=WORK / "lib_warm.json", out=WORK / "lib_warm.npz", trace=0)

    def run_pass(self, traced):
        reply = self.child.call(cmd="pass", ops=WORK / "lib_ops.json", out=WORK / "lib.npz",
                                trace=int(traced))
        if reply["digest"] not in self.verdicts:
            with np.load(WORK / "lib.npz") as saved:
                arrays = {name: saved[name] for name in saved.files}
            verdicts = checks.check_lib_pass(self.ops, arrays, self.mp_ops)
            for i, msg in reply["errors"].items():
                verdicts[int(i)].append(("exception", self.ops[int(i)]["d"], msg))
            self.verdicts[reply["digest"]] = verdicts
        traced_pass = TracedPass(reply["spans"]) if traced else None
        return reply["wall"], reply["op_times"], self.verdicts[reply["digest"]], traced_pass

    def close(self):
        return self.child.close()


def import_child(tag):
    """One child that imports quditcs and reports where from; returns its
    wall seconds. Children must import the quditcs under src/."""
    seconds, rc, _ = spawn(["-c", "import sys, quditcs; sys.stdout.write(quditcs.__file__)"], tag)
    where = Path(last_line(WORK / f"{tag}.out"))
    if rc != 0 or SRC not in where.resolve().parents:
        raise RuntimeError(f"import quditcs failed or not from {SRC}: "
                           f"{last_line(WORK / f'{tag}.err') or where}")
    return seconds


def p90(values):
    """90th percentile, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workload(name, seed, seconds, trace):
    """Set up, run passes for about `seconds`, tear down; returns the Record
    and the metrics."""
    ops = workloads.build(name, seed)
    rec = Record()
    setup = [import_child("setup0")]
    imports = import_layers() if trace else {}
    runner = LibWorkload(ops) if name == "lib-sweep" else CliWorkload(ops)
    probe_lib = None
    if trace:
        probe_lib = runner.child if name == "lib-sweep" else LibChild()
    try:
        runner.warm_up()
        measured = cycle = 0.0
        # Passes repeat while the next cycle is expected to end no later than
        # half a cycle past `seconds` of measured time; checking outputs and
        # probing layers are not measured.
        while not rec.pass_walls or measured + 0.5 * cycle <= seconds:
            cycle = 0.0
            for traced in ((False, True) if trace else (False,)):
                wall, times, verdicts, traced_pass = runner.run_pass(traced)
                cycle += wall
                for k, fails in enumerate(verdicts):
                    rec.verdict(k, fails)
                if not traced:
                    rec.pass_walls.append(wall)
                    rec.pass_times.append(times)
                    if (len(setup) < SETUP_CHILDREN
                            and measured + cycle >= len(setup) * seconds / SETUP_CHILDREN):
                        setup.append(import_child(f"setup{len(setup)}"))
                    continue
                traced_pass.add_probe(probe_lib)
                layers = traced_pass.metrics()
                layers["trace.wall_s"] = wall
                layers["fock.oracle_mismatches"] = sum(
                    any(label in checks.STATE_ORACLE_LABELS for label, _, _ in fails)
                    for fails in verdicts)
                rec.traced.append(layers)
            measured += cycle
        while len(setup) < SETUP_CHILDREN:
            setup.append(import_child(f"setup{len(setup)}"))
    finally:
        rec.rss = runner.close()
        if probe_lib is not None and probe_lib is not getattr(runner, "child", None):
            probe_lib.close()
    if trace:
        metrics = {key: statistics.median(t[key] for t in rec.traced) for key in rec.traced[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(rec.pass_walls)
        metrics.update(imports)
        counts = {"passes": len(rec.traced)}
    else:
        # Each op's time is its fastest of the passes: other load on the
        # machine only ever adds to a time, and on a small shared machine it
        # comes and goes over seconds, which a median over a few passes
        # does not average out.
        best = [min(times) for times in zip(*rec.pass_times)]
        metrics = {
            "wall_s": sum(best),
            "op_p50_s": statistics.median(best),
            "op_p90_s": p90(best),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rec.rss,
        }
        counts = {"passes": len(rec.pass_walls), "ops": len(best), "setup": len(setup)}
    return rec, metrics, counts


def metric_units(trace):
    """Metric name -> unit, for the end-to-end or per-layer list of
    BENCHMARK.json, which every run reports in full."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(name, seed, seconds, trace, rec, metrics, counts):
    """Human-readable lines for one workload."""
    mode = "traced" if trace else "untraced"
    print(f"== {name}: seed {seed}, {seconds} s, {mode}, {counts['passes']} passes")
    rate = rec.failed / rec.attempted
    print(f"   ops: {rec.attempted} attempted, {rec.failed} failed, error_rate {rate:.4f}"
          f" ({rec.failed}/{rec.attempted}, each op counted once over all passes),"
          f" unexplained {rec.unexplained}")
    for (known, label, d), (n, example) in sorted(rec.failures().items(), key=str):
        kind = "known defect" if known else "UNEXPLAINED"
        print(f"   {kind}: {n} x {label} at d={d}, e.g. {example}")
    units = metric_units(trace)
    fastest = f"each op's fastest of {counts['passes']} passes"
    samples = {"wall_s": f"sum over {counts.get('ops')} ops, {fastest}",
               "op_p50_s": f"n={counts.get('ops')} ops, {fastest}",
               "op_p90_s": f"n={counts.get('ops')} ops, {fastest}",
               "setup_s": f"median of {counts.get('setup')} import-only children over the run",
               "peak_rss_mb": "max ru_maxrss of the children",
               "trace.overhead_s": "traced minus untraced wall_s"}
    for key, value in metrics.items():
        if key.startswith("import."):
            note = f"median of {IMPORTTIME_CHILDREN} -X importtime children"
        elif units[key] in ("count", "bytes"):
            note = "computed count of one traced pass; repeats exactly"
        else:
            note = samples.get(key, f"median of {counts['passes']} traced passes")
        print(f"   {key:38s} {value:14.6g} {units[key]:6s} {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if not (SRC / "quditcs" / "__init__.py").is_file():
            raise FileNotFoundError(f"no quditcs sources under {SRC}")
        print(f"machine: {json.dumps(machine_facts())}")
        results = {}
        for name in names:
            rec, metrics, counts = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, args.seed, args.seconds, args.trace, rec, metrics, counts)
            results[name] = (rec, metrics)
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    units = metric_units(args.trace)
    for name, (_, metrics) in results.items():
        if set(metrics) != set(units):
            print(f"error: {name} measured {sorted(set(metrics) ^ set(units))} "
                  "unlike BENCHMARK.json", file=sys.stderr)
            return 3
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(rec.unexplained == 0 for rec, _ in results.values()),
        "attempted": sum(rec.attempted for rec, _ in results.values()),
        "failed": sum(rec.failed for rec, _ in results.values()),
        "metrics": {(f"{name}.{key}" if prefix else key): {"value": value, "unit": units[key]}
                    for name, (_, metrics) in results.items() for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
