"""qhopf benchmark: time to a verdict of real `qhopf` command-line processes.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates its inputs from the seed (`gen.py`), runs `qhopf`
processes one at a time, times each from outside and checks every verdict
against the hand-written known answers in `expected/`.  With `--trace 0`
it generates the inputs and runs the workload's command sequence (a pass)
on them, as often as fits in `--seconds` and at least once, and reports
the end-to-end metrics.  With `--trace 1` it runs one pass in-process
through `qhopf.cli.main`, untraced and then traced (`tracer.py`), and
reports the per-layer metrics.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.

See README.md in this directory for why each workload exists.
"""

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
ENTRY = "import sys; from qhopf.cli import main; sys.exit(main())"
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150

with open(os.path.join(HERE, "expected", "checks.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)
with open(os.path.join(HERE, "expected", "defects.json"), encoding="utf-8") as _fh:
    DEFECTS = json.load(_fh)["defects"]

QT_CHECKS = EXPECTED["verify_levels"]["qt"]
RIBBON_CHECKS = EXPECTED["verify_levels"]["ribbon_extra"]
LEVEL_CHECKS = {"qt": QT_CHECKS, "ribbon": QT_CHECKS + RIBBON_CHECKS}

END_TO_END_UNITS = {"setup_s": "s", "workload_s": "s", "peak_rss_mb": "MB"}

# command kinds; each kind's time is summed per pass
KINDS = ("verify", "reject", "malformed", "corpus", "twist_props",
         "ribbon_find")


class Outcome:
    __slots__ = ("code", "out", "err", "wall", "cpu", "rss_kb")

    def __init__(self, code, out, err, wall, cpu=0.0, rss_kb=0):
        self.code, self.out, self.err = code, out, err
        self.wall, self.cpu, self.rss_kb = wall, cpu, rss_kb


class Command:
    """One `qhopf` invocation and its known answer."""

    def __init__(self, kind, args, **expect):
        self.kind = kind
        self.args = args
        self.expect = expect

    @property
    def key(self):
        """The command with file names in place of paths, the same for the
        inputs of every set-up."""
        return " ".join(os.path.basename(a) for a in self.args)


# ----- running the program --------------------------------------------------

def run_process(args, workdir):
    """Run `qhopf args` as a child process; wall time from a monotonic clock
    outside the child, CPU time and peak RSS from os.wait4."""
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY] + args,
                                stdout=out, stderr=err, env=env, cwd=workdir)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Outcome(proc.returncode, stdout, stderr, wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def run_in_process(args, workdir=None):
    """Run `qhopf args` through qhopf.cli.main in this process, the way the
    interpreter would: an escaping exception prints a traceback, exit 1."""
    from qhopf import cli
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return Outcome(code, out.getvalue(), err.getvalue(),
                   time.perf_counter() - t0)


class Reference:
    """The machine's speed right now, from a fixed child process that does
    not touch qhopf.

    On a shared VM the speed of a fixed piece of work drifts by 15-30% over
    minutes.  A reference process run between the timed commands, on the
    same CPU, tracks that drift: scaling a command by the references just
    before and after it turns its wall time into nominal seconds, the time
    it would take when the reference takes NOMINAL_S."""

    CODE = "s = 0\nfor i in range(300000):\n    s = (s * 31 + i) % 1000003\n"
    # the median reference time on the 2-vCPU VM the benchmark was written
    # on; fixed, so that nominal seconds compare across commits
    NOMINAL_S = 0.1

    def __init__(self):
        self.walls = []
        self.measure()

    def measure(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.CODE], check=True)
        self.walls.append(time.perf_counter() - t0)

    def around(self, fn):
        """fn() and the nominal seconds per wall second while it ran."""
        before = self.walls[-1]
        out = fn()
        self.measure()
        return out, 2 * self.NOMINAL_S / (before + self.walls[-1])


# ----- known answers ----------------------------------------------------

def _report(out):
    try:
        doc = json.loads(out)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def contract_problem(cmd, res):
    """None when the outcome is the known answer, else what differs."""
    e = cmd.expect
    if "Traceback" in res.err:
        return "traceback: %s" % res.err.strip().splitlines()[-1]
    if res.code != e["exit"]:
        return "exit %d, expected %d: %s" % (res.code, e["exit"],
                                            res.err.strip()[:200])
    if e["exit"] == 2 or cmd.kind == "setup":
        return None
    doc = _report(res.out)
    if doc is None:
        return "stdout is not a JSON report"
    if cmd.kind == "reject":
        if not any(c["status"] == "fail" for c in doc.get("checks", ())):
            return "exit 1 without a failing check"
        return None
    if cmd.kind == "ribbon_find":
        n = len(doc.get("candidates", ()))
        if n != e["candidates"]:
            return "%d ribbon candidates, expected %d" % (n, e["candidates"])
        return None
    if "level" in e and doc.get("level") != e["level"]:
        return "level %r, expected %r" % (doc.get("level"), e["level"])
    got = [[c["name"], c["status"]] for c in doc.get("checks", ())]
    want = e["checks"]
    if got != want:
        diff = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                    min(len(got), len(want)))
        return "checks differ from the known answer at #%d: %r vs %r" % (
            diff, got[diff] if diff < len(got) else None,
            want[diff] if diff < len(want) else None)
    return None


def judge(cmd, res):
    """('right', None), ('wrong', defect id) for a known defect, or
    ('failed', reason) for any other deviation from the known answer."""
    problem = contract_problem(cmd, res)
    if problem is None:
        return "right", None
    for d in DEFECTS:
        if (d["applies_to"] == cmd.expect.get("cls") and res.code == d["exit"]
                and d["stderr_contains"] in res.err):
            return "wrong", d["id"]
    return "failed", problem


def normalized(res):
    """The report with its only nondeterministic field blanked."""
    return res.code, re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', res.out)


def passing(names):
    return [[n, "pass"] for n in names]


# ----- workloads ----------------------------------------------------------

class Plan:
    """Inputs written to a directory, and the timed commands over them."""

    def __init__(self, workdir, run):
        self.workdir = workdir
        self.run = run            # runs one qhopf command, returns Outcome
        self.commands = []
        self.setup_outcomes = []  # (Command, Outcome) of generating commands
        self.confirm = []         # ribbon find commands whose candidates get checked

    def path(self, name):
        return os.path.join(self.workdir, name)

    def qhopf(self, args):
        cmd = Command("setup", args, exit=0)
        res = self.run(args, self.workdir)
        self.setup_outcomes.append((cmd, res))
        return res

    def example(self, name, *args):
        self.qhopf(["example"] + list(args) + ["--out", self.path(name)])
        return gen.read(self.path(name))

    def relabelled(self, name, doc, seed):
        doc = gen.relabel(doc, gen.permutation(doc["dim"],
                                               gen.rng_for(seed, "relabel", name)))
        gen.write(self.path(name), doc)
        return doc

    def verify(self, kind, name, **expect):
        self.commands.append(Command(kind, ["verify", self.path(name),
                                            "--format", "json"], **expect))


ACCEPTANCE_EXAMPLES = (
    # name, example arguments, default verify level
    ("kz2.json", ("--kind", "group", "--group", "Z2", "--field", "p:7"), "ribbon"),
    ("h4.json", ("--kind", "sweedler"), "qt"),
    ("dz2.json", ("--kind", "dpr", "--group", "Z2", "--field", "p:7"), "ribbon"),
    ("dz2w.json", ("--kind", "dpr", "--group", "Z2", "--q", "1", "--field", "p:7"), "qt"),
    ("dz3.json", ("--kind", "dpr", "--group", "Z3", "--field", "p:7"), "ribbon"),
    ("dz3w.json", ("--kind", "dpr", "--group", "Z3", "--q", "1", "--field", "p:7"), "qt"),
)


def plan_verdicts(p, seed):
    # per-invocation cost: start-up, load, Algebra set-up, witnesses; and
    # the correctness signal of every exit code
    docs = {}
    for name, args, level in ACCEPTANCE_EXAMPLES:
        docs[name] = p.relabelled(name, p.example(name, *args), seed)
        p.verify("verify", name, exit=0, level=level,
                 checks=passing(LEVEL_CHECKS[level]))
    for base in ("h4.json", "dz3w.json"):
        for layer in gen.LAYERS:
            name = "mutant-%s-%s" % (layer, base)
            gen.write(p.path(name), gen.mutate(
                docs[base], layer, gen.rng_for(seed, "mutant", base, layer)))
            p.verify("reject", name, exit=1, cls="mutant")
    prime = [n for n, _, _ in ACCEPTANCE_EXAMPLES if n != "h4.json"]
    for kind in gen.MALFORMED:
        rng = gen.rng_for(seed, "malformed", kind)
        if kind == "non_string_scalar_q":
            base = "h4.json"
        elif kind == "non_string_scalar":
            base = prime[rng.randrange(len(prime))]
        else:
            base = ACCEPTANCE_EXAMPLES[rng.randrange(len(ACCEPTANCE_EXAMPLES))][0]
        name = "malformed-%s.json" % kind
        with open(p.path(name), "w", encoding="utf-8") as fh:
            fh.write(gen.malformed_text(docs[base], kind, rng))
        p.verify("malformed", name, exit=2, cls=kind)


def plan_sparse_doubles(p, seed):
    # a 4096-unknown sparse Phi^-1 elimination in verify, again in the
    # blockwise ribbon search, which also makes many tiny arity-1 products,
    # and in the identity corpus; q stays fixed because q=2 doubles the
    # search.  Then the small files of plan_verdicts
    z4 = p.example("z4.json", "--kind", "dpr", "--group", "Z4", "--q", "1",
                   "--field", "p:13")
    p.relabelled("z4.json", z4, seed)
    p.verify("verify", "z4.json", exit=0, level="qt", checks=passing(QT_CHECKS))
    cmd = Command("ribbon_find", ["ribbon", "find", p.path("z4.json"),
                                  "--budget", "1000000"],
                  exit=0, candidates=EXPECTED["ribbon_candidates"]["dpr Z4 q=1 p:13"])
    p.commands.append(cmd)
    p.confirm.append((cmd, "z4.json"))
    p.commands.append(Command(
        "corpus", ["check", "corpus", p.path("z4.json"), "--format", "json"],
        exit=0, level="corpus", checks=EXPECTED["corpus_with_R_without_v"]))
    plan_verdicts(p, seed)


# twist seed of the twisted datum; the acceptance suite proves seeds 0..19
DENSE_TWIST_SEED = 0
TWIST_WINDOWS = (
    # datum, example arguments, twist seeds (all proven by the acceptance
    # suite); fixed, because the cost of one twist seed varies 4x on H4
    ("h4.json", ("--kind", "sweedler"), "0..5"),
    ("dz3w.json", ("--kind", "dpr", "--group", "Z3", "--q", "1", "--field", "p:7"), "0..0"),
)


def plan_twisted_dense(p, seed):
    # twisting, derived elements and the Drinfel'd element (H4 is one block
    # over Q, so it takes the generic rational hom_sum and vec_mul path),
    # then verify on a twisted datum: dense arity-3/4 products and the
    # numpy solve path, no sparse elimination
    for name, args, window in TWIST_WINDOWS:
        p.example(name, *args)
        first, last = (int(x) for x in window.split(".."))
        names = ["seed %d: %s" % (s, n) for s in range(first, last + 1)
                 for n in EXPECTED["twist_props_per_seed"]]
        p.commands.append(Command(
            "twist_props", ["check", "twist-props", p.path(name), "--seeds",
                            window, "--format", "json"],
            exit=0, level="twist-props", checks=passing(names)))
    p.qhopf(["twist", p.path("dz3w.json"), "--seed", str(DENSE_TWIST_SEED),
             "--emit", p.path("twisted.json")])
    p.relabelled("twisted.json", gen.read(p.path("twisted.json")), seed)
    p.verify("verify", "twisted.json", exit=0, level="qt",
             checks=passing(QT_CHECKS))


WORKLOADS = {
    "sparse-doubles": plan_sparse_doubles,
    "twisted-dense": plan_twisted_dense,
}


# ----- one run ----------------------------------------------------------

class Tally:
    """Verdict bookkeeping for one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.wrong = {}
        self.verdicts = 0
        self.first = {}

    def check(self, cmd, res, timed=True):
        self.attempted += 1
        verdict, detail = judge(cmd, res)
        if timed:
            self.verdicts += 1
        if verdict == "wrong":
            self.wrong[detail] = self.wrong.get(detail, 0) + 1
        elif verdict == "failed":
            self.failed.append("%s: %s" % (cmd.key, detail))
        if timed:
            seen = self.first.setdefault(cmd.key, normalized(res))
            if seen != normalized(res):
                self.failed.append("%s: report differs between repeats" % cmd.key)

    @property
    def wrong_count(self):
        return sum(self.wrong.values())


def make_plan(workload, seed, workdir, run, tally):
    plan = Plan(workdir, run)
    WORKLOADS[workload](plan, seed)
    for cmd, res in plan.setup_outcomes:
        tally.check(cmd, res, timed=False)
    return plan


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def timed_setup(workload, seed, workdir, tally):
    """Generate the inputs once into `workdir`: (seconds, plan, {file name:
    bytes})."""
    os.makedirs(workdir)
    t0 = time.perf_counter()
    plan = make_plan(workload, seed, workdir, run_process, tally)
    elapsed = time.perf_counter() - t0
    return elapsed, plan, {n: _read_bytes(plan.path(n))
                           for n in sorted(os.listdir(workdir))
                           if n.endswith(".json")}


def run_pass(plan, run, tally, ref=None):
    """Run every command of the plan once.  With a Reference, each command's
    time is scaled to nominal seconds; without one it is its wall time."""
    t0 = time.perf_counter()
    wall = cpu = nominal = 0.0
    rss = 0
    kinds = {}
    for cmd in plan.commands:
        if ref is None:
            res, scale = run(cmd.args, plan.workdir), 1.0
        else:
            res, scale = ref.around(lambda: run(cmd.args, plan.workdir))
        tally.check(cmd, res)
        wall += res.wall
        nominal += res.wall * scale
        cpu += res.cpu
        rss = max(rss, res.rss_kb)
        kinds[cmd.kind] = kinds.get(cmd.kind, 0.0) + res.wall * scale
    return {"wall": wall, "nominal": nominal, "cpu": cpu, "rss_kb": rss,
            "kinds": kinds, "elapsed": time.perf_counter() - t0}


def confirm_candidates(plan, tally):
    """Each ribbon candidate found must pass `qhopf ribbon check` on its own
    datum file; not timed."""
    for cmd, name in plan.confirm:
        found = _report(tally.first.get(cmd.key, (None, ""))[1]) or {}
        doc = gen.read(plan.path(name))
        for i, cand in enumerate(found.get("candidates", ())):
            path = plan.path("candidate%d-%s" % (i, name))
            gen.write(path, dict(doc, v=cand["v"]))
            check = Command("ribbon_check", ["ribbon", "check", path,
                                             "--format", "json"],
                            exit=0, level="ribbon", checks=passing(RIBBON_CHECKS))
            tally.check(check, run_process(check.args, plan.workdir), timed=False)


def spread(values):
    """median, first and third quartile, count."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def machine(seed):
    """The machine a result was measured on."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # from the package metadata: importing numpy here would grow this
    # process, and a child's peak RSS from os.wait4 starts at its parent's
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy_version,
            "loadavg": list(os.getloadavg()), "seed": seed}


def measure(workload, seed, seconds, base, tally):
    """End-to-end metrics: untraced child processes, in nominal seconds
    (see Reference).  This process and its children are pinned to one CPU,
    so that the references and the commands run on the same one.  Every
    pass runs on inputs generated afresh just before it, so set-up is timed
    as often as the pass and spread over the run the same way.  Passes
    repeat while the next set-up and pass should end within `seconds`;
    set-up runs at least SETUP_REPEATS times.  The repeats must write
    byte-identical files."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ref = Reference()
    setups, passes, contents = [], [], []

    def setup():
        (t, plan, files), scale = ref.around(lambda: timed_setup(
            workload, seed, os.path.join(base, "setup%d" % len(setups)), tally))
        setups.append({"wall": t, "nominal": t * scale})
        contents.append(files)
        return plan

    t0 = time.perf_counter()
    while not passes or (time.perf_counter() - t0 + setups[-1]["wall"]
                         + passes[-1]["elapsed"] <= seconds):
        plan = setup()
        passes.append(run_pass(plan, run_process, tally, ref))
    while len(setups) < SETUP_REPEATS:
        setup()
    if any(c != contents[0] for c in contents[1:]):
        tally.failed.append("setup wrote different inputs on a repeat")
    confirm_candidates(plan, tally)
    values = {
        "setup_s": statistics.median(s["nominal"] for s in setups),
        "workload_s": statistics.median(p["nominal"] for p in passes),
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024.0,
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    detail = {"passes": len(passes),
              "setup_s": spread([s["nominal"] for s in setups]),
              "setup_wall_s": spread([s["wall"] for s in setups]),
              "workload_s": spread([p["nominal"] for p in passes]),
              "workload_wall_s": spread([p["wall"] for p in passes]),
              "workload_cpu_s": spread([p["cpu"] for p in passes]),
              "reference_s": spread(ref.walls)}
    for kind in KINDS:
        sums = [p["kinds"][kind] for p in passes if kind in p["kinds"]]
        if sums:
            detail[kind + "_s"] = spread(sums)
    return metrics, detail


def measure_traced(workload, seed, base, tally):
    """Per-layer metrics: one pass in-process untraced, then traced."""
    import tracer
    sys.path.insert(0, SRC)
    startup = []
    bare = Command("bare", [], exit=2)
    for _ in range(STARTUP_REPEATS):
        res = run_process([], base)
        tally.check(bare, res, timed=False)
        startup.append(res.wall)
    workdir = os.path.join(base, "setup")
    os.makedirs(workdir)
    setup_tracer = tracer.Tracer()
    with setup_tracer:
        plan = make_plan(workload, seed, workdir, run_in_process, tally)
    plain = run_pass(plan, run_in_process, tally)
    # each command's spans hang off its own cli.main span
    pass_tracer = tracer.Tracer()
    with pass_tracer:
        traced = run_pass(plan, run_in_process, tally)
    confirm_candidates(plan, tally)

    metrics = layer_report(pass_tracer, setup_tracer, startup, plain, traced,
                           tally)
    return metrics, {"passes": 1, "untraced_pass_s": plain["wall"],
                     "traced_pass_s": traced["wall"]}


def layer_report(pass_tracer, setup_tracer, startup, plain, traced, tally):
    """{name: (value, unit)} of every per-layer metric."""
    m = pass_tracer.layer_metrics()
    built = setup_tracer.layer_metrics()
    for key in ("examples.build.total_s", "examples.dpr_double.verify_stacks"):
        m[key] = built[key]
    m["cli.startup_s"] = statistics.median(startup)
    m["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
    for kind in KINDS:
        m["cli.%s.total_s" % kind] = plain["kinds"].get(kind, 0.0)
    m["cli.verdicts"] = tally.verdicts
    m["cli.wrong_verdicts"] = tally.wrong_count
    return {k: (v, layer_unit(k)) for k, v in m.items()}


def layer_unit(name):
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("ratio") or last in ("out_per_pair", "candidates_per_check"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qhopf", "cli.py")):
        print("perfbench: no qhopf sources under %s; run from the repository "
              "root" % SRC, file=sys.stderr)
        return 2
    host = machine(args.seed)
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    base = tempfile.mkdtemp(prefix=args.workload + "-", dir=os.path.join(HERE, "work"))
    tally = Tally()
    try:
        # the first start compiles the sources; keep it out of every timing
        warm = run_process([], base)
        if warm.code != 2 or "Traceback" in warm.err:
            print("perfbench: qhopf does not start: %s" % warm.err.strip(),
                  file=sys.stderr)
            return 2
        if args.trace:
            metrics, detail = measure_traced(args.workload, args.seed, base, tally)
        else:
            metrics, detail = measure(args.workload, args.seed, args.seconds,
                                      base, tally)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for key, (value, unit) in metrics.items():
        print("%-44s %14.6g %s" % (key, value, unit))
    print("wrong_verdicts %d of %d %s" % (tally.wrong_count, tally.verdicts,
                                         json.dumps(tally.wrong, sort_keys=True)))
    for problem in tally.failed:
        print("FAILED %s" % problem)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "machine": host, "detail": detail,
                      "wrong_verdicts": {"count": tally.wrong_count,
                                         "of": tally.verdicts,
                                         "by_defect": tally.wrong}},
                     sort_keys=True))
    print(json.dumps({"correct": not tally.failed,
                      "attempted": tally.attempted,
                      "failed": len(tally.failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
