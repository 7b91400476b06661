"""The proofbench benchmark: one seeded workload, closed loop, single process.

Usage (from the repository root)::

    python3 bench/run.py --workload chain-audit --seed 1 --seconds 10 --trace 0

Every output is checked against answers the benchmark computes itself.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
and the spans are written under ``.bench_out/``.  See ``bench/README.md`` for
what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path
from time import perf_counter, perf_counter_ns

import speed
from speed import REF_S, SPEED

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("chain-audit", "nested-prove", "oracles")
#: an item's latency is the median of at least this many timed runs of it
MIN_PASSES = 3
#: fresh processes timed per run: the medians are setup_s and cold_cli_s
SETUP_PROBES = 3
CLI_RUNS = 5
CHILD_TIMEOUT_S = 60


def _load_program() -> None:
    """Put the checkout's own sources first on the path, or stop."""
    if not (SRC / "proofbench" / "__init__.py").is_file():
        raise SystemExit(f"bench: no proofbench sources under {SRC}")
    sys.path.insert(0, str(SRC))


def measure(workload, tracer, seconds: float, min_passes: int, between=None) -> list:
    """Whole timed passes until ``seconds`` of passes and ``min_passes`` are done.

    ``between`` runs after each pass, outside the pass clock.
    """
    passes = []
    busy = 0.0
    while busy < seconds or len(passes) < min_passes:
        start = perf_counter()
        result = workload.run_pass(tracer)
        busy += perf_counter() - start
        if not tracer.active:
            result.certificates = []
        passes.append(result)
        if between is not None:
            between()
    return passes


def run_child(cmd: list[str]) -> tuple[int, float]:
    """Exit code and wall seconds of a fresh process run from the checkout root.

    ``wait()`` without a timeout blocks in ``waitpid``, so the time is not
    rounded up to a polling interval; a timer kills a child that hangs.
    """
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
    return code, perf_counter() - t0


class SideRuns:
    """Set-up probes and cold CLI runs, spread between the timed passes.

    A probe is a fresh ``run.py --setup-only`` process that imports
    proofbench, generates the inputs and exits.  A CLI run is
    ``python -m proofbench audit lemma-4.4``, whose report is checked.
    Spreading them over the run keeps one burst of load on a shared machine
    from setting all of them.

    A fresh process may run on another CPU than this one, so the reference
    samples of this process do not give its speed.  Each probe and CLI run is
    instead scaled by the reference process (``python3 speed.py``) run just
    before and just after it, so the times are at the reference speed.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, expected, problems) -> None:
        self.probe = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                      "--workload", workload, "--seed", str(seed)]
        self.reference = [sys.executable, str(Path(speed.__file__).resolve())]
        self.workdir = workdir
        self.expected = expected
        self.problems = problems
        self.setup: list[float] = []
        self.cli: list[float] = []
        self.last_reference: float | None = None

    def step(self) -> None:
        self.last_reference = None  # a pass ran since the last one
        if len(self.setup) < SETUP_PROBES:
            code, seconds = self._scaled(self.probe)
            self.setup.append(seconds)
            if code != 0:
                self.problems.append(f"set-up process exited {code}")
        if len(self.cli) < CLI_RUNS:
            self.cli.append(self._cli(len(self.cli)))

    def finish(self) -> None:
        while len(self.setup) < SETUP_PROBES or len(self.cli) < CLI_RUNS:
            self.step()

    def _reference(self) -> float:
        code, seconds = run_child(self.reference)
        if code != 0:
            self.problems.append(f"reference process exited {code}")
        self.last_reference = seconds
        return seconds

    def _scaled(self, cmd: list[str]) -> tuple[int, float]:
        """Exit code and scaled seconds of a fresh process."""
        before = self.last_reference if self.last_reference is not None else self._reference()
        code, seconds = run_child(cmd)
        after = self._reference()
        return code, seconds * 2.0 * speed.PROCESS_REF_S / (before + after)

    def _cli(self, i: int) -> float:
        report = self.workdir / f"cli-{i}"
        code, seconds = self._scaled([sys.executable, "-m", "proofbench", "audit", "lemma-4.4",
                                      "--deterministic", "--report", str(report)])
        if code != 0:
            self.problems.append(f"cold CLI run exited {code}")
            return seconds
        got = {}
        for line in (report / "report.tsv").read_text(encoding="utf-8").splitlines():
            cid, status, *_ = line.split("\t")
            got[cid] = status
        if got != self.expected:
            self.problems.append("cold CLI report differs from the expected lemma-4.4 verdicts")
        return seconds


def percentile_ms(latencies: list[float], q: int) -> float:
    return statistics.quantiles(latencies, n=100)[q - 1] * 1000.0


def _rebuild(node, memo: dict[int, object]):
    """A copy of a term or formula that shares no node with the original."""
    if isinstance(node, tuple):
        return tuple(_rebuild(x, memo) for x in node)
    if not hasattr(node, "__dataclass_fields__"):
        return node
    got = memo.get(id(node))
    if got is None:
        got = type(node)(*(_rebuild(getattr(node, f.name), memo) for f in fields(node)))
        memo[id(node)] = got
    return got


def hash_and_eq_seconds(certificates) -> tuple[float, float]:
    """Fresh ``hash()`` of, and ``==`` against a rebuilt copy of, each distinct formula."""
    distinct = {}
    for proof in certificates:
        for _, f in proof.hypotheses:
            distinct[f] = None
        for step in proof.steps:
            distinct[step.formula] = None
    originals = list(distinct)
    memo: dict[int, object] = {}
    copies = [_rebuild(f, memo) for f in originals]
    t0 = perf_counter_ns()
    for c in copies:
        hash(c)
    t1 = perf_counter_ns()
    for c, f in zip(copies, originals):
        if not c == f:
            raise AssertionError("rebuilt formula differs from its original")
    t2 = perf_counter_ns()
    return (t1 - t0) / 1e9, (t2 - t1) / 1e9


def per_item(passes, attr: str = "latencies", scale=SPEED.scaled) -> list[float]:
    """Each item's (or report's) median seconds over the timed passes."""
    return [statistics.median(map(scale, ts)) for ts in zip(*(getattr(p, attr) for p in passes))]


def summarize(passes) -> dict:
    """End-to-end figures from each item's median scaled time.

    Scaled times (see ``speed.py``) take out the machine's changes of speed;
    the median over passes takes out the noise left in a single scaled
    time.  Quantiles are over the items of one pass, of which there are at
    least 100.
    """
    latency = per_item(passes)
    recheck = per_item(passes, "rechecks")
    io = per_item(passes, "writes") + recheck
    return {
        "items": len(latency),
        "items_per_s": len(latency) / (sum(latency) + sum(io)),
        "item_p50_ms": statistics.median(latency) * 1000.0,
        "item_p90_ms": percentile_ms(latency, 90),
        "wall_item_p50_ms": statistics.median(per_item(passes, scale=lambda t: t.wall)) * 1000.0,
        "proof_steps": passes[0].proof_steps,
        "recheck_steps_per_s": passes[0].proof_steps / sum(recheck) if recheck else 0.0,
    }


def group_lines(passes) -> list[str]:
    """Per item group (script, chain length, query kind): median latencies and sizes."""
    latency = per_item(passes)
    by_group: dict[str, list[tuple[float, int]]] = {}
    for g, x, size in zip(passes[0].groups, latency, passes[0].sizes):
        by_group.setdefault(g, []).append((x, size))
    lines = []
    for g, rows in sorted(by_group.items()):
        ms = [x * 1000.0 for x, _ in rows]
        line = (f"group {g}: {len(rows)} items, median {statistics.median(ms):.3f} ms,"
                f" total {sum(ms):.3f} ms")
        if any(size for _, size in rows):
            line += f", median certificate {statistics.median(size for _, size in rows)} steps"
        lines.append(line)
    return lines


def per_layer(tracer, traced, untraced, items_per_pass: int) -> dict[str, tuple[float, str]]:
    n = len(traced)
    tot = tracer.totals()
    c = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0, 0))[0] / n

    def secs(name):
        return tot.get(name, (0, 0, 0))[1] / 1e9 / n

    def self_secs(name):
        return tot.get(name, (0, 0, 0))[2] / 1e9 / n

    def per_pass(key):
        return c[key] / n

    def ratio(a, b):
        return a / b if b else 0.0

    hash_s = eq_s = 0.0
    for p in traced:
        h, e = hash_and_eq_seconds(p.certificates)
        hash_s += h / n
        eq_s += e / n
    plain, with_trace = summarize(untraced), summarize(traced)
    m = {
        "syntax.hash_s": (hash_s, "s"),
        "syntax.eq_s": (eq_s, "s"),
        "syntax.substitute_calls": (calls("syntax.substitute"), "count"),
        "syntax.substitute_s": (secs("syntax.substitute"), "s"),
        "parser.parse_calls": (calls("parser.parse"), "count"),
        "parser.parse_s": (secs("parser.parse"), "s"),
        "parser.render_calls": (calls("parser.render"), "count"),
        "parser.render_s": (secs("parser.render"), "s"),
        "schemata.match_calls": (calls("schemata.match"), "count"),
        "schemata.match_s": (secs("schemata.match"), "s"),
        "schemata.contains_calls": (calls("schemata.contains"), "count"),
        "schemata.contains_s": (secs("schemata.contains"), "s"),
        "proofs.check_calls": (calls("proofs.check"), "count"),
        "proofs.check_steps": (per_pass("proofs.check_steps"), "count"),
        "proofs.check_s": (secs("proofs.check"), "s"),
        "proofs.check_steps_per_s": (
            ratio(c["proofs.check_steps"], tot.get("proofs.check", (0, 0))[1] / 1e9), "1/s"),
        "proofs.script_parse_s": (secs("proofs.script_parse"), "s"),
        "proofs.script_render_s": (secs("proofs.script_render"), "s"),
        "transforms.calls": (calls("transforms"), "count"),
        "transforms.s": (secs("transforms"), "s"),
        "transforms.in_steps": (per_pass("transforms.in_steps"), "count"),
        "transforms.out_steps": (per_pass("transforms.out_steps"), "count"),
        "transforms.growth": (ratio(c["transforms.out_steps"], c["transforms.in_steps"]), "ratio"),
        "engine.pool_calls": (calls("engine.pool"), "count"),
        "engine.pool_s": (secs("engine.pool"), "s"),
        "engine.pool_size_mean": (ratio(per_pass("engine.pool_size"), calls("engine.pool")), "count"),
        "engine.pools_per_claim": (calls("engine.pool") / items_per_pass, "ratio"),
        "engine.sorted_pool_s": (secs("engine.sorted_pool"), "s"),
        "engine.prove_calls": (calls("engine.prove"), "count"),
        "engine.prove_self_s": (self_secs("engine.prove"), "s"),
        "engine.prove_found_ratio": (ratio(per_pass("engine.prove_found"), calls("engine.prove")), "ratio"),
        "engine.search_steps": (per_pass("engine.search_steps"), "count"),
        "engine.closure_calls": (calls("engine.closure"), "count"),
        "engine.closure_s": (secs("engine.closure"), "s"),
        "engine.closure_steps": (per_pass("engine.closure_steps"), "count"),
        "engine.closure_steps_per_s": (
            ratio(per_pass("engine.closure_steps"), secs("engine.closure")), "1/s"),
        "engine.proof_of_calls": (calls("engine.proof_of"), "count"),
        "engine.proof_of_s": (secs("engine.proof_of"), "s"),
        "engine.proof_of_steps": (per_pass("engine.proof_of_steps"), "count"),
        "semantics.skeleton_calls": (calls("semantics.skeleton"), "count"),
        "semantics.skeleton_s": (secs("semantics.skeleton"), "s"),
        "semantics.skeleton_atoms_max": (tracer.atoms_max, "count"),
        "semantics.eval_arith_calls": (calls("semantics.eval_arith"), "count"),
        "semantics.eval_arith_s": (secs("semantics.eval_arith"), "s"),
        "audit.claim_self_s": (self_secs("audit.claim"), "s"),
        "audit.premises_s": (secs("audit.premises"), "s"),
        "audit.refutation_calls": (calls("audit.refutation"), "count"),
        "audit.refutation_s": (secs("audit.refutation"), "s"),
        "audit.refutation_yield": (ratio(per_pass("audit.refuted"), calls("audit.refutation")), "ratio"),
        "audit.strict_check_s": (secs("audit.strict_check"), "s"),
        "audit.write_s": (secs("audit.write"), "s"),
        "audit.recheck_s": (secs("audit.recheck"), "s"),
        "proof_steps": (plain["proof_steps"], "count"),
        "recheck_steps_per_s": (plain["recheck_steps_per_s"], "1/s"),
        "trace.untraced_items_per_s": (plain["items_per_s"], "1/s"),
        "trace.traced_items_per_s": (with_trace["items_per_s"], "1/s"),
        "trace.overhead": (1.0 - with_trace["items_per_s"] / plain["items_per_s"], "ratio"),
        "trace.pass_s": (sum(p.work_s for p in traced) / n, "s"),
        "trace.spans_per_pass": (len(tracer.spans) / n, "count"),
    }
    return {k: (int(v) if float(v).is_integer() else v, u) for k, (v, u) in m.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="generate the inputs and exit (timed by the parent for setup_s)")
    args = ap.parse_args(argv)

    _load_program()
    from spans import Tracer
    from workloads import WORKLOADS, read_table

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            return 0
        problems = list(getattr(workload, "verify_inputs", list)())
        tracer = Tracer()
        warm = workload.run_pass(tracer)  # fills the schemata caches; not timed
        warm.certificates = []
        metrics: dict[str, tuple[float, str]]
        if args.trace:
            untraced = measure(workload, tracer, args.seconds / 2, 1)
            tracer.install()
            try:
                traced = measure(workload, tracer, args.seconds / 2, 1)
            finally:
                tracer.uninstall()
            passes = [warm, *untraced, *traced]
            metrics = per_layer(tracer, traced, untraced, workload.items)
            tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.tsv")
        else:
            lemma44 = {c: st for sc, c, st in read_table("expected_chain.tsv") if sc == "lemma-4.4"}
            side = SideRuns(args.workload, args.seed, workdir, lemma44, problems)
            side.step()
            timed = measure(workload, tracer, args.seconds, MIN_PASSES, side.step)
            side.finish()
            passes = [warm, *timed]
            s = summarize(timed)
            metrics = {
                "setup_s": (statistics.median(side.setup), "s"),
                "items_per_s": (s["items_per_s"], "1/s"),
                "item_p50_ms": (s["item_p50_ms"], "ms"),
                "item_p90_ms": (s["item_p90_ms"], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "cold_cli_s": (statistics.median(side.cli), "s"),
            }
            print(f"items {s['items']}, each timed {len(timed)} times")
            print(f"reference loop: median {statistics.median(SPEED.samples) * 1000.0:.4f} ms"
                  f" over {len(SPEED.samples)} samples; times are scaled to {REF_S * 1000.0} ms")
            print(f"unscaled item_p50_ms {s['wall_item_p50_ms']} ms")
            print("set-up runs (s):", " ".join(f"{x:.4f}" for x in side.setup))
            print("cold CLI runs (s):", " ".join(f"{x:.4f}" for x in side.cli))
            print(f"proof_steps {s['proof_steps']} count")
            print(f"recheck_steps_per_s {s['recheck_steps_per_s']} 1/s")
            print("\n".join(group_lines(timed)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for p in passes:
        for item, why in list(p.failures.items())[:5]:
            print(f"bench: FAILED {item}: {why}", file=sys.stderr)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(f"error_rate {failed / attempted} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
