"""riordanlbp benchmark: wall time per CLI command, one fresh interpreter each.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  A single driver process runs the
workload's commands closed loop, one client: each command runs in its own
child interpreter, one child at a time, and the next starts when it exits.
Rounds of the whole command list repeat until ``--seconds`` of measured
time (child wall time outside its checks) have passed.  The first run of
each distinct argv is checked against an independent route; later runs
must print the same bytes.

``--trace 0`` prints the end-to-end metrics.  A command's time is its wall
time rescaled to a fixed CPU speed by the probe in speedometer.py, median
over rounds, summed over the argvs of that command; ``wall_s`` is their sum,
``setup_s`` the median over children (rescaled by each child's speed during
its command) and ``peak_rss_mb`` the largest
``ru_maxrss`` any child reports for itself.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics from the traced
ones.  Either way the last stdout line is the JSON result, and the full run
record (every sample with its raw wall time, the seeded draws, stdout
hashes) goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from speedometer import PROBE_REF_S
from tracing import NAMED_SPANS, ROOT_SPAN, SCENARIO_NAMES, SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# no round starts after this many seconds, and no child outlives the limit,
# so a run ends well within 180 s whatever --seconds asks for
START_LIMIT_S = 110
HARD_LIMIT_S = 170

# per-layer metrics: stem -> which of calls / self_s are reported
SPAN_FIELDS = {
    "scalars.poly_mul": ("calls", "self_s"),
    "scalars.ratfunc_new": ("calls",),
    "scalars.divexact": ("calls",),
    "series.div": ("calls", "self_s"),
    "series.mul": ("self_s",),
    "series.sqrt": ("self_s",),
    "series.compose": ("self_s",),
    "series.reversion": ("self_s",),
    "riordan.inverse": ("self_s",),
    "riordan.production": ("self_s",),
    "riordan.matrix": ("self_s",),
    "lbp.rows": ("self_s",),
    "lbp.moments": ("self_s",),
    "hankel_toeplitz.determinant": ("calls", "self_s"),
    "cfrac.cf_expand": ("self_s",),
    "cfrac.jfraction_from_moments": ("self_s",),
    "orthopoly.ortho_array": ("self_s",),
    "orthopoly.verify_factorizations": ("self_s",),
    "combinat.path_stats": ("calls", "self_s"),
}


class HarnessError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def run_child(cmd: workloads.Command, *, check: bool, trace_id: str | None,
              deadline: float) -> tuple[dict, float]:
    job = {
        "src": str(SRC),
        "argv": list(cmd.argv),
        "points": [list(p) for p in cmd.points],
        "check": check,
        "trace": trace_id is not None,
        "trace_id": trace_id,
        "trace_file": str(OUT / "traces" / f"{trace_id}.spans"),
    }
    job["spawn"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            capture_output=True, text=True, cwd=ROOT,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        wall = time.monotonic() - job["spawn"]
        return {"error": f"timed out after {wall:.1f} s", "after_s": 0.0}, wall
    wall = time.monotonic() - job["spawn"]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"child for {cmd.label!r} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1]), wall


def failed(rec: dict) -> bool:
    return rec.get("error") is not None or rec.get("rc") != 0


def run_rounds(commands, seconds: int, trace: bool, tag: str) -> list[list[dict]]:
    """Rounds of samples until about `seconds` of measured time have passed.

    With trace, rounds alternate untraced and traced, starting untraced, and
    there are at least two.
    """
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    checked: dict[str, dict] = {}
    rounds: list[list[dict]] = []
    spent = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        samples = []
        for i, cmd in enumerate(commands):
            first = cmd.label not in checked
            trace_id = f"{tag}-r{len(rounds)}-c{i}" if traced else None
            rec, wall = run_child(cmd, check=first, trace_id=trace_id, deadline=deadline)
            rec.update(metric=cmd.metric, label=cmd.label, traced=traced)
            spent += wall - rec["after_s"]
            if first:
                checked[cmd.label] = rec
            elif not failed(rec):
                ref = checked[cmd.label]
                if rec["sha256"] != ref.get("sha256"):
                    rec["error"] = "stdout differs from the checked run of this argv"
                elif failed(ref):
                    rec["error"] = "same stdout as the checked run, which failed"
                else:
                    rec["check"] = ref["check"]
            samples.append(rec)
            if "timed out" in (rec.get("error") or ""):
                return rounds + [samples]
        rounds.append(samples)
        elapsed = time.monotonic() - start
        if trace and len(rounds) < 2:
            continue
        # stop at the round count that lands nearest to `seconds`
        if spent + 0.5 * spent / len(rounds) > seconds:
            return rounds
        if elapsed + elapsed / len(rounds) > START_LIMIT_S:
            return rounds


def round_times(samples: list[dict], key: str = "cmd_s") -> dict[str, float]:
    out = {m: 0.0 for m in workloads.COMMAND_METRICS}
    for rec in samples:
        out[rec["metric"]] += rec.get(key, 0.0)
    out["wall_s"] = sum(out.values())
    return out


def _speed(rec: dict) -> float:
    """The child's rescaled over raw wall time during its command."""
    return rec["work"] * PROBE_REF_S / rec["cmd_s"]


def end_to_end(rounds: list[list[dict]]) -> dict[str, tuple[float, str]]:
    """Command times at full CPU speed (see speedometer.py).

    Each argv counts with the median over rounds of its work in probe units
    times PROBE_REF_S.  Set-up runs before the probe can start, so each
    child's set-up time is rescaled by the speed it measured during its
    command.  Raw wall times stay in the run record.
    """
    samples = [rec for r in rounds for rec in r if "work" in rec]
    by_argv: dict[str, list[dict]] = {}
    for rec in samples:
        by_argv.setdefault(rec["label"], []).append(rec)
    metrics = {m: 0.0 for m in workloads.COMMAND_METRICS}
    for recs in by_argv.values():
        work = statistics.median(r["work"] for r in recs)
        metrics[recs[0]["metric"]] += work * PROBE_REF_S
    out = {"wall_s": (sum(metrics.values()), "s")}
    out.update((m, (v, "s")) for m, v in metrics.items())
    out["setup_s"] = (statistics.median(rec["setup_s"] * _speed(rec) for rec in samples), "s")
    out["peak_rss_mb"] = (max(rec["rss_mb"] for rec in samples), "MB")
    return out


_NO_SPAN = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "raised": 0, "weight": 0}


def layer_round(samples: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced round, summed over its commands.

    Span times are rescaled to the fixed CPU speed of the end-to-end times
    by the command's own ratio of rescaled to raw wall time.
    """
    spans: dict[str, dict] = {}
    for rec in samples:
        speed = _speed(rec)
        for name, s in rec["trace"]["spans"].items():
            acc = spans.setdefault(name, dict(_NO_SPAN))
            for key in acc:
                acc[key] += s.get(key, 0) * (speed if key.endswith("_s") else 1)

    def span(name):
        return spans.get(name, _NO_SPAN)

    out: dict[str, float] = {}
    for stem, fields in SPAN_FIELDS.items():
        for field in fields:
            out[f"{stem}.{field}"] = span(SPANS[stem])[field]
    divexact = span(SPANS["scalars.divexact"])
    out["scalars.divexact.ok_ratio"] = (
        (divexact["calls"] - divexact["raised"]) / divexact["calls"]
        if divexact["calls"] else 1.0)
    out["scalars.self_s"] = sum(s["self_s"] for n, s in spans.items()
                                if n.startswith("scalars."))
    checks = [rec["check"] for rec in samples]
    out["scalars.max_terms"] = max(c["max_terms"] for c in checks)
    out["scalars.max_coeff_bits"] = max(c["max_coeff_bits"] for c in checks)
    out["hankel_toeplitz.det_cells"] = span(SPANS["hankel_toeplitz.determinant"])["weight"]
    for name in SCENARIO_NAMES:
        out[f"scenarios.{name}.s"] = span(f"scenarios.scenario_{name}")["total_s"]
    out["scenarios.checks"] = sum(c["checks"] for c in checks)
    out["cli.self_s"] = span(ROOT_SPAN)["self_s"]
    out["cli.out_bytes"] = sum(rec["out_bytes"] for rec in samples)
    return out


# per-layer values that count work, by unit: they must repeat exactly
# between rounds; every other per-layer value is a time
_COUNT_UNITS = {
    ".calls": "count", ".checks": "count", ".det_cells": "count",
    ".max_terms": "count", ".max_coeff_bits": "bits", ".out_bytes": "bytes",
    ".ok_ratio": "1",
}


def _count_unit(name: str) -> str | None:
    return next((u for suffix, u in _COUNT_UNITS.items() if name.endswith(suffix)), None)


def coverage_gaps(samples: list[dict]) -> list[str]:
    """Named spans never entered and expected bindings never entered."""
    entered = set()
    hits: dict[str, int] = {}
    for rec in samples:
        entered.update(n for n, s in rec["trace"]["spans"].items() if s["calls"])
        for binding, count in rec["trace"]["hits"].items():
            hits[binding] = hits.get(binding, 0) + count
    gaps = sorted(f"span {n}" for n in NAMED_SPANS - entered)
    gaps += sorted(f"binding {b}" for b, count in hits.items() if not count)
    return gaps


def per_layer(rounds: list[list[dict]], problems: list[str]) -> dict[str, tuple[float, str]]:
    traced = [r for r in rounds if r and r[0]["traced"]]
    per_round = [layer_round(r) for r in traced]
    metrics: dict[str, tuple[float, str]] = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        unit = _count_unit(name)
        if unit:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), "s")
    # in probe units, like the end-to-end times, so machine speed cancels
    untraced_work = statistics.median(round_times(r, "work")["wall_s"] for r in rounds
                                      if r and not r[0]["traced"])
    traced_work = statistics.median(round_times(r, "work")["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = ((traced_work - untraced_work) * PROBE_REF_S, "s")
    for r in traced:
        problems.extend(f"coverage: {gap}" for gap in coverage_gaps(r))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "riordanlbp" / "cli.py").is_file():
        print(f"error: no riordanlbp sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    commands, draws = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    if args.trace:
        shutil.rmtree(OUT / "traces", ignore_errors=True)
        (OUT / "traces").mkdir()
    try:
        rounds = run_rounds(commands, args.seconds, bool(args.trace), tag)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    samples = [rec for r in rounds for rec in r]
    bad = [rec for rec in samples if failed(rec)]
    problems = [f"{rec['label']}: {rec.get('error') or 'exit ' + str(rec.get('rc'))}"
                for rec in bad]
    if args.trace and not bad:
        metrics = per_layer(rounds, problems)
    elif args.trace:
        metrics = {}
    else:
        metrics = end_to_end(rounds)

    record = {
        "args": vars(args),
        "draws": draws,
        "rounds": len(rounds),
        "fail_ratio": len(bad) / len(samples),
        "problems": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "raw_round_medians": {
            m: statistics.median(round_times(r)[m] for r in rounds)
            for m in ("wall_s",) + workloads.COMMAND_METRICS
        },
        "stdout_sha256": {rec["label"]: rec["sha256"] for rec in samples if "sha256" in rec},
        "samples": [{k: v for k, v in rec.items() if k != "trace"} for rec in samples],
        "spans_last_round": {rec["label"]: rec["trace"]["spans"]
                             for rec in rounds[-1] if "trace" in rec},
    }
    record_path = OUT / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  draws {json.dumps(draws)}")
    print(f"{len(rounds)} rounds, {len(samples)} commands, {len(bad)} failed; "
          f"record {record_path.relative_to(ROOT)}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
