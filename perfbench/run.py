"""The Skini concert benchmark: one command, three workloads.

    python3 perfbench/run.py --workload audience --seed 1 --seconds 10 --trace 0

runs one measurement of one workload (``audience``, ``edge`` or
``score``) and prints every end-to-end metric by name and unit, with its
raw value and sample count, an environment stamp, and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; a
failed correctness check also makes it exit with 1.  ``--trace 1``
prints the per-layer metrics instead, with the tracing overhead on
every end-to-end metric and the unattributed share.

    python3 perfbench/run.py --aa --runs 5 --seconds 10

is the A/A mode: for each workload it runs two interleaved sets of the
same code and reports, per metric, both medians, their quartile spreads
and whether they agree within the bound of ``BENCHMARK.json``.

Every measurement runs in fresh interpreters (``concert.py``) with a
fixed ``PYTHONHASHSEED``; ``setup_s`` is the median over the measured
interpreter and ``SETUP_PROBES`` more that only set up.  NOTES.md
explains the workloads, the metrics and the reference-loop method.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("audience", "edge", "score")
#: interpreters that only set up, besides the measured one
SETUP_PROBES = 3
HASH_SEED = "0"
#: one child's wall-clock limit (the audience replay check dominates)
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: bool = False,
          setup_only: bool = False) -> Dict[str, Any]:
    """Run ``concert.py`` in a fresh interpreter and return its result."""
    cmd = [sys.executable, str(HERE / "concert.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT / "src"))
    env["PERFBENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} child exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git
    (the benchmark may run from a plain export, which has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def end_to_end(main: Dict[str, Any], setups: List[float]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one measurement, each with its raw value
    and sample count."""
    out = {"setup_s": {"value": statistics.median(setups), "n": len(setups), "unit": "s"}}
    out.update(main["e2e"])
    out["peak_rss_mb"] = {"value": main["peak_rss_mb"], "n": 1, "unit": "MB"}
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool = False) -> Dict[str, Any]:
    """One measured interpreter plus ``SETUP_PROBES`` set-up probes."""
    main = spawn(workload, seed, seconds, trace=trace)
    probes = [spawn(workload, seed, seconds, trace=trace, setup_only=True)
              for _ in range(SETUP_PROBES)]
    setups = [main["setup"]] + [p["setup"] for p in probes]
    e2e = end_to_end(main, [s["value"] for s in setups])
    e2e["setup_s"]["raw"] = statistics.median(s["raw_s"] for s in setups)
    return {"main": main, "e2e": e2e}


def measure_traced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Half the window untraced, half traced: per-layer figures, the
    overhead of tracing on each end-to-end metric, and the unattributed
    share."""
    plain = measure(workload, seed, seconds / 2)
    traced = measure(workload, seed, seconds / 2, trace=True)
    layers = dict(traced["main"]["layers"])
    for name, entry in plain["e2e"].items():
        layers[f"overhead.{name}"] = traced["e2e"][name]["value"] / entry["value"] - 1.0
    return {"main": plain["main"], "traced": traced["main"], "e2e": plain["e2e"],
            "traced_e2e": traced["e2e"], "layers": layers}


def stamp(result: Dict[str, Any], seed: int) -> Dict[str, Any]:
    return {
        "python": result["main"]["python"],
        "usable_cores": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_digest": source_digest(),
        "PYTHONHASHSEED": HASH_SEED,
        "seed": seed,
        **result["main"]["reference"],
    }


def print_e2e(title: str, e2e: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for name, entry in e2e.items():
        raw = entry.get("raw")
        extra = f"raw {raw:.6g}" if raw is not None else ""
        count = f"n={entry['n']}"
        if "beyond" in entry and name.endswith("p99_ms"):
            count += f" ({entry['beyond']} beyond p99)"
        print(f"  {name:<18} {entry['value']:>14.6g} {entry['unit']:<5} {extra:<18} {count}")


def run_once(args: argparse.Namespace) -> int:
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    children = [result["main"]] + ([result["traced"]] if args.trace else [])
    errors = [e for child in children for e in child["errors"]]
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(stamp(result, args.seed)))
    print_e2e("end-to-end (normalized to the reference loop; raw beside):", result["e2e"])
    print(f"  {'error_rate':<18} {failed / attempted:>14.6g} ratio "
          f"{failed} failed of {attempted} operations")
    if args.trace:
        print_e2e("end-to-end, traced half:", result["traced_e2e"])
        print("per-layer (traced half):")
        for name, value in result["layers"].items():
            print(f"  {name:<34} {value:.6g}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result["e2e"][m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if errors else 0


def spread(values: List[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_aa(args: argparse.Namespace) -> int:
    """Two interleaved sets of the same code, per workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    summary: Dict[str, Any] = {}
    agree_all = True
    for workload in workloads:
        sets: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
        for i in range(args.runs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                seed = args.seed + 2 * i + (side == "B")
                result = measure(workload, seed, args.seconds)
                if result["main"]["errors"]:
                    print(f"CHECK FAILED {workload} seed={seed}: {result['main']['errors']}")
                    return 1
                sets[side].append(result["e2e"])
                print(f"{workload} set {side} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in result["e2e"].items()), flush=True)
        print(f"{workload}: A/A over {args.runs} runs per set")
        rows = {}
        for name, (bound, better) in bounds.items():
            a = [r[name]["value"] for r in sets["A"]]
            b = [r[name]["value"] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb / ma - 1.0) if better == "lower" else (1.0 - mb / ma)
            sa, sb = spread(a), spread(b)
            agree = worse <= bound and (name == "setup_s" or (sa <= bound and sb <= bound))
            agree_all &= agree
            rows[name] = {"median_a": ma, "median_b": mb, "spread_a": sa, "spread_b": sb,
                          "b_worse_by": worse, "bound": bound, "agree": agree}
            print(f"  {name:<18} A {ma:<12.6g} B {mb:<12.6g} spread A {sa:6.3f} B {sb:6.3f} "
                  f"B worse by {worse:+.3f} (bound {bound}) {'agree' if agree else 'DISAGREE'}")
        summary[workload] = rows
    print(json.dumps({"aa": summary, "agree": agree_all}))
    return 0 if agree_all else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true", help="A/A mode")
    parser.add_argument("--runs", type=int, default=5, help="runs per set in A/A mode")
    args = parser.parse_args()
    if args.aa and args.runs < 2:
        parser.error("--aa needs at least two --runs per set")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.aa:
            return run_aa(args)
        if args.workload is None:
            parser.error("--workload is required outside --aa mode")
        return run_once(args)
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
