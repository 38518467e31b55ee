"""What every benchmark shares: where an artifact goes, what a written
section looks like, and how timing samples become a median or a
percentile.

A run is either at the full profile (the default, and what pytest runs)
or at the quick profile (``report.py --quick``).  Each bench file keeps
its own ``FULL``/``QUICK`` sizes as data and reads the active one with
:func:`pick`.  A full run writes ``BENCH_<name>.json`` at the repository
root; a quick run writes to the gitignored ``.benchmarks/quick/``, so a
smoke run never touches the committed results.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUICK_DIR = ROOT / ".benchmarks" / "quick"

sys.path.append(str(ROOT))
from perfbench.run import commit  # noqa: E402

_profile = "full"


def use_quick():
    """Switch this process to the quick profile (``report.py --quick``)."""
    global _profile
    _profile = "quick"


def pick(full, quick):
    """The active profile's sizes."""
    return quick if _profile == "quick" else full


def out_dir():
    return QUICK_DIR if _profile == "quick" else ROOT


def artifact(name):
    return out_dir() / f"BENCH_{name}.json"


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def env():
    """The stamp every written section carries.  Sections are stamped
    one by one because separate tests own them and may run at different
    times."""
    return {
        "python": platform.python_version(),
        "usable_cores": usable_cores(),
        "commit": commit(),
        "profile": _profile,
    }


def write(name, section, payload):
    """Merge one stamped section into the active profile's
    ``BENCH_<name>.json``, keeping every other section."""
    path = artifact(name)
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            raise ValueError(f"{path} is not valid JSON; fix or delete it") from exc
    data[section] = {**payload, "env": env()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")


def read(name):
    """Every section of the active profile's ``BENCH_<name>.json``."""
    return json.loads(artifact(name).read_text())


def time_ms(fn, *args):
    """Wall time of one call ``fn(*args)`` in ms; the arguments are
    evaluated before the clock starts."""
    start = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - start) * 1000.0


def percentile(samples, q):
    """The sample at rank ``int(q * n)`` of the sorted samples, without
    interpolation, so it is always one of them."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(samples):
    """The upper median: ``sorted(samples)[n // 2]``."""
    return percentile(samples, 0.5)


def median_ms(fn, *args, rounds):
    """Median wall time of ``rounds`` calls ``fn(*args)``, in ms."""
    return median([time_ms(fn, *args) for _ in range(rounds)])
