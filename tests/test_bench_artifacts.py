"""The committed ``BENCH_*.json`` artifacts are full-profile runs, and
every section records the environment it ran on.

A section is written by one benchmark gate through
``benchmarks/harness.py``, which stamps it with ``env``.  A quick run
(``benchmarks/report.py --quick``) writes under ``.benchmarks/quick/``
instead, so a quick artifact at the repository root means one was
committed by mistake.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = {"python", "usable_cores", "commit", "profile"}


def test_committed_artifacts_are_stamped_full_profile():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json at the repository root"
    for path in paths:
        sections = json.loads(path.read_text())
        assert sections, f"{path.name} has no sections"
        for name, section in sections.items():
            env = section.get("env")
            assert isinstance(env, dict) and set(env) == ENV_KEYS, (
                f"{path.name}[{name!r}] env is {env!r}, expected keys {sorted(ENV_KEYS)}"
            )
            assert env["profile"] == "full", (
                f"{path.name}[{name!r}] was written by a {env['profile']!r} run"
            )
