"""The solver paths of the many-small workload match the committed record.

``scripts/cell_paths.txt`` records the status and iteration count of every
benchmark cell at workload seeds 0 and 1. A change that moves a solver path
must regenerate it (see README), so that the change shows up in the diff of
the change that causes it. ``perfbench/workloads.py`` is loaded here
read-only for the cell list.
"""

import importlib.util
import sys
from pathlib import Path

from natcone.bench import InstanceSpec, build_instance
from natcone.solver import solve

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
RECORD = ROOT / "scripts" / "cell_paths.txt"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up while the module body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_many_small_paths_match_record(monkeypatch):
    workload = load_workloads(monkeypatch)["many-small"]
    expected = [
        line for line in RECORD.read_text().splitlines() if line.startswith("many-small ")
    ]
    got = []
    for seed in (0, 1):
        for cell in workload.instances(seed):
            res = solve(build_instance(InstanceSpec(*cell))[0])
            label = " ".join(str(v) for v in cell)
            got.append(f"many-small {label}: {res.status.value} {res.iterations}")
    assert len(got) == 84
    assert got == expected
