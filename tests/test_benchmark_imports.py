"""The benchmark's workloads load against the package as it stands.

``perfbench/workloads.py`` imports library names directly, so a change that
removes or renames one of them fails here rather than in a benchmark run.
"""

import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_workloads_module_loads_and_names_the_declared_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(module.WORKLOADS) == sorted(w["name"] for w in declared)
