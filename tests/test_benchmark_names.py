"""Every name the benchmark reads from the package stays public.

perfbench drives the package only through `aisepred.<name>`: its span tracer
wraps the names in `spans.TARGETS`, and its workloads call `aisepred.<name>`
directly. Deleting or renaming one of them breaks the benchmark, not the
package, so this test reads both lists and checks them here.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import aisepred

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def names_read_from_the_package(path):
    """Every `aisepred.<name>` attribute read in a Python file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "aisepred"})


@pytest.mark.parametrize("public, method", [(public, method)
                                            for public, method, _ in load_spans().TARGETS])
def test_every_traced_name_resolves(public, method):
    assert public in aisepred.__all__
    obj = getattr(aisepred, public)
    if method is not None:
        # The tracer swaps the method on the class itself, so the class must define it.
        assert callable(obj.__dict__[method])


@pytest.mark.parametrize("script", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_every_name_a_benchmark_script_reads_resolves(script):
    for name in names_read_from_the_package(PERFBENCH / script):
        assert hasattr(aisepred, name), f"perfbench/{script} reads aisepred.{name}"


def test_the_workloads_read_the_package():
    # Guards the scan itself: an empty list would pass the test above on any package.
    assert "run_experiment" in names_read_from_the_package(PERFBENCH / "workloads.py")
