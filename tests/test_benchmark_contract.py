"""The benchmark in perfbench/ builds and instruments esobank through names
it looks up at run time. This checks, without timing or patching anything,
that every name it needs still resolves the way it looks it up."""

import importlib
import importlib.util
import pathlib

import pytest

import esobank
# The workloads reach these two modules as attributes of the package.
import esobank.cli  # noqa: F401
import esobank.verify  # noqa: F401

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_builds_against_the_package(name):
    workload = workloads.WORKLOADS[name]
    objs = workload.build(esobank, workload.inputs(1))
    assert objs
    for obj in objs:
        controller = obj[1] if isinstance(obj, tuple) else obj
        assert callable(controller.evaluate)


def test_every_traced_name_resolves_as_the_tracer_resolves_it():
    missing = []
    for short, path, _, _ in tracer.PLAN:
        module = importlib.import_module(f"esobank.{short}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            # methods are taken from the class's own namespace, not inherited
            if cls is None or attr not in cls.__dict__:
                missing.append(f"{short}.{path}")
        elif not callable(getattr(module, path, None)):
            missing.append(f"{short}.{path}")
    assert not missing, f"names the tracer cannot resolve: {missing}"
