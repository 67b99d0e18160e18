"""The benchmark's tracer finds every library function it wraps.

``perfbench/tracer.py`` only reports a missing target on stderr, so a
renamed or deleted function would silently drop a traced layer.  The
tracer module is loaded read-only: nothing is wrapped by it here.  Its
self-test also expects the decompose workload to reach every layer it
lists, so the layers that decomposition reaches only through
``chains_equivalent`` are checked with counting wrappers.
"""

import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for name, module_name, attr, _ in _tracer().TARGETS:
        holder = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(holder, part), f"{name}: {module_name}.{attr}"
            holder = getattr(holder, part)
        assert callable(holder), name


def test_chains_cache_can_be_cleared():
    from moondec import decompose
    decompose._chains_cached.cache_clear()


def test_solve_linear_takes_a_system_with_a_matrix():
    from moondec.relations import LinearSystem, solve_linear
    assert list(inspect.signature(solve_linear).parameters) == ["system"]
    system = LinearSystem(((Fraction(2), Fraction(1)),
                           (Fraction(1), Fraction(-1))),
                          (Fraction(3), Fraction(0)))
    assert system.matrix[0] == (2, 1)
    assert solve_linear(system) == [1, 1]


def test_flagship_chains_reach_nullspace_and_row_echelon(monkeypatch, flagship):
    from moondec import _kernels, decompose, linalg
    calls = {}

    def count(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    count(linalg, "nullspace")
    count(_kernels, "row_echelon")
    decompose._chains_cached.cache_clear()
    decompose.all_chains(flagship)
    assert calls.get("nullspace", 0) >= 1
    assert calls.get("row_echelon", 0) >= 1


def test_flagship_chains_still_reach_poly_gcd(monkeypatch, flagship):
    # compose and polynomial-only RatFun arithmetic no longer take a gcd,
    # but the traced self-test lists polynomials.poly_gcd for decompose
    from moondec import decompose, polynomials, ratfun
    calls = []
    inner = polynomials.poly_gcd

    def wrapper(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(polynomials, "poly_gcd", wrapper)
    monkeypatch.setattr(ratfun, "poly_gcd", wrapper)
    decompose._chains_cached.cache_clear()
    decompose.all_chains(flagship)
    assert calls
