"""The simulator reaches every function defined in src/sentrack.

Three in-process CLI runs (both built-in scenarios, and scenario 2's file
with the exact association path capped so that clusters take Murty's
ranked path), each with all four methods, record which code objects are
called.  A named function, method or property getter that none of them
calls is dead code, unless the allowlist below says who else reads it.
"""

import inspect
import sys
import types
from pathlib import Path

import yaml

import sentrack
from sentrack.cli import main
from sentrack.harness import METHODS

SRC = Path(sentrack.__file__).resolve().parent
FIXTURE = Path(__file__).parent / "golden" / "scenario-2.yaml"

# (file, qualified name) of each function no simulator run calls, and why it stays
UNREACHED = {
    ("lmb.py", "LmbDensity.components"): "bench/tracer.py's counters read it",
    ("scenarios.py", "save_scenario"): "the scenario writer that sentrack exports",
    ("scenarios.py", "scenario_to_dict"): "part of the exported scenario writer",
    ("scenarios.py", "_write"): "part of the exported scenario writer",
    ("scenarios.py", "_action_to_dict"): "part of the exported scenario writer",
}

# code objects that are not named functions: their bodies run as their parents' code
_UNNAMED = {"<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _named_functions(code):
    """(qualname, first line) of each named function nested in code, at any depth;
    class bodies are searched but not listed, having no CO_OPTIMIZED flag."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_name not in _UNNAMED and const.co_flags & inspect.CO_OPTIMIZED:
                yield const.co_qualname, const.co_firstlineno
            yield from _named_functions(const)


def defined_functions() -> set:
    """(file, qualname, first line) of every named function in src/sentrack."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        out |= {(path.name, *named) for named in _named_functions(module)}
    return out


def traced_calls(argvs) -> set:
    """(file, qualname, first line) of every src/sentrack function called
    while main runs each argv.  The global trace function returns None, so
    only call events are traced; a trace function already set is restored."""
    codes = set()

    def trace(frame, event, arg):
        codes.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for argv in argvs:
            assert main(argv) == 0
    finally:
        sys.settrace(previous)
    return {
        (Path(c.co_filename).name, c.co_qualname, c.co_firstlineno)
        for c in codes
        if Path(c.co_filename).resolve().parent == SRC
    }


def test_every_function_reached_by_the_simulator(tmp_path, capsys):
    d = yaml.safe_load(FIXTURE.read_text())
    d["filter"]["exact_enum_limit"] = 1  # every multi-row cluster takes the ranked path
    ranked = tmp_path / "ranked.yaml"
    ranked.write_text(yaml.safe_dump(d, sort_keys=False))
    methods = [arg for method in METHODS for arg in ("--method", method)]
    argvs = [
        ["simulate", "--scenario", str(spec), *methods, "--runs", "1", "--steps", "5",
         "--out", str(tmp_path / f"out{i}")]
        for i, spec in enumerate(["1", "2", ranked])
    ]
    called = traced_calls(argvs)
    capsys.readouterr()

    defined = defined_functions()
    allowed = {(f, q, line) for f, q, line in defined if (f, q) in UNREACHED}
    assert {(f, q) for f, q, _line in allowed} == set(UNREACHED)
    assert sorted(defined - called - allowed) == []
    assert not allowed & called, "an allowlisted function is reached: drop it from UNREACHED"
