"""The simulator reaches every function, and every line of them, in src/sentrack.

Four in-process CLI runs, each with all four methods, record which code
objects are called and which of their lines run: both built-in scenarios;
scenario 2's file with the exact association path capped, so that clusters
take Murty's ranked path; and scenario 2's file cut to its own five-step
duration with every target born at step 3 and thresholds that reject
commands, which reaches the eta and psi rejections, the component cap and
OSPA of two empty sets.

A named function, method or property getter that none of them calls is
dead code, unless UNREACHED says who else reads it.  In a called function,
a line that no run executes is dead code too, unless it lies in a raise
statement or an except handler, or GUARDS names the unit test that runs it.
"""

import ast
import inspect
import re
import sys
import types
from pathlib import Path

import pytest
import yaml

import sentrack
from sentrack.cli import main
from sentrack.harness import METHODS

SRC = Path(sentrack.__file__).resolve().parent
TESTS = Path(__file__).parent
FIXTURE = TESTS / "golden" / "scenario-2.yaml"

# (file, qualified name) of each function no simulator run calls, and why it stays
UNREACHED = {
    ("lmb.py", "LmbDensity.components"): "bench/tracer.py's counters read it",
    ("scenarios.py", "save_scenario"): "the scenario writer that sentrack exports",
    ("scenarios.py", "scenario_to_dict"): "part of the exported scenario writer",
    ("scenarios.py", "_write"): "part of the exported scenario writer",
    ("scenarios.py", "_action_to_dict"): "part of the exported scenario writer",
}

# (file, qualified name, source line) of each guard no simulator run executes,
# and the unit test that executes it
GUARDS = {
    ("filtering.py", "_exact_marginals", "return [{0: 1.0} for _ in scaled]"):
        "test_filtering.py::TestExactMarginalsOracle::test_all_zero_weights_give_a_sure_miss",
    ("filtering.py", "murty_assignments", "return []"):
        "test_filtering.py::TestMurty::test_no_finite_assignment_gives_no_solution",
    ("filtering.py", "_bayes_update",
     "rows, block, meas, raw, g_sum = rows[hit], block[hit], meas[hit], raw[hit], g_sum[hit]"):
        "test_filtering.py::TestBatchedUpdateOracle::test_pair_with_zero_likelihood_sum",
    ("scenarios.py", "load_scenario.<locals>.UniqueKeyLoader.construct_mapping",
     "line = keys[i].start_mark.line + 1"):
        "test_scenarios.py::TestRejectedAtLoad::test_repeated_key_in_a_file_names_file_key_and_line",
}

# code objects that are not named functions: their bodies run as their parents' code
_UNNAMED = {"<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _named(code) -> bool:
    """Class bodies are not functions: they have no CO_OPTIMIZED flag."""
    return code.co_name not in _UNNAMED and bool(code.co_flags & inspect.CO_OPTIMIZED)


def _nested(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const


def _named_functions(code):
    """Each named function's code nested in code, at any depth; class bodies
    are searched but not listed."""
    for const in _nested(code):
        if _named(const):
            yield const
        yield from _named_functions(const)


def _own_codes(function):
    """The function's code and the unnamed code objects (comprehensions,
    lambdas) nested in it, whose lines are the function's lines."""
    yield function
    for const in _nested(function):
        if not _named(const):
            yield from _own_codes(const)


def _key(code) -> tuple:
    return Path(code.co_filename).name, code.co_qualname, code.co_firstlineno


def _lines(code) -> set:
    return {line for _start, _end, line in code.co_lines() if line is not None}


def _exempt_lines(source: str) -> set:
    """Lines of raise statements and except handlers: error paths, not dead code."""
    return {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Raise, ast.ExceptHandler))
        for line in range(node.lineno, node.end_lineno + 1)
    }


def _modules() -> dict:
    """{file name: (source lines, compiled module code, exempt lines)} of src/sentrack."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        out[path.name] = (source.splitlines(), compile(source, str(path), "exec"), _exempt_lines(source))
    return out


def defined_functions() -> set:
    """(file, qualname, first line) of every named function in src/sentrack."""
    return {
        _key(function)
        for _lines_, module, _exempt in _modules().values()
        for function in _named_functions(module)
    }


def traced_runs(argvs, exempt: dict) -> tuple:
    """Run main on each argv under a trace; returns (called, ran): the keys
    of the src/sentrack code objects called, and {key: lines run}.

    exempt maps each src/sentrack file path to lines that need not run.  A
    code object stops being traced once every other line of it has run, so
    the hot functions cost one dict look-up per call; a trace function
    already set is restored.
    """
    todo = {}  # code -> its lines not yet run; empty when done or outside src/sentrack
    ran = {}  # code -> its lines run

    def lines(frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran[code].add(frame.f_lineno)
            missing = todo[code]
            missing.discard(frame.f_lineno)
            if not missing:
                frame.f_trace = None
                return None
        return lines

    def call(frame, event, arg):
        code = frame.f_code
        missing = todo.get(code)
        if missing is None:
            skip = exempt.get(code.co_filename)
            if skip is None:
                todo[code] = missing = set()
            else:
                todo[code] = missing = _lines(code) - skip - {code.co_firstlineno}
                ran[code] = {code.co_firstlineno}
        return lines if missing else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for argv in argvs:
            assert main(argv) == 0
    finally:
        sys.settrace(previous)
    merged = {}
    for code, run in ran.items():
        merged.setdefault(_key(code), set()).update(run)
    return set(merged), merged


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """(called, ran) of the four CLI runs, as traced_runs returns them."""
    tmp = tmp_path_factory.mktemp("surface")
    d = yaml.safe_load(FIXTURE.read_text())
    d["filter"]["exact_enum_limit"] = 1  # every multi-row cluster takes the ranked path
    ranked = tmp / "ranked.yaml"
    ranked.write_text(yaml.safe_dump(d, sort_keys=False))

    d = yaml.safe_load(FIXTURE.read_text())
    d["duration"] = 5  # read from the file: no --steps below
    for target in d["targets"]:
        target["birth"] = 3  # two steps with no target: OSPA of two empty sets
    d["objective"].update(eta_threshold=130.0, exclusion_radius=150.0, psi_threshold=0.99)
    d["filter"]["max_components"] = 2  # the prune's component cap
    rejecting = tmp / "rejecting.yaml"
    rejecting.write_text(yaml.safe_dump(d, sort_keys=False))

    methods = [arg for method in METHODS for arg in ("--method", method)]
    # the rejecting run goes first: it completes the control lines soonest
    argvs = [["simulate", "--scenario", str(rejecting), *methods, "--runs", "1",
              "--out", str(tmp / "out3")]]
    argvs += [
        ["simulate", "--scenario", str(spec), *methods, "--runs", "1", "--steps", "5",
         "--out", str(tmp / f"out{i}")]
        for i, spec in enumerate(["1", "2", ranked])
    ]
    # keyed as the code objects' co_filename, which is not resolved
    package = Path(sentrack.__file__).parent
    exempt = {str(package / name): skip for name, (_source, _module, skip) in _modules().items()}
    return traced_runs(argvs, exempt)


def test_every_function_reached_by_the_simulator(traced):
    called, _ran = traced
    defined = defined_functions()
    allowed = {(f, q, line) for f, q, line in defined if (f, q) in UNREACHED}
    assert {(f, q) for f, q, _line in allowed} == set(UNREACHED)
    assert sorted(defined - called - allowed) == []
    assert not allowed & called, "an allowlisted function is reached: drop it from UNREACHED"


def guard_lines(source: list, function) -> set:
    """Line numbers of the function's entries in GUARDS; each guard's text
    must match exactly one line of the function."""
    f, qualname, first = _key(function)
    last = max(max(_lines(code)) for code in _own_codes(function))
    out = set()
    for gf, gq, text in GUARDS:
        if (gf, gq) == (f, qualname):
            [line] = [n for n in range(first, last + 1) if source[n - 1].strip() == text]
            out.add(line)
    return out


def test_every_line_of_a_reached_function_runs(traced):
    called, ran = traced
    unrun, guards_run, guards_found = {}, {}, 0
    for source, module, exempt in _modules().values():
        for function in _named_functions(module):
            key = _key(function)
            if key not in called:
                continue  # the function test above reports it
            codes = list(_own_codes(function))
            wanted = set().union(*map(_lines, codes)) - exempt
            run = set().union(*(ran.get(_key(code), set()) for code in codes))
            guarded = guard_lines(source, function)
            guards_found += len(guarded)
            if wanted - run - guarded:
                unrun[key] = {n: source[n - 1].strip() for n in sorted(wanted - run - guarded)}
            if run & guarded:
                guards_run[key] = sorted(run & guarded)
    assert guards_found == len(GUARDS), "a guard's function is not reached, or its text moved"
    assert unrun == {}, "delete these lines, or add them to GUARDS with a unit test that runs them"
    assert guards_run == {}, "a guard now runs in the simulator: drop it from GUARDS"


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_every_guard_names_an_existing_unit_test(guard):
    path, *names = GUARDS[guard].split("::")
    source = (TESTS / path).read_text()
    for name in names:
        assert re.search(rf"^\s*(def|class) {name}\b", source, re.M), GUARDS[guard]
