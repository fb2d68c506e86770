"""Every function applied on an inbox uses only the inbox and its arguments.

:meth:`Inbox.apply` keys a result by the function and its arguments, so a
function that used anything else (a lambda's or closure's captures, a bound
method's object, a mutable module global) could hand one node the result of
another node's state.  One small scenario per registered protocol and
strategy must reach every ``.apply(`` call in ``src/repro``.
"""

from __future__ import annotations

import ast
import dis
import inspect
import pathlib
from collections import defaultdict
from unittest import mock

import pytest

import repro
from repro.adversary import STRATEGY_FACTORIES
from repro.api import ScenarioSpec, available_protocols, run_scenario
from repro.core.tally import scan_index
from repro.sim.messages import Inbox

#: Mutable globals a transition may reach, each with why no key needs it.
ALLOWED = {
    ("repro.sim.messages", "_INTERN_TABLE"),  # maps a value to an equal one
    ("repro.core.tally", "_PROFILE"),  # ``_timed`` adds to it; no build reads it
}

SPECS = [ScenarioSpec(protocol=name, n=7, f=2, max_rounds=30) for name in available_protocols()]
SPECS += [
    ScenarioSpec(protocol="consensus", n=7, f=2, adversary=name, max_rounds=30)
    for name in STRATEGY_FACTORIES
]
# Delays split the engines' views, so phase round 5 reads opinions.
SPECS.append(ScenarioSpec(protocol="parallel-consensus", n=7, f=2, delay="uniform-random"))


def call_sites() -> dict[str, tuple[pathlib.Path, range]]:
    """Each ``.apply(`` call in ``src/repro`` and the lines it spans, named
    by the function around it and the function it applies."""

    root, sites = pathlib.Path(repro.__file__).parent.resolve(), {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}" if isinstance(child, SCOPES) else scope
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "apply":
                name = f"{inner}({ast.unparse(child.args[0])})"
                name += "+" * sum(site.startswith(name) for site in sites)  # a repeated call
                sites[name] = (path, range(child.lineno, child.end_lineno + 1))
            visit(child, path, inner)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, ".".join(path.relative_to(root).with_suffix("").parts))
    return sites


SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SITES = call_sites()


def recorded(drive) -> dict[tuple[pathlib.Path, int], set]:
    """The functions that reach ``Inbox.apply`` in ``drive()``, applied or
    as an argument, by the file and line that call it."""

    by_line, apply = defaultdict(set), Inbox.apply

    def recording(inbox, fn, *args):
        caller = inspect.currentframe().f_back
        line = (pathlib.Path(caller.f_code.co_filename).resolve(), caller.f_lineno)
        by_line[line].update(f for f in (fn, *args) if callable(f) and not inspect.isclass(f))
        return apply(inbox, fn, *args)

    with mock.patch.object(Inbox, "apply", recording):
        drive()
    return by_line


@pytest.fixture(scope="module")
def reached():  # one run of every scenario for all call sites
    return recorded(lambda: [run_scenario(spec) for spec in SPECS])


def impurities(fn) -> list[str]:
    """What ``fn``, or a ``repro`` function it reads as a global, uses
    beyond the inbox and its arguments: a global it writes, or an
    unhashable one such as a dict."""

    if not inspect.isfunction(fn) or "<" in fn.__qualname__:
        return [f"{fn!r} is not a module-level function"]
    found, seen, pending = [], set(), [(fn, fn.__code__)]
    while pending:
        fn, code = pending.pop()
        if code in seen:
            continue
        seen.add(code)
        pending += [(fn, const) for const in code.co_consts if inspect.iscode(const)]
        for op in dis.get_instructions(code):
            if not op.opname.endswith("_GLOBAL") or (fn.__module__, op.argval) in ALLOWED:
                continue
            value = fn.__globals__.get(op.argval)  # ``None`` for a builtin
            if op.opname != "LOAD_GLOBAL" or type(value).__hash__ is None:
                found.append(f"{fn.__module__}.{fn.__qualname__} uses {op.argval}")
            elif inspect.isfunction(value) and value.__module__.startswith("repro."):
                pending.append((value, value.__code__))
    return found


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_applied_function_uses_only_the_inbox_and_its_arguments(site, reached):
    path, span = SITES[site]
    functions = set().union(*(reached.get((path, line), ()) for line in span))
    assert functions, f"no scenario reaches the apply call at {path}:{span.start}"
    assert [problem for fn in functions for problem in impurities(fn)] == []


def test_every_recorded_apply_call_is_a_named_call_site(reached):
    assert {(path, line) for path, span in SITES.values() for line in span} >= set(reached)


_SEEN: list = []  # a mutable global, read by a planted impurity below


def _reads_a_mutable_global(inbox):
    return len(_SEEN)


def _closure(offset=1):
    return lambda inbox: offset


PLANTED = {
    "lambda": lambda inbox: 1,
    "closure": _closure(),
    "method": Inbox().items,
    "mutable global": _reads_a_mutable_global,
}


@pytest.mark.parametrize("planted", sorted(PLANTED))
def test_the_check_fails_on_a_planted_impurity(planted):
    assert impurities(PLANTED[planted])


def test_the_check_sees_a_classifier_passed_to_a_tally_as_an_argument():
    functions = set().union(*recorded(lambda: scan_index(Inbox(), lambda payload: None)).values())
    assert any(impurities(fn) for fn in functions)
