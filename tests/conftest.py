import importlib
import pkgutil
import sys
from collections import Counter, defaultdict

import pytest

import certforge
from certforge import core, task

# deep blast certificates recurse past the default interpreter limit
sys.setrecursionlimit(40000)


@pytest.fixture(autouse=True)
def _no_context_left_to_find():
    """Each test starts with no typing context to find by its declarations
    (task._CONTEXTS), so what a test counts does not hang on which tasks
    earlier tests left alive. Clearing only turns later lookups into
    misses; a live task keeps its context."""
    task._CONTEXTS.clear()


@pytest.fixture
def annotate_calls(monkeypatch):
    """Every annotate call the test makes, by the certforge module making it.

    Patches annotate in each certforge module that imports it, and maps the
    module's short name ("task", "checker", ...) to the terms it typed, in
    call order. Clear it to start counting afresh.
    """
    calls: defaultdict[str, list] = defaultdict(list)
    for info in pkgutil.iter_modules(certforge.__path__):
        module = importlib.import_module(f"certforge.{info.name}")
        if module is core or getattr(module, "annotate", None) \
                is not core.annotate:
            continue

        def recording(I, sig, t, *args, _name=info.name, **kwargs):
            calls[_name].append(t)
            return core.annotate(I, sig, t, *args, **kwargs)

        monkeypatch.setattr(module, "annotate", recording)
    return calls


@pytest.fixture
def unifier_counts(monkeypatch):
    """How many metavariables (`fresh`) and unifications (`unify`, each
    recursive call included) annotate makes while the test runs.

    A Counter keyed "fresh" and "unify"; clear it to start afresh.
    """
    counts: Counter = Counter()
    for name in ("fresh", "unify"):
        method = getattr(core._Unifier, name)

        def counting(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(core._Unifier, name, counting)
    return counts
