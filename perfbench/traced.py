"""Run one pmdg CLI invocation with every call into a pmdg layer timed.

Usage: python3 perfbench/traced.py TRACE.json -- <pmdg arguments>

The program is not modified.  Before the CLI runs, each public function
and each public method (constructors included) defined in a layer module
is replaced by a timing wrapper, in the defining module and in every
pmdg module that imported the name.  A call opens a span that records
its name, start, end and parent; a layer's self time is the duration of
its spans minus the time covered by their child spans.  Generator
functions (``iter_partitions``, ``iter_matchings``) return a proxy that
times every step, so producing an item is charged to the generator's own
layer and not to the loop that consumes it.  A function that calls
itself through its module global (``iter_partitions``) is patched only
in the modules that imported it, so its recursion runs untraced and a
recursive scan is one span per outside call.

Spans stay in memory and are written with the per-name totals to
TRACE.json when the CLI returns.  The report still goes to stdout and
the CLI's exit code is this process's exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = (
    "matchings",
    "partitions",
    "exact",
    "characters",
    "graphs",
    "search",
    "spectra",
    "polytope",
    "cayley",
    "records",
)

# Functions whose first argument (k) is collected, so the harness can
# tell how many builds repeat an earlier one.
KEYED = {"graphs.build_graph"}


class Tracer:
    """In-memory spans plus running per-name totals."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, busy]
        self.stack: list = []  # [span index, time covered by children]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.yielded: Counter = Counter()
        self.keys: defaultdict = defaultdict(list)

    def _open(self, name: str, start: float) -> int:
        parent = self.stack[-1][0] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, start, start, parent, 0.0])
        return idx

    def call(self, name: str, fn, args, kwargs):
        self.calls[name] += 1
        if name in KEYED and args:
            self.keys[name].append(args[0])
        clock = time.perf_counter
        start = clock()
        idx = self._open(name, start)
        frame = [idx, 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            self.stack.pop()
            span = self.spans[idx]
            span[2] = end
            span[4] = end - start
            self.self_s[name] += (end - start) - frame[1]
            if self.stack:
                self.stack[-1][1] += end - start

    def steps(self, name: str, gen):
        """Proxy a generator, charging the time of each step to ``name``.

        The generator is one span whose busy time is the sum of its steps;
        the totals are committed when it is exhausted or closed.
        """
        self.calls[name] += 1
        clock = time.perf_counter
        stack = self.stack
        start = clock()
        idx = self._open(name, start)
        busy = covered = 0.0
        count = 0
        try:
            while True:
                frame = [idx, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    step = clock() - t0
                    stack.pop()
                    busy += step
                    covered += frame[1]
                    if stack:
                        stack[-1][1] += step
                count += 1
                yield item
        finally:
            span = self.spans[idx]
            span[2] = clock()
            span[4] = busy
            self.self_s[name] += busy - covered
            self.yielded[name] += count

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "yielded": dict(self.yielded),
            "distinct_keys": {n: len(set(v)) for n, v in self.keys.items()},
            "spans": self.spans,
            "span_fields": ["name", "start", "end", "parent", "busy"],
        }


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.steps(name, fn(*args, **kwargs))

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

    return wrapper


def _defined_in(fn, module) -> bool:
    """True for plain Python functions written in ``module``'s source."""
    target = getattr(fn, "__wrapped__", fn)
    return isinstance(target, types.FunctionType) and (
        target.__code__.co_filename == module.__file__
    )


def install(tracer: Tracer, package) -> None:
    """Patch every layer of ``package`` (the imported pmdg) in place."""
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == package.__name__ or name.startswith(package.__name__ + ".")
    }
    replaced: dict[int, object] = {}
    # A function that calls itself through its module global keeps the
    # original there, so its recursion is neither traced nor slowed.
    recursive: set[tuple[str, str]] = set()
    for layer in LAYERS:
        mod = modules[f"{package.__name__}.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                _patch_class(tracer, layer, obj, mod)
            elif _defined_in(obj, mod):  # functools.cache wrappers included
                replaced[id(obj)] = _wrap(tracer, f"{layer}.{attr}", obj)
                code = getattr(obj, "__code__", None)
                if code is not None and obj.__name__ in code.co_names:
                    recursive.add((mod.__name__, attr))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            new = replaced.get(id(obj))
            if new is not None and (mod.__name__, attr) not in recursive:
                setattr(mod, attr, new)


def _patch_class(tracer: Tracer, layer: str, cls: type, mod) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in ("__init__", "__new__"):
            continue
        kind = type(raw)
        fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
        if not (isinstance(fn, types.FunctionType) and _defined_in(fn, mod)):
            continue
        name = f"{layer}.{cls.__name__}" if attr.startswith("_") else f"{layer}.{attr}"
        wrapped = _wrap(tracer, name, fn)
        setattr(cls, attr, kind(wrapped) if kind in (classmethod, staticmethod) else wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py TRACE.json -- <pmdg arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    import pmdg
    import pmdg.cli

    tracer = Tracer()
    install(tracer, pmdg)
    try:
        code = pmdg.cli.run(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
