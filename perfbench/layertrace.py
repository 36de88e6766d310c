"""In-process layer tracer for a Python package, with no edit to its source.

Every public function of every module of the package is wrapped at each
module binding, so a call from one module into another (dual -> sym_eig,
cli -> fit_dual) goes through the wrapper and nests under its caller. A
layer is the module that defines the function. Spans stay in memory and are
written out once the pass ends.
"""

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict


class LayerTracer:
    def __init__(self, package: str):
        self.package = package
        self.spans = []  # [name, layer, start, end, parent index]
        self.layer_self = defaultdict(float)  # (command, layer) -> seconds
        self.func_self = defaultdict(float)  # "layer.function" -> seconds
        self.func_calls = defaultdict(int)
        self.command_calls = defaultdict(int)  # "command/layer.function" -> calls
        self.functions = set()  # "layer.function" for every wrapped function
        self._stack = []  # [span index, seconds covered by children]
        self._command = None
        self._patches = []  # (module, attribute, wrapper, original)
        self._wrap_all()

    def _modules(self):
        root = importlib.import_module(self.package)
        yield root
        for info in pkgutil.iter_modules(root.__path__):
            yield importlib.import_module(f"{self.package}.{info.name}")

    def _wrap_all(self):
        wrappers = {}
        for module in self._modules():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__ or ""
                if not home.startswith(self.package + "."):
                    continue
                if fn not in wrappers:
                    layer = home[len(self.package) + 1 :]
                    wrappers[fn] = self._wrap(fn, f"{layer}.{fn.__name__}", layer)
                self._patches.append((module, attr, wrappers[fn], fn))
        self.functions = {w.span_name for w in wrappers.values()}

    def _wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, layer)

        wrapper.span_name = name
        return wrapper

    def _enter(self, name, layer):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])

    def _exit(self, name, layer):
        end = time.perf_counter()
        idx, children = self._stack.pop()
        span = self.spans[idx]
        span[3] = end
        duration = end - span[2]
        own = duration - children
        self.layer_self[(self._command, layer)] += own
        self.func_self[name] += own
        self.func_calls[name] += 1
        self.command_calls[f"{self._command}/{name}"] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def command(self, command: str, root_layer: str = "cli"):
        """Trace one command: installs the wrappers, opens a root span whose
        self time belongs to root_layer, and removes the wrappers after."""
        for module, attr, wrapper, _ in self._patches:
            setattr(module, attr, wrapper)
        self._command = command
        name = f"command.{command}"
        self._enter(name, root_layer)
        try:
            yield
        finally:
            self._exit(name, root_layer)
            self._command = None
            for module, attr, _, original in self._patches:
                setattr(module, attr, original)

    def write_spans(self, path):
        """Spans as [name, layer, start_s, end_s, parent], times relative to
        the first span; parent is an index into the list or -1."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[n, l, round(s - t0, 9), round(e - t0, 9), p] for n, l, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, separators=(",", ":"))
