"""In-memory span tracer that wraps memattn's public functions from outside.

Nothing in the program changes: `install` replaces module attributes with
recording wrappers and `uninstall` puts the originals back. A span is
[name, start_ns, end_ns, parent_index, trace_id, tensors_start,
tensors_end, flops_start, flops_end]; the two running counters (Tensor
constructions and matmul-family FLOPs) let any span report the work done
inside it exactly.

Every public function of cli, data, model, train and metrics gets a span.
The elementwise autograd ops are called ~120 times per sample, so only the
ones the benchmark reports are wrapped: `Tensor.backward` and `softmax_vec`
get spans, `Tensor.__init__` and matmul/matvec/vecmat only bump counters.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import time

SPAN_MODULES = ("cli", "data", "model", "train", "metrics")
AUTOGRAD_SPANS = ("softmax_vec",)
FLOP_OPS = ("matmul", "matvec", "vecmat")
# Spans that open a new trace id: one per training sample, prediction,
# benchmark request or CLI command.
TRACE_ROOTS = ("train.loss", "train.predict", "bench.")


def _flops(name, a, b):
    """2*m*k*n for the operand shapes of one matmul-family call."""
    if name == "matmul":
        (m, k), (_, n) = a.shape, b.shape
    elif name == "matvec":
        (m, k), n = a.shape, 1
    else:
        m, (k, n) = 1, b.shape
    return 2 * m * k * n


def _span_name(module, fn_name, args, kwargs):
    if module == "cli" and fn_name.startswith("cmd_"):
        return "cli." + fn_name[4:]
    if module == "model" and fn_name == "forward":
        training = kwargs.get("training", args[2] if len(args) > 2 else False)
        return "model.forward.train" if training else "model.forward.eval"
    return f"{module}.{fn_name}"


class Tracer:
    def __init__(self, memattn_modules):
        self.modules = memattn_modules  # {"cli": module, ...}
        self.spans = []
        self.stack = []
        self.trace_id = 0
        self.tensors = 0
        self.flops = 0
        self.bytes_read = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        if name.startswith(TRACE_ROOTS) or not self.stack:
            self.trace_id += 1
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, self.trace_id,
               self.tensors, 0, self.flops, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter_ns()
            rec[6] = self.tensors
            rec[8] = self.flops

    def _span_wrapper(self, module, fn):
        tracer = self
        fn_name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = _span_name(module, fn_name, args, kwargs)
            if name == "data.load_feature_file":
                tracer.bytes_read += os.path.getsize(args[0])
            return tracer.span(name, fn, *args, **kwargs)

        return wrapper

    def _flop_wrapper(self, fn):
        tracer = self
        fn_name = fn.__name__

        @functools.wraps(fn)
        def wrapper(a, b):
            tracer.flops += _flops(fn_name, a, b)
            return fn(a, b)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _wrappers(self):
        """Map id(original function) -> wrapper, for every traced function."""
        wrappers = {}
        for short in SPAN_MODULES:
            mod = self.modules[short]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._span_wrapper(short, obj)
        ag = self.modules["autograd"]
        for name in AUTOGRAD_SPANS:
            fn = getattr(ag, name)
            wrappers[id(fn)] = self._span_wrapper("autograd", fn)
        for name in FLOP_OPS:
            fn = getattr(ag, name)
            wrappers[id(fn)] = self._flop_wrapper(fn)
        return wrappers

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = self._wrappers()
        # A function imported into another module (train.spearman_rho) is
        # the same object, so every binding gets the one wrapper.
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        tensor = self.modules["autograd"].Tensor
        tracer = self
        orig_init, orig_backward = tensor.__init__, tensor.backward

        def counted_init(t, *args, **kwargs):
            tracer.tensors += 1
            orig_init(t, *args, **kwargs)

        def traced_backward(t):
            return tracer.span("autograd.backward", orig_backward, t)

        self._patch(tensor, "__init__", counted_init)
        self._patch(tensor, "backward", traced_backward)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self):
        """Start a new recording; returns the finished one."""
        spans, self.spans = self.spans, []
        bytes_read, self.bytes_read = self.bytes_read, 0
        return Recording(spans, bytes_read)


class Recording:
    """The spans of one traced cycle, with per-layer summaries."""

    def __init__(self, spans, bytes_read):
        self.spans = spans
        self.bytes_read = bytes_read
        child_ns = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        self.self_ns = [s[2] - s[1] - c for s, c in zip(spans, child_ns)]
        self.by_name = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)

    def named(self, name):
        return [self.spans[i] for i in self.by_name.get(name, ())]

    def durations_ms(self, name):
        return [(s[2] - s[1]) / 1e6 for s in self.named(name)]

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def total_s(self, name):
        return sum(s[2] - s[1] for s in self.named(name)) / 1e9

    def self_s(self, name):
        return sum(self.self_ns[i] for i in self.by_name.get(name, ())) / 1e9

    def tensors_per_training_sample(self):
        made = sum(s[6] - s[5] for s in self.named("train.train_epoch"))
        return made / self.calls("train.loss")

    def flops_per_forward(self):
        fwd = self.named("model.forward.train") + self.named("model.forward.eval")
        return sum(s[8] - s[7] for s in fwd) / len(fwd)

    def write_jsonl(self, f, cycle):
        """One span per line: [cycle, index, name, start_ns, end_ns, parent, trace]."""
        for i, s in enumerate(self.spans):
            f.write(json.dumps([cycle, i, *s[:5]]) + "\n")
