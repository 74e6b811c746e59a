"""Outside-in layer tracer for the supmimo package.

The tracer replaces each listed public function, in every loaded supmimo
module that binds it, with a wrapper that records one span per call.  Modules
bind many of these names with ``from .x import f``, so patching only the
defining module would miss those callers.  Leaving the context restores every
original binding.  A listed name that no longer exists is skipped and reports
zero calls.

Spans stay in memory.  Self time is a span's duration minus the durations of
the spans it directly encloses.  The tracer is not thread-safe: the
benchmark runs experiments on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "supmimo"

LAYERS = {
    "sysmodel": ("place_users", "path_loss", "draw_channels"),
    "waveform": ("make_pilot_books", "assemble_frames", "synthesize_received", "decide", "demap"),
    "estimators": ("tp_ls_estimate", "sp_ls_estimate", "mf_detect_tp", "mf_detect_sp",
                   "hybrid_estimates"),
    "iterative": ("predict_profile", "iterative_estimate"),
    "hybrid": ("greedy_partition",),
    "rng": ("substream",),
    "simharness": ("signal_residual_power", "count_ber"),
}


def _channel_mb(args, kwargs, result) -> float:
    """Bytes of the drawn channel matrix, in MB (M*N*16 for complex128)."""
    return getattr(result, "H", result).nbytes / 1e6


def _synthesis_gflop(args, kwargs, result) -> float:
    """Real flops of Y = H @ S: 8 per complex multiply-add, M*N*C_u of them."""
    H = args[0] if args else kwargs["H"]
    return 8 * getattr(result, "Y", result).size * H.shape[-1] / 1e9


# computed work counts: layer -> (metric suffix, function of (args, kwargs, result))
WORK = {
    "sysmodel.draw_channels": ("mb", _channel_mb),
    "waveform.synthesize_received": ("gflop", _synthesis_gflop),
}


class Tracer:
    """Context manager that wraps the layer functions of `package`."""

    def __init__(self, layers=LAYERS, package=PACKAGE, clock=time.perf_counter):
        self.layers = layers
        self.package = package
        self.clock = clock
        self.calls = {f"{m}.{f}": 0 for m, names in layers.items() for f in names}
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.work = {f"{layer}.{suffix}": 0.0 for layer, (suffix, _fn) in WORK.items()
                     if layer in self.calls}
        self.spans: list = []  # (span id, parent id or -1, layer, start, end)
        self._stack: list = []  # [span id, time covered by child spans]
        self._next_id = 0
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, layer: str, fn):
        work = WORK.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                elapsed = end - start
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if parent is not None:
                    parent[1] += elapsed
                self.spans.append((span_id, parent[0] if parent else -1, layer, start, end))
            if work is not None:
                suffix, count = work
                self.work[f"{layer}.{suffix}"] += count(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for mod_name in self.layers:
            try:
                importlib.import_module(f"{self.package}.{mod_name}")
            except ModuleNotFoundError:
                continue
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for mod_name, names in self.layers.items():
            home = sys.modules.get(f"{self.package}.{mod_name}")
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        return False

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines, parents after their children."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, layer, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": layer,
                                     "start_s": start, "end_s": end}) + "\n")
