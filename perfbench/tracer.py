"""Span recorder for the traced benchmark run.

Spans are timed with perf_counter, held in memory and written out once when
the run ends.  Every timed call is a frame on one stack, so a caller's self
time is its duration minus the time of the calls made under it.  Calls on
hot paths (echelon, client checks, erasure decodes, encodes, wire encoding)
are aggregated into per-name counters instead of one record each; coarse
calls are also kept as span records with a parent id, up to a cap.

`Instrumented` rebinds selected ppir functions, in every ppir module that
holds a reference to them, to timing wrappers for the duration of a `with`
block.  No file of the program changes and the originals are restored on
exit, so untraced passes run the unmodified code.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.spans = []  # (span_id, parent_id, trace_id, name, start, end)
        self.dropped = 0
        self.span_cap = span_cap
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.trace_id = 0
        self._stack = []  # frames: [child seconds, id of nearest recorded span]
        self._next_id = 1

    def call(self, name: str, record: bool, fn, *args, **kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_id = parent[1] if parent is not None else None
        if record:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent_id
        frame = [0.0, span_id]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            elapsed = end - start
            if parent is not None:
                parent[0] += elapsed
            self.calls[name] += 1
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - frame[0]
            if record:
                if len(self.spans) < self.span_cap:
                    self.spans.append((span_id, parent_id, self.trace_id, name, start, end))
                else:
                    self.dropped += 1

    def sum_total_s(self, prefix: str) -> float:
        return sum(s for name, s in self.total_s.items() if name.startswith(prefix))

    def sum_self_s(self, prefix: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.startswith(prefix))

    def to_json(self) -> dict:
        return {
            "span_fields": ["id", "parent", "trace", "name", "start_s", "end_s"],
            "spans": [list(s) for s in self.spans],
            "spans_dropped": self.dropped,
            "aggregates": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
            },
        }


def bytes_per_symbol(q: int) -> int:
    return math.ceil(math.log2(q) / 8)


class KernelAccount:
    """Computed symbol-kernel work: MACs and bytes, labelled as computed."""

    def __init__(self):
        self.macs = defaultdict(int)  # field kind -> multiply-accumulates
        self.bytes_moved = 0
        self.encode_bytes = 0  # message bytes fed to encodes
        self.decode_bytes = 0  # message bytes recovered by erasure decodes
        self.decode_calls = 0
        self.pattern_repeats = 0
        self.patterns = set()  # erasure patterns seen


class _TracedCode:
    """Stands in for a cached SystematicMdsCode; times encode and decode."""

    def __init__(self, code, tracer: Tracer, account: KernelAccount):
        self._code = code
        self._tracer = tracer
        self._account = account
        self._kind = "prime" if code.field.modulus is None else "binary"
        self._width = bytes_per_symbol(code.field.q)

    def __getattr__(self, attr):
        return getattr(self._code, attr)

    def parity_rows(self, message_rows):
        code = self._code
        length = len(message_rows[0]) if message_rows else 0
        acc = self._account
        acc.macs[self._kind] += code.k * (code.n - code.k) * length
        acc.bytes_moved += code.n * length * self._width
        acc.encode_bytes += code.k * length * self._width
        return self._tracer.call(
            "mds.encode." + self._kind, False, code.parity_rows, message_rows
        )

    def erasure_decode(self, known):
        code = self._code
        known = list(known)
        length = len(known[0][1]) if known else 0
        acc = self._account
        # the recovery matrix is keyed by the k smallest distinct known positions
        pattern = (code.n, code.k, code.field.q, tuple(sorted({p for p, _ in known})[: code.k]))
        acc.decode_calls += 1
        if pattern in acc.patterns:
            acc.pattern_repeats += 1
        else:
            acc.patterns.add(pattern)
        acc.macs[self._kind] += code.n * code.k * length
        acc.bytes_moved += (code.k + code.n) * length * self._width
        acc.decode_bytes += code.k * length * self._width
        return self._tracer.call(
            "mds.decode." + self._kind, False, code.erasure_decode, known
        )


class Instrumented:
    """Rebind ppir functions to timing wrappers inside a `with` block.

    targets: (module, attribute, span name, record spans?, observe hook or
    None).  Every loaded ppir module, plus `extra_modules`, that binds the
    original object gets the wrapper.  make_mds is replaced by a factory of
    timing proxies, and decoders that take `code_factory` receive it, since
    their default argument is bound at definition time.
    """

    def __init__(self, tracer: Tracer, account: KernelAccount, targets, extra_modules=()):
        self.tracer = tracer
        self.account = account
        self.targets = targets
        self.extra_modules = extra_modules
        self._restore = []
        self._proxies = {}

    def _modules(self):
        mods = [m for n, m in sys.modules.items() if n == "ppir" or n.startswith("ppir.")]
        return mods + list(self.extra_modules)

    def _rebind(self, original, replacement):
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, replacement)

    def traced_make_mds(self, n, k, q):
        code = self._real_make_mds(n, k, q)
        proxy = self._proxies.get(code)
        if proxy is None:
            proxy = self._proxies[code] = _TracedCode(code, self.tracer, self.account)
        return proxy

    def _wrap(self, original, name, record, observe):
        call = self.tracer.call
        factory = self.traced_make_mds
        takes_factory = "code_factory" in original.__code__.co_varnames

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if takes_factory:
                kwargs.setdefault("code_factory", factory)
            result = call(name, record, original, *args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def __enter__(self):
        from ppir import mds

        self._real_make_mds = mds.make_mds
        self._rebind(mds.make_mds, self.traced_make_mds)
        for module, attr, name, record, observe in self.targets:
            original = getattr(module, attr)
            self._rebind(original, self._wrap(original, name, record, observe))
        return self

    def __exit__(self, *exc):
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()
        return False
