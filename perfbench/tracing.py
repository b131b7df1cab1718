"""Per-layer tracing from outside the program.

Tracer wraps the public functions of flowcomm's modules in every flowcomm
module namespace that binds them, records one span per call (name, start,
end in thread CPU time, the span that caused it, and the operation it
belongs to) in memory, and puts every original back on exit. A listed
function that no longer exists is skipped and reports 0 calls.
"""

import sys
from time import thread_time

PACKAGE = "flowcomm"
SPANS = {
    "cli": ("run",),
    "serialize": ("encode_certificate", "encode_chain", "dumps", "loads", "decode_document"),
    "models": ("almost_commensurability_chain", "verify_chain"),
    "commensurability": (
        "are_commensurable",
        "build_certificate",
        "find_intertwiner",
        "stabilization_exponent",
        "verify_certificate",
        "trace_power",
    ),
    "conjugacy": ("are_equivalent", "rl_word"),
    "factorint": ("squarefree_discriminant", "squarefree_part"),
    "linalg": ("mat_pow", "hnf", "intertwiner_lattice", "lattice_image"),
}
# called too often for a span each; counted only
COUNTED = {"linalg": ("mat_mul",)}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns)
MAX_SPANS = 100_000


def _max_bits(m):
    return max(abs(getattr(m, f)).bit_length() for f in "abcd")


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "raised", "ones", "bits", "volume")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = 0  # calls that raised
        self.ones = 0  # calls that returned 1
        self.bits = 0  # largest operand or result, in bits
        self.volume = 0  # bytes or merge steps


def _observe(name, stats, args, result):
    """Per-layer counts taken at the call boundary."""
    if name == "linalg.hnf":
        stats.bits = max(stats.bits, _max_bits(args[0]))
    elif name == "linalg.mat_pow":
        stats.bits = max(stats.bits, _max_bits(result))
    elif name == "commensurability.stabilization_exponent":
        stats.ones += result == 1
    elif name == "commensurability.are_commensurable":
        if result.minimal_exponents is not None:
            stats.volume += sum(result.minimal_exponents) - 2
    elif name == "serialize.dumps":
        stats.volume += len(result.encode())
    elif name == "serialize.loads":
        stats.volume += len(args[0].encode())


class Tracer:
    """Context manager: wraps on entry, restores on exit. op is the id of
    the operation in flight, stamped on every span it causes."""

    def __init__(self):
        self.stats = {name: LayerStats() for name in SPAN_NAMES}
        self.mat_mul_calls = 0
        self.spans = []
        self.dropped = 0
        self.op = None
        self._stack = []  # [span id, time covered by children]
        self._next_id = 0
        self._patched = []  # (module, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        stats = self.stats[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            result = None
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                stats.raised += 1
                raise
            finally:
                end = thread_time()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if result is not None:
                    try:
                        _observe(name, stats, args, result)
                    except (AttributeError, TypeError, IndexError, ValueError):
                        pass  # a changed signature loses the count, not the call
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, parent, self.op, name, start, end))
                else:
                    self.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn):
        def wrapper(*args, **kwargs):
            self.mat_mul_calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore ------------------------------------------------

    def _modules(self):
        prefix = PACKAGE + "."
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(prefix))
        ]

    def __enter__(self):
        replacements = {}
        for table, make in ((SPANS, None), (COUNTED, self._counter)):
            for mod_name, fns in table.items():
                home = sys.modules.get(f"{PACKAGE}.{mod_name}")
                for fn_name in fns:
                    original = getattr(home, fn_name, None)
                    if not callable(original):
                        continue  # removed by a later change: 0 calls
                    name = f"{mod_name}.{fn_name}"
                    replacements[id(original)] = (
                        original,
                        make(original) if make else self._span(name, original),
                    )
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    # -- results ----------------------------------------------------------

    def metrics(self, per):
        """Per-layer metrics, divided by `per` (the passes traced)."""
        out = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = (s.calls / per, "count")
            out[f"{name}.total_s"] = (s.total_s / per, "s")
            out[f"{name}.self_s"] = (s.self_s / per, "s")

        def share(num, den):
            return num / den if den else 0.0

        st = self.stats
        out["linalg.mat_mul.calls"] = (self.mat_mul_calls / per, "count")
        out["linalg.hnf.max_bits"] = (st["linalg.hnf"].bits, "bits")
        out["linalg.mat_pow.max_bits"] = (st["linalg.mat_pow"].bits, "bits")
        out["commensurability.are_commensurable.merge_steps"] = (
            st["commensurability.are_commensurable"].volume / per,
            "count",
        )
        stab = st["commensurability.stabilization_exponent"]
        out["commensurability.stabilization_exponent.trivial_ratio"] = (
            share(stab.ones, stab.calls),
            "ratio",
        )
        sfd = st["factorint.squarefree_discriminant"]
        out["factorint.squarefree_discriminant.limit_ratio"] = (
            share(sfd.raised, sfd.calls),
            "ratio",
        )
        out["serialize.dumps.bytes"] = (st["serialize.dumps"].volume / per, "bytes")
        out["serialize.loads.bytes"] = (st["serialize.loads"].volume / per, "bytes")
        return out
