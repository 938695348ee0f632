"""Per-layer spans and counters, installed into mfblocks from outside.

Every public function of each package module is wrapped, and the
wrapper is bound in every module namespace that holds the original,
because ``from .x import f`` copies the binding.  A wrapper records
calls and inclusive seconds of its function and charges its duration,
minus that of the wrapped calls it made, to its module as self time.
Scalar ``FieldContext`` methods are left unwrapped (they run millions
of times and are cheap), so their time counts as the caller's.

The lookups of ``Params._cache`` and of the twisted model's iota cache
are counted through dict subclasses put in place of the originals.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("field", "linalg", "groups", "characters", "groupalg", "quiver",
          "twisted", "morita", "verify", "cli")

# FieldContext methods that work on whole arrays
FIELD_VECTOR_METHODS = ("vmul", "vscale", "vadd", "vneg", "vfrob",
                        "digit_plane", "pack_planes")
# functions whose inclusive seconds are also summed under a shared key,
# counting nested calls among them once
TIME_GROUPS = {
    "groupalg.side_mul_table": "groupalg.side_tables",
    "groupalg.side_inv_index": "groupalg.side_tables",
}


class _CountingDict(dict):
    """A dict that counts ``get`` lookups as hits or misses."""

    def __init__(self, data, counts: list):
        super().__init__(data)
        self._counts = counts

    def get(self, key, default=None):
        self._counts[0 if dict.__contains__(self, key) else 1] += 1
        return dict.get(self, key, default)


class _ParamsCache(_CountingDict):
    """``Params._cache``; swaps a counting dict into each new twisted
    context so that its iota cache is counted too."""

    def __init__(self, data, counts: list, iota_counts: list):
        super().__init__(data, counts)
        self._iota_counts = iota_counts

    def __setitem__(self, key, value):
        if isinstance(key, tuple) and key[0] == "ttb0" \
                and type(value.get("iota")) is dict:
            value["iota"] = _CountingDict(value["iota"], self._iota_counts)
        dict.__setitem__(self, key, value)


class Tracer:
    """Spans and counters of one process, summed per function."""

    def __init__(self):
        self.calls: dict = {}      # "layer.name" -> calls
        self.seconds: dict = {}    # "layer.name" -> inclusive seconds
        self.extra: dict = {}      # "layer.name_counter" -> number
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.cache = [0, 0]        # Params._cache hits, misses
        self.iota = [0, 0]         # iota cache hits, misses
        self._stack: list = []     # child seconds of each open span
        self._depth: dict = {}     # timing key -> [open spans]

    # -- spans ----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, after=None):
        """fn with a span; after(args, result) adds counters."""
        key = f"{layer}.{name}"
        self.calls.setdefault(key, 0)
        timed = []
        for tkey in (key, TIME_GROUPS.get(key)):
            if tkey is not None:
                self.seconds.setdefault(tkey, 0.0)
                timed.append((tkey, self._depth.setdefault(tkey, [0])))
        calls, seconds, self_s = self.calls, self.seconds, self.self_s
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            for _, depth in timed:
                depth[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                for tkey, depth in timed:
                    depth[0] -= 1
                    if depth[0] == 0:
                        seconds[tkey] += dt
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def span(self, layer: str, fn, *args, **kwargs):
        """Call fn as a top-level span charged to layer."""
        return self.wrap(layer, "body", fn)(*args, **kwargs)

    def add(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every layer of the package."""
        mods = {layer: sys.modules[f"{package.__name__}.{layer}"]
                for layer in LAYERS}
        swaps = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) \
                        or not callable(obj) \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                swaps[id(obj)] = (obj, self.wrap(layer, name, obj,
                                                 self._after(layer, name)))
        for mod in [package, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                hit = swaps.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        ctx_cls = mods["field"].FieldContext
        for name in FIELD_VECTOR_METHODS:
            setattr(ctx_cls, name, self.wrap("field", name,
                                             getattr(ctx_cls, name),
                                             self._after("field", name)))

    def _after(self, layer: str, name: str):
        return getattr(self, f"_after_{layer}_{name}", None)

    def _after_groups_params_make(self, args, P) -> None:
        if not isinstance(P._cache, _ParamsCache):
            P._cache = _ParamsCache(P._cache, self.cache, self.iota)

    def _after_field_vmul(self, args, out) -> None:
        self.add("field.vmul_elems", int(out.size))

    def _after_linalg_gf_matmul(self, args, out) -> None:
        ctx, A, B = args[:3]
        m, k = A.shape
        self.add("linalg.gf_matmul_gflop",
                 2.0 * m * k * B.shape[1] * ctx.d ** 2 / 1e9)

    def _after_groupalg_ga_mul(self, args, out) -> None:
        _, x, y = args[:3]
        self.add("groupalg.ga_mul_lanes", len(x.keys) * len(y.keys))
        self.add("groupalg.ga_mul_out_terms", len(out.keys))

    def _after_twisted_tt_mul(self, args, out) -> None:
        _, _, t, s = args[:4]
        self.add("twisted.tt_mul_pairs", len(t.terms) * len(s.terms))
        self.add("twisted.tt_mul_out_terms", len(out.terms))

    def _after_twisted_b0_pi_product(self, args, out) -> None:
        _, _, x, y = args[:4]
        self.add("twisted.b0_pi_product_lanes", len(x.keys) * len(y.keys))

    def dump(self) -> dict:
        """The raw sums, for the parent process to add up."""
        return {"calls": self.calls, "seconds": self.seconds,
                "extra": self.extra, "self_s": self.self_s,
                "cache": self.cache, "iota": self.iota}
