"""Outside-in per-layer tracing of bowtie, with no edit to the library.

The tracer replaces each traced function by a wrapper in every ``bowtie.*``
namespace that binds it: the defining module, the package re-exports,
``from .x import f`` copies in other modules, and module-level dict
entries that hold it (``theorems._TRANSFER`` holds three predicates).
Patching only the defining module would miss the calls made through
those other bindings.

Open spans sit on a stack in memory. When a span closes, its duration
minus the time its child spans covered is added to its layer's self
time, so nested layers are never counted twice. Time outside every span
is the caller's own (``unattributed_s``).
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> layer. Every binding of the function is wrapped.
FUNCTION_LAYERS = {
    ("rings", "validate_ring"): "rings.validate",
    ("rings", "direct_product"): "rings.product",
    ("rings", "subring_from_subset"): "rings.subring",
    ("rings", "enumerate_ideals"): "rings.ideals",
    ("modules", "validate_module"): "modules.validate",
    ("modules", "enumerate_submodules"): "modules.lattice",
    ("modules", "colon_into_ring"): "modules.colon",
    ("modules", "colon_by_scalar"): "modules.colon",
    ("modules", "annihilator"): "modules.colon",
    ("modules", "quotient_module"): "modules.quotient",
    ("duplication", "build_bowtie"): "duplication.build",
    ("classify", "is_prime_ideal"): "classify.scan",
    ("classify", "is_weakly_prime_ideal"): "classify.scan",
    ("classify", "is_primary_ideal"): "classify.scan",
    ("classify", "is_prime_submodule"): "classify.scan",
    ("classify", "is_weakly_prime_submodule_af"): "classify.scan",
    ("classify", "is_primary_submodule"): "classify.scan",
    ("classify", "is_weakly_prime_submodule_azizi"): "classify.azizi",
    ("classify", "is_weakly_prime_submodule_behboodi"): "classify.behboodi",
    ("classify", "is_weakly_prime_module"): "classify.behboodi",
    ("classify", "is_irreducible_submodule"): "classify.irreducible",
    ("theorems", "run_checker"): "theorems.checker",  # suffixed with the id
    ("theorems", "serialize_reports"): "theorems.serialize",
    ("cli", "main"): "cli.self",
}

# (module, class, method) -> layer, patched on the class.
METHOD_LAYERS = {
    ("theorems", "Instance", "npack"): "theorems.npack",
    ("instances", "InstanceSpec", "from_path"): "instances.spec",
    ("instances", "InstanceSpec", "build"): "instances.spec",
}

# Instance memo methods and the dict each one fills on a miss.
MEMO_CACHES = {
    "bowtie": "_bowtie_n",
    "colon": "_colon",
    "prime": "_prime",
    "primary": "_primary",
    "weakly_prime": "_wp",
    "npack": "_npack",
}


def _bowtie_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bowtie" or name.startswith("bowtie."))]


class Tracer:
    """Span stack, per-layer self time and exact counters for one pass."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, object, object, str]] = []

    # -------------------------------------------------------------- spans

    def _span(self, layer, fn, args, kwargs):
        frame = [0.0]  # time covered by child spans
        stack = self._stack
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += dur
            self.self_s[layer] += dur - frame[0]

    def root(self, fn, *args):
        """Run fn as the root span of a pass; its self time is unattributed."""
        self._stack = []
        return self._span("unattributed", fn, args, {})

    # ----------------------------------------------------------- wrappers

    def _function_wrapper(self, key, fn):
        mod, name = key
        layer = FUNCTION_LAYERS[key]
        span = self._span
        counts = self.counts

        if name == "run_checker":
            def wrapper(ctx, theorem, *args, **kwargs):
                return span(f"{layer}.{theorem}", fn, (ctx, theorem, *args), kwargs)
        elif name in ("validate_ring", "validate_module"):
            rings = sys.modules["bowtie.rings"]

            def wrapper(obj, limit=None):
                cap = rings.DEFAULT_VALIDATION_LIMIT if limit is None else limit
                size = obj.size if name == "validate_ring" else max(obj.size, obj.ring.size)
                counts[f"{layer}_calls"] += 1
                if size > cap:  # the library returns without checking
                    counts[f"{layer}_skipped"] += 1
                return span(layer, fn, (obj, limit), {})
        elif name == "direct_product":
            def wrapper(*args, **kwargs):
                ring = span(layer, fn, args, kwargs)
                counts["rings.product_elems"] += ring.size
                return ring
        elif name == "build_bowtie":
            def wrapper(*args, **kwargs):
                inst = span(layer, fn, args, kwargs)
                counts["duplication.ring_elems"] += inst.bowtie_ring.size
                counts["duplication.module_elems"] += inst.bowtie_module.size
                return inst
        elif name == "enumerate_submodules":
            def wrapper(*args, **kwargs):
                subs = span(layer, fn, args, kwargs)
                counts["modules.lattice_nodes"] += len(subs)
                return subs
        elif name in ("colon_into_ring", "colon_by_scalar"):
            def wrapper(*args, **kwargs):
                counts["modules.colon_calls"] += 1
                return span(layer, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return span(layer, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _method_wrapper(self, layer, fn):
        span = self._span

        def wrapper(*args, **kwargs):
            return span(layer, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _memo_wrapper(self, fn, cache_attr):
        """Count calls of an Instance memo method, and misses: calls that grew its cache."""
        counts = self.counts

        def wrapper(ctx, *args, **kwargs):
            cache = getattr(ctx, cache_attr)
            before = len(cache)
            result = fn(ctx, *args, **kwargs)
            counts["theorems.memo_calls"] += 1
            if len(cache) != before:
                counts["theorems.memo_misses"] += 1
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------- install/undo

    def _set(self, container, key, value, kind):
        old = container[key] if kind == "item" else vars(container)[key]
        self._undo.append((container, key, old, kind))
        if kind == "item":
            container[key] = value
        else:
            setattr(container, key, value)

    def install(self) -> None:
        """Wrap every traced function in every bowtie namespace binding it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        originals = {}
        for key in FUNCTION_LAYERS:
            mod, name = key
            fn = getattr(sys.modules[f"bowtie.{mod}"], name)
            originals[id(fn)] = (fn, self._function_wrapper(key, fn))
        for module in _bowtie_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in originals and value is originals[id(value)][0]:
                    self._set(module, attr, originals[id(value)][1], "attr")
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, tuple) and any(id(x) in originals for x in v):
                            swapped = tuple(originals[id(x)][1] if id(x) in originals else x
                                            for x in v)
                            self._set(value, k, swapped, "item")
                        elif id(v) in originals and v is originals[id(v)][0]:
                            self._set(value, k, originals[id(v)][1], "item")
        for (mod, cls_name, meth), layer in METHOD_LAYERS.items():
            cls = getattr(sys.modules[f"bowtie.{mod}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._method_wrapper(layer, raw.__func__))
            else:
                wrapped = self._method_wrapper(layer, raw)
            self._set(cls, meth, wrapped, "attr")
        instance_cls = sys.modules["bowtie.theorems"].Instance
        for meth, cache_attr in MEMO_CACHES.items():
            current = instance_cls.__dict__[meth]
            self._set(instance_cls, meth, self._memo_wrapper(current, cache_attr), "attr")

    def uninstall(self) -> None:
        while self._undo:
            container, key, old, kind = self._undo.pop()
            if kind == "item":
                container[key] = old
            else:
                setattr(container, key, old)

    def unwrapped_references(self) -> list[str]:
        """Bindings of a traced function still reachable unwrapped (want none)."""
        targets = {}
        for (mod, name) in FUNCTION_LAYERS:
            fn = getattr(sys.modules[f"bowtie.{mod}"], name)
            targets[id(getattr(fn, "__wrapped__", fn))] = f"{mod}.{name}"
        missed = []
        for module in _bowtie_modules():
            for attr, value in vars(module).items():
                if id(value) in targets:
                    missed.append(f"{module.__name__}.{attr}")
                elif isinstance(value, dict):
                    for k, v in value.items():
                        items = v if isinstance(v, tuple) else (v,)
                        if any(id(x) in targets for x in items):
                            missed.append(f"{module.__name__}.{attr}[{k!r}]")
        return missed


def bowtie_snapshot() -> dict:
    """Identity of every binding install() may replace, to check uninstall()."""
    snap = {}
    for module in _bowtie_modules():
        for attr, value in vars(module).items():
            snap[(module.__name__, attr)] = id(value)
            if isinstance(value, dict):
                snap.update(((module.__name__, attr, k), id(v)) for k, v in value.items())
            elif isinstance(value, type):
                snap.update(((module.__name__, attr, "class", k), id(v))
                            for k, v in vars(value).items())
    return snap
