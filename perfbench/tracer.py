"""Outside tracing of the altchar layers.

`Tracer.install()` wraps every public function of every altchar module at
each module attribute that binds it: the defining module, the package, and
every module that imported the name.  Calls between layers therefore pass
through a wrapper, which counts the call and times it.  A layer's self time
is the time of its calls minus the time of the wrapped calls they made.
Calls to a HOT function end there; every other call also leaves a span
(id, parent id, name, start, end, query) in memory, which the benchmark
writes out when the run ends.

Only calls made while `active` is set are traced, so the benchmark's own
output checks stay out of the numbers.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# Called once per multiplicity entry, matrix entry or centralizer element:
# counted and timed, but no span.
HOT = frozenset({
    "partitions.check_partition",
    "partitions.conjugate",
    "partitions.cycle_type_data",
    "partitions.dimension",
    "partitions.factorize",
    "partitions.format_partition",
    "partitions.has_distinct_odd_parts",
    "partitions.is_self_conjugate",
    "partitions.phi",
    "partitions.from_frobenius",
    "partitions.centralizer_order_sn",
    "partitions.sn_class_size",
    "numtheory.divisors",
    "numtheory.ramanujan",
    "numtheory.euler_phi",
    "numtheory.moebius",
    "numtheory.jacobi",
    "numtheory.p_adic_split",
    "numtheory.phase",
    "numtheory.phase_product",
    "numtheory.phase_to_integer",
    "numtheory.sqrt_phase",
    "numtheory.gauss_sum",
    "characters.mn_character",
    "characters.an_character",
    "characters.in_alternating",
    "characters.class_splits",
    "characters.irrep_splits",
    "multiplicity.sn_multiplicity",
    "multiplicity.an_multiplicity",
    "multiplicity.power_cycle_type",
    "multiplicity.order_of_type",
    "multiplicity.bias",
    "perms.cycles",
    "perms.cycle_type",
    "perms.sign",
    "perms.standard_rep",
    "perms.conjugator",
    "perms.check_perm",
    "global_classes.split_class_of",
})

# Groups whose time and results count once per outermost call.
VECTOR_CALLS = frozenset({"multiplicity.sn_multiplicity_vector", "multiplicity.an_multiplicity_vector"})
BIAS_CALLS = frozenset({"multiplicity.bias", "multiplicity.bias_vector"})


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.query: str | None = None
        self.calls: Counter = Counter()  # "layer.name" -> calls
        self.self_s: defaultdict = defaultdict(float)  # layer -> seconds
        self.extra: Counter = Counter()  # derived counts and times
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # per open call: [seconds in wrapped callees, span id]
        self._open: Counter = Counter()  # group -> open calls
        self._next_span = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "altchar" or name.startswith("altchar."))
        ]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(mod, name, wrapped[id(obj)][1])

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        hot = key in HOT
        group = "vector" if key in VECTOR_CALLS else "bias" if key in BIAS_CALLS else None
        stack, calls, self_s, opened = self._stack, self.calls, self.self_s, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[key] += 1
            parent = stack[-1][1] if stack else None
            if hot:
                span = parent
            else:
                span = self._next_span
                self._next_span += 1
            frame = [0.0, span]
            stack.append(frame)
            if group:
                opened[group] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                self_s[layer] += seconds - frame[0]
                if stack:
                    stack[-1][0] += seconds
                if not hot:
                    self.spans.append((span, parent, key, start, start + seconds, self.query))
                if group:
                    opened[group] -= 1
                    if group == "bias" and not opened[group]:
                        self.extra["multiplicity.bias_s"] += seconds
                if key == "cli.main":
                    self.extra["cli.main_s"] += seconds
            if group == "vector" and not opened[group]:
                self.extra["multiplicity.entries"] += len(result.entries)
            elif key == "global_classes.centralizer_elements":
                self.extra["global_classes.centralizer_elements"] += len(result)
            elif key == "global_classes.global_brute_force":
                route = "explicit" if "explicit" in result.method else "distribution"
                self.extra[f"global_classes.{route}_queries"] += 1
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Counts and times so far, as plain JSON data."""
        memo = [0, 0, 0]
        characters = sys.modules.get("altchar.characters")
        mn = getattr(characters, "_mn", None)
        if hasattr(mn, "cache_info"):
            info = mn.cache_info()
            memo = [info.hits, info.misses, info.currsize]
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "extra": dict(self.extra),
            "mn_memo": memo,  # hits, misses, entries of the MN memo
        }


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one round, by name."""
    calls, self_s, extra = summary["calls"], summary["self_s"], summary["extra"]
    hits, misses, entries = summary["mn_memo"]

    def layer_calls(layer: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    out = {
        "partitions.check_calls": calls.get("partitions.check_partition", 0),
        "numtheory.ramanujan_calls": calls.get("numtheory.ramanujan", 0),
        "multiplicity.entries": extra.get("multiplicity.entries", 0),
        "multiplicity.bias_calls": calls.get("multiplicity.bias", 0),
        "multiplicity.bias_s": extra.get("multiplicity.bias_s", 0.0),
        "characters.mn_calls": calls.get("characters.mn_character", 0),
        "characters.mn_evals": misses,
        "characters.mn_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "characters.an_character_calls": calls.get("characters.an_character", 0),
        "characters.mn_cache_entries": entries,
        "global_classes.centralizer_elements": extra.get("global_classes.centralizer_elements", 0),
        "global_classes.explicit_queries": extra.get("global_classes.explicit_queries", 0),
        "global_classes.distribution_queries": extra.get("global_classes.distribution_queries", 0),
        "perms.calls": layer_calls("perms"),
        "classify.calls": layer_calls("classify"),
        "cli.main_s": extra.get("cli.main_s", 0.0),
    }
    for layer in ("partitions", "numtheory", "multiplicity", "characters", "global_classes",
                  "perms", "classify", "cli"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out
