"""Per-layer call counts and busy times, taken by wrapping constalg's functions.

Nothing inside `constalg` changes: `Tracer.install` replaces each traced
function by a wrapper in every `constalg` module namespace that binds it
(modules import names such as `dill_key` or `leading_term` directly, so
patching only the defining module would miss those calls), and each traced
method on its class.  `uninstall` puts every original back.

Statistics are plain floats keyed `<module>.<function>.<stat>`:

* `calls`  - number of calls;
* `s`      - inclusive busy time, counted once for recursive calls;
* `self_s` - inclusive time minus the time of traced calls made inside it.

Some targets also record a counter from their arguments or result (for
example the number of columns handed to `linalg.nullspace`).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "constalg"

# (module, attribute, stat prefix): module-level functions timed per call.
TIMED_FUNCTIONS = (
    ("orders", "dill_key", "orders.dill_key"),
    ("groebner", "verify_groebner", "groebner.verify_groebner"),
    ("groebner", "reduce", "groebner.reduce"),
    ("groebner", "s_polynomial", "groebner.s_polynomial"),
    ("groebner", "verify_lead_conformance", "groebner.verify_lead_conformance"),
    ("groebner", "verify_reduced", "groebner.verify_reduced"),
    ("poly", "leading_term", "poly.leading_term"),
    ("poly", "parse_poly", "poly.parse_poly"),
    ("poly", "format_poly", "poly.format_poly"),
    ("presentation", "build_relations", "presentation.build_relations"),
    ("presentation", "build_generators", "presentation.build_generators"),
    ("presentation", "pi_image_of_monomial", "presentation.pi_image_of_monomial"),
    ("normal_words", "enumerate_normal_words", "normal_words.enumerate_normal_words"),
    ("normal_words", "image_degree", "normal_words.image_degree"),
    ("normal_words", "is_normal_word", "normal_words.is_normal_word"),
    ("normal_words", "rewrite_constant", "normal_words.rewrite_constant"),
    ("normal_words", "recover_word_from_lead", "normal_words.recover_word_from_lead"),
    ("normal_words", "kernel_dim_oracle", "normal_words.kernel_dim_oracle"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("derivation", "apply_delta", "derivation.apply_delta"),
    ("derivation", "is_constant", "derivation.is_constant"),
    ("derivation", "load_instance", "derivation.load_instance"),
    ("cli", "run", "cli.run"),
)

# (module, class, method, stat prefix): methods timed per call.  __add__ and
# __sub__ share one prefix, so their time is reported together.
TIMED_METHODS = (
    ("poly", "Polynomial", "__mul__", "poly.Polynomial.mul"),
    ("poly", "Polynomial", "__add__", "poly.Polynomial.add"),
    ("poly", "Polynomial", "__sub__", "poly.Polynomial.add"),
)

# Methods that are only counted: they run millions of times, and a timer
# around each would cost more than the work it measures.
COUNTED_METHODS = (
    ("poly", "PMonomial", "mul", "poly.PMonomial.ops"),
    ("poly", "PMonomial", "div", "poly.PMonomial.ops"),
    ("poly", "PMonomial", "divides", "poly.PMonomial.ops"),
    ("poly", "PMonomial", "lcm", "poly.PMonomial.ops"),
    ("presentation", "GeneratorTable", "u_power", "presentation.u_power"),
)


class Tracer:
    """Collects statistics while installed; see the module docstring."""

    def __init__(self):
        self.stats: defaultdict = defaultdict(float)
        self.distinct_keyed: set = set()
        self._children = [0.0]  # traced time spent inside the current frame
        self._active: defaultdict = defaultdict(int)
        self._restore: list = []

    # -- hooks recording a counter from arguments or result -------------------

    def _before(self, prefix: str, args) -> None:
        if prefix == "orders.dill_key":
            self.distinct_keyed.add(args[0])
        elif prefix == "groebner.reduce":
            self.stats["groebner.reduce.terms_in"] += len(args[0].terms)
        elif prefix == "linalg.nullspace":
            self.stats["linalg.nullspace.cols"] += args[1]

    def _after(self, prefix: str, result) -> None:
        if prefix == "linalg.nullspace":
            self.stats["linalg.nullspace.free_cols"] += len(result)
        elif prefix == "normal_words.enumerate_normal_words":
            self.stats["normal_words.words_emitted"] += len(result)

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, prefix: str, fn):
        stats, children, active = self.stats, self._children, self._active
        calls, incl, self_key = prefix + ".calls", prefix + ".s", prefix + ".self_s"
        before, after = self._before, self._after

        def wrapper(*args, **kwargs):
            stats[calls] += 1
            before(prefix, args)
            active[prefix] += 1
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                children[-1] += elapsed
                stats[self_key] += elapsed - inner
                active[prefix] -= 1
                if not active[prefix]:
                    stats[incl] += elapsed
            after(prefix, result)
            return result

        return wrapper

    def _counted(self, prefix: str, fn):
        stats, calls = self.stats, prefix + ".calls"
        if prefix == "presentation.u_power":
            hits = prefix + ".hits"

            def wrapper(table, j, k, exponent):
                stats[calls] += 1
                if (j, k, exponent) in table._power_cache:
                    stats[hits] += 1
                return fn(table, j, k, exponent)

        else:

            def wrapper(*args):
                stats[calls] += 1
                return fn(*args)

        return wrapper

    # -- installation -------------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        """Wrap every traced function and method; the package must be imported."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for short, attr, prefix in TIMED_FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{short}"], attr)
            wrapper = self._timed(prefix, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)
        for specs, make in ((TIMED_METHODS, self._timed), (COUNTED_METHODS, self._counted)):
            for short, cls_name, method, prefix in specs:
                cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, make(prefix, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def snapshot(self) -> dict:
        """Current statistics, including the distinct-monomial count."""
        out = dict(self.stats)
        out["orders.dill_key.distinct"] = float(len(self.distinct_keyed))
        return out
