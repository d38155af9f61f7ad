"""Outside-in tracer for kmfactor: spans around public callables.

:meth:`Tracer.install` replaces every public function of every loaded
``kmfactor`` module, in each module namespace that holds it, and the public
and arithmetic methods of ``Series`` and ``FoldContext``, with wrappers that
record spans ``[name, start, end, parent, raised]`` in memory.  Calls
made while the tracer is paused (set-up, output checks) run unrecorded.  ``name`` is
``<module>.<function>``; ``parent`` is the index of the enclosing span, or
-1.  A call made inside a span of the same name records nothing, so
``Series.__sub__``, which adds, counts once as ``series.add``.

The per-term exponent helpers ``degree``, ``support`` and ``term_order`` are
left alone: they run once per series term inside the peel loop, so a span
around them would measure the tracer rather than a layer.

Counts depend only on the calls made, so they repeat exactly across traced
runs of one job list.  Nothing here changes what the program computes.
"""

from __future__ import annotations

import sys
import time

_PER_TERM_HELPERS = {"degree", "support", "term_order"}

# Series methods and the layer name each is recorded under.
_SERIES_METHODS = {
    "__add__": "add", "__sub__": "add", "__neg__": "neg",
    "__mul__": "mul", "__rmul__": "mul", "scale": "scale",
    "log1": "log1", "invert": "invert", "fold": "fold",
}
_FOLD_CONTEXT_METHODS = ("lift_data", "lean_lifts", "fold_series",
                         "fold_log_numerator", "marker_exponent",
                         "check_symmetric", "symmetric_index")


def _count(extra: dict, key: str, value) -> None:
    extra[key] = extra.get(key, 0) + value


def _arguments(args) -> tuple:
    """Hashable form of a call's positional arguments."""
    return tuple(tuple(a) if isinstance(a, list) else a for a in args)


def _layer_stats(name: str, args, result, extra: dict) -> None:
    """Operation counts of one finished call, taken from its operands."""
    if name in ("series.log1", "series.fold"):
        _count(extra, "terms_in", len(args[0]))
        _count(extra, "terms_out", len(result))
    elif name in ("series.invert", "weyl.normalized_numerator"):
        _count(extra, "terms_out", len(result))
    elif name == "series.mul" and type(args[1]) is type(args[0]):
        # computed from the operand sizes, not counted inside the kernel
        _count(extra, "pairs", len(args[0]) * len(args[1]))
        _count(extra, "terms_out", len(result))
    elif name in ("factorizer.peel_log_sum", "factorizer.peel_folded"):
        _count(extra, "factors", len(result.factors))


class Tracer:
    """Spans and per-layer extras of one process; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.extra: dict[str, dict[str, float]] = {}
        self.paused = True
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._seen: dict[str, set] = {"numerators.log_numerator": set(),
                                      "folding.lift_data": set()}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        open_names = self._open
        perf = time.perf_counter
        seen = self._seen.get(name)
        extra = self.extra.setdefault(name, {})

        def traced(*args, **kwargs):
            if tracer.paused or name in open_names:
                if seen is not None:
                    seen.add(_arguments(args))
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, perf(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            open_names.add(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = perf()
                stack.pop()
                open_names.discard(name)
            if seen is not None:
                key = _arguments(args)
                if key in seen:
                    _count(extra, "repeats", 1)
                    _count(extra, "repeat_s", span[2] - span[1])
                else:
                    seen.add(key)
            _layer_stats(name, args, result, extra)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap the layers of every loaded kmfactor module; see the module doc."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "kmfactor" or key.startswith("kmfactor."))]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or attr in _PER_TERM_HELPERS:
                    continue
                if isinstance(value, type) or not callable(value):
                    continue
                origin = getattr(value, "__module__", "") or ""
                if not origin.startswith("kmfactor."):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    layer = f"{origin.rsplit('.', 1)[1]}.{value.__name__}"
                    wrapper = wrappers[id(value)] = self._wrap(layer, value)
                setattr(module, attr, wrapper)
        series = sys.modules["kmfactor.series"].Series
        for attr, layer in _SERIES_METHODS.items():
            self._patch_method(series, attr, f"series.{layer}")
        fold_context = sys.modules["kmfactor.folding"].FoldContext
        for attr in _FOLD_CONTEXT_METHODS:
            self._patch_method(fold_context, attr, f"folding.{attr}")

    def _patch_method(self, cls, attr: str, name: str) -> None:
        setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-layer ``calls``, inclusive ``s``, ``self_s`` and extras.

        ``self_s`` is a span's duration minus the durations of its direct
        children.  ``refusals`` counts outermost factorizer spans that ended
        in an exception.
        """
        spans = self.spans
        out: dict[str, dict[str, float]] = {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        refusals = 0
        for index, (name, start, end, parent, raised) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[index]
            if (raised is not None and name.startswith("factorizer.")
                    and (parent < 0 or not spans[parent][0].startswith("factorizer."))):
                refusals += 1
        for name, extra in self.extra.items():
            if extra:
                out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0}).update(extra)
        out["factorizer.refusals"] = {"count": refusals}
        return out


def merge(total: dict, part: dict) -> None:
    """Add one summary into another, key by key."""
    for name, row in part.items():
        acc = total.setdefault(name, {})
        for key, value in row.items():
            acc[key] = acc.get(key, 0) + value
