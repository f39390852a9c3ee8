"""Spans and work counts around primeseq's public functions, recorded from outside.

The tracer replaces every public function of each layer module with a
wrapper, under every name the package binds it to: ``cli``, ``reproduce``
and ``adversary`` import functions with ``from .x import f``, so wrapping only
the defining module would leave their nested calls unseen. Spans stay in
memory until the run ends; a layer's self time is its span time minus the
time of the spans it directly contains.
"""
from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("primes", "sequences", "analysis", "adversary", "reproduce", "cli")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Work counts recorded at span boundaries: (span name, count name, (args, kwargs, result) -> increment).
COUNTERS = (
    ("analysis.autocorrelation", "analysis.autocorrelation.bit_pairs", lambda a, kw, r: r.n * r.n),
    ("primes.sieve_primes", "primes.sieve_primes.positions", lambda a, kw, r: r.limit + 1),
    ("sequences.binary_primes_sequence", "sequences.binary_primes_sequence.bits", lambda a, kw, r: r.length),
    ("sequences.d_sequence", "sequences.d_sequence.bits", lambda a, kw, r: r.length),
    ("sequences.harden", "sequences.harden.bits", lambda a, kw, r: r.length),
    ("sequences.format_sequence", "sequences.format_sequence.bits",
     lambda a, kw, r: _arg(a, kw, 0, "seq").length),
    ("sequences.parse_sequence", "sequences.parse_sequence.bits", lambda a, kw, r: r.length),
    ("sequences.select_shifts", "sequences.select_shifts.bits", lambda a, kw, r: _arg(a, kw, 0, "n")),
    ("adversary.brute_force_attack", "adversary.hypotheses_tested", lambda a, kw, r: r.hypotheses_tested),
    ("adversary.brute_force_attack", "adversary.consistent_hypotheses",
     lambda a, kw, r: len(r.consistent_hypotheses)),
    ("cli.main", "cli.main.nonzero", lambda a, kw, r: int(r != 0)),
)
# Spans whose time is also reported per argument, e.g. reproduce.run_target.fig6.s.
TAGS = {"reproduce.run_target": lambda a, kw: _arg(a, kw, 0, "target").id}


class Tracer:
    """Span-recording wrappers for the imported primeseq package, switched on and off."""

    def __init__(self, package: str = "primeseq") -> None:
        # one span: [name, start, end, parent span index or None, operation id, tag]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self.wrapped: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                self.wrapped.append(f"{layer}.{attr}")
                self._patches += [(m, bound, fn, wrapper) for m in modules
                                  for bound, value in vars(m).items() if value is fn]

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counters = [(key, count) for span, key, count in COUNTERS if span == name]
        tagger = TAGS.get(name)

        def wrapper(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, tag]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            for key, count in counters:
                counts[key] += count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, bound, fn, wrapper in self._patches:
            setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for module, bound, fn, wrapper in self._patches:
            setattr(module, bound, fn)

    def metric_names(self, target_ids) -> set[str]:
        """Every per-layer metric name this tracer can report."""
        names = {f"{w}.{k}" for w in self.wrapped for k in ("calls", "self_s")}
        names |= {key for span, key, count in COUNTERS}
        names |= {f"reproduce.run_target.{t}.s" for t in target_ids}
        return names | {"adversary.match_ratio", "cli.main.failed"}

    def metrics(self) -> dict[str, float]:
        """Calls, self time, tagged time and counts per span name, plus derived ratios."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, tag in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, op, tag) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[i]
            if tag is not None:
                out[f"{name}.{tag}.s"] += end - start
        out.update(self.counts)
        out["cli.main.failed"] = self.counts["cli.main.nonzero"] + self.counts["cli.main.raised"]
        tested = self.counts["adversary.hypotheses_tested"]
        out["adversary.match_ratio"] = self.counts["adversary.consistent_hypotheses"] / tested if tested else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "tag": tag}) + "\n")
