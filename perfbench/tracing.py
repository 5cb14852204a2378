"""Span tracer for the benchmark's traced run.

The tracer replaces chosen functions and methods of the `localsim`
modules with timing wrappers, from outside the package: every module
attribute that is bound to a traced function (including re-exports such as
`localsim.compose` and `localsim.zipper.compose`) is patched, and methods
are patched on their class.  `uninstall` puts every original back.

Each call becomes a span (name, start, end, parent span, operation id).
Self time is the span's duration minus the time covered by its child
spans, accumulated online, so the per-function totals stay exact even
when the stored span list hits its cap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable

# (module, attribute path) of every traced callable: the layer table
TARGETS: tuple[tuple[str, str], ...] = (
    ("words", "Alphabet.parse_word"),
    ("words", "Alphabet.parse_point"),
    ("words", "Point.prefix"),
    ("words", "PrefixCode.proper_prefixes"),
    ("structure", "germ_apply"),
    ("structure", "parse_automaton"),
    ("structure", "SelfSimilarGroup.validate"),
    ("elements", "compose"),
    ("elements", "invert"),
    ("elements", "apply"),
    ("elements", "parse_element"),
    ("elements", "format_element"),
    ("elements", "is_in_F"),
    ("elements", "is_in_T"),
    ("elements", "CanonicalElement.packed"),
    ("zipper", "symdiff"),
    ("zipper", "zipper_length"),
    ("zipper", "act_on_eclass"),
    ("zipper", "gz_member"),
    ("zipper", "cocycle_identity_defect"),
    ("zipper", "wall_separation"),
    ("zipper", "properness_audit"),
    ("walls", "walls_to_zipper"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in TARGETS)

# calls of the first span counted only while the second is open
AUDIT_COMPOSE = ("elements.compose", "zipper.properness_audit")
PREFIX_IN_APPLY = ("words.Point.prefix", "elements.apply")
NESTED = (AUDIT_COMPOSE, PREFIX_IN_APPLY)

# counters fed from a traced call's result
RESULT_COUNTS: dict[str, tuple[str, Callable]] = {
    "elements.compose": ("elements.compose.rows_out", lambda g: len(g.rows)),
    "zipper.symdiff": ("zipper.symdiff.classes", len),
}

PACKAGE = "localsim"

# spans kept in memory and written at the end; later ones are only counted
SPAN_CAP = 200_000


def _package_modules() -> list:
    return [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]


class Tracer:
    """Collects spans and per-function totals while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.nested: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = clock()

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        clock = self.clock
        stack = self._stack
        open_ = self._open
        ancestors = [(child, anc) for child, anc in NESTED if child == name]
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            for key in ancestors:
                if open_[key[1]]:
                    self.nested[key] += 1
            frame = [0.0, span_id]
            stack.append(frame)
            open_[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = clock()
                open_[name] -= 1
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (span_id, name, start - self._t0, end - self._t0,
                         -1 if parent is None else parent[1], self.op)
                    )
                else:
                    self.dropped += 1
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced callable in every loaded `localsim` module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        try:
            for mod_name, path in TARGETS:
                module = sys.modules[f"{PACKAGE}.{mod_name}"]
                name = f"{mod_name}.{path}"
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, self._wrapper(name, original))
                    continue
                original = getattr(module, path)
                wrapper = self._wrapper(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, blocks: int) -> dict[str, tuple[float, str]]:
        """Calls, self seconds and errors of every traced function, per block."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / blocks, "count/block")
            out[f"{name}.self_s"] = (self.self_s[name] / blocks, "s/block")
            out[f"{name}.errors"] = (self.errors[name] / blocks, "count/block")
        return out

    def write_spans(self, path) -> None:
        """One JSON list per line: id, name, start_s, end_s, parent id, op id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
