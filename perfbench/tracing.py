"""Per-layer tracing for the benchmark, done entirely from outside the package.

A Tracer wraps the public functions of each ``ordua`` layer listed in STAGES,
in every ``ordua.*`` namespace that binds them (``dualities``, ``free`` and
``cli`` import by name, so patching the defining module alone would miss
their calls). Each call records a span (stage, start, end, parent span, item
id) in memory; ``rollup`` turns spans into self time per stage, where self
time is a span's duration minus the time of its direct child spans. Hot
helpers such as ``bits`` and ``popcount`` are deliberately not wrapped.

Run as a script, this file is the bootstrap for a traced CLI child:

    python3 perfbench/tracing.py SPANS_OUT <ordua cli arguments...>

It installs the tracer, runs ``ordua.cli`` as ``__main__`` and writes the
spans and counters to SPANS_OUT as JSON, keeping the child's stdout and exit
code unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("structures", "spaces", "dualities", "free", "corpus")

# stage -> targets; a target is (module, attribute) for a function,
# (module, "Class.__init__") for a constructor, (module, "Class.prop") for a
# property.
STAGES = {
    "structures.validate": [("structures", "validate_poset"),
                            ("structures", "Poset.__init__")],
    "structures.classify": [("structures", "classify")],
    "structures.points": [("structures", "filters"), ("structures", "prime_filters"),
                          ("structures", "disjunctive_filters")],
    "structures.iso": [("structures", "order_isomorphism"),
                       ("structures", "structure_isomorphism"),
                       ("structures", "canonical_form")],
    "spaces.topology": [("spaces", "generate_topology"), ("spaces", "patch_space"),
                        ("spaces", "alexandrov_space"), ("spaces", "FiniteSpace.__init__")],
    "spaces.checks": [("spaces", "priestley_check"),
                      ("spaces", "check_patch_characterization"),
                      ("spaces", "check_frame_pullback")],
    "dualities.spectrum": [("dualities", "spectrum_for"), ("dualities", "poset_spectrum"),
                           ("dualities", "msl_spectrum"), ("dualities", "ddlat_spectrum"),
                           ("dualities", "priestley_of_dlat"),
                           ("dualities", "stone_spectrum")],
    "dualities.back": [("dualities", "dlat_of_priestley"), ("dualities", "roundtrip_check"),
                       ("dualities", "extended_image_check")],
    "free.boolean": [("free", "free_boolean"), ("free", "FreeResult.structure")],
    "free.lattice": [("free", "free_dlat_on_msl"), ("free", "free_dlat_on_ddlat"),
                     ("free", "free_frame_on_poset")],
    "free.universal": [("free", "universal_property_check")],
    "free.oracle": [("free", "thm22_oracle")],
    "free.recognize": [("free", "recognize_free_boolean")],
    "corpus.enumerate": [("corpus", "all_posets"), ("corpus", "all_preorders")],
}

# Work counters: (stage, target attribute) -> (counter name, count(args, result)).
COUNTERS = {
    ("structures.classify", "classify"): ("cells", lambda a, r: 2 * a[0].n * a[0].n),
    ("structures.points", "filters"): ("out", lambda a, r: len(r)),
    ("structures.points", "prime_filters"): ("out", lambda a, r: len(r)),
    ("structures.points", "disjunctive_filters"): ("out", lambda a, r: len(r)),
    ("spaces.topology", "FiniteSpace.__init__"): ("opens", lambda a, r: len(a[0].opens)),
    ("free.lattice", "free_dlat_on_msl"): ("elements", lambda a, r: r.size),
    ("free.lattice", "free_dlat_on_ddlat"): ("elements", lambda a, r: r.size),
    ("free.lattice", "free_frame_on_poset"): ("elements", lambda a, r: r.size),
    ("free.oracle", "thm22_oracle"): ("members", lambda a, r: len(r.family)),
    ("corpus.enumerate", "all_posets"): ("out", lambda a, r: len(r)),
    ("corpus.enumerate", "all_preorders"): ("out", lambda a, r: len(r)),
}


def counter_names() -> list[str]:
    return sorted({f"{stage}.{name}" for (stage, _), (name, _) in COUNTERS.items()})


class Tracer:
    """Installs span-recording wrappers around the STAGES targets."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.item = None
        self._current = -1
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, stage: str, counter):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current
            idx = len(spans)
            spans.append(None)
            self._current = idx
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._current = parent
                spans[idx] = (stage, t0, t1, parent, self.item)
            if counter is not None:
                name, count = counter
                self.counts[f"{stage}.{name}"] += count(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; the layer modules must be importable."""
        if self._undo:
            return
        mods = {m: importlib.import_module(f"ordua.{m}") for m in LAYER_MODULES}
        for stage, targets in STAGES.items():
            for module, attr in targets:
                counter = COUNTERS.get((stage, attr))
                if "." in attr:
                    cls_name, member = attr.split(".")
                    cls = getattr(mods[module], cls_name)
                    orig = cls.__dict__[member]
                    if isinstance(orig, property):
                        new = property(self._wrap(orig.fget, stage, counter))
                    else:
                        new = self._wrap(orig, stage, counter)
                    setattr(cls, member, new)
                    self._undo.append((cls, member, orig))
                    continue
                orig = getattr(mods[module], attr)
                wrapper = self._wrap(orig, stage, counter)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name != "ordua" and not name.startswith("ordua."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def take(self) -> tuple[list, dict[str, int]]:
        """Return and reset the spans and counters recorded so far."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def rollup(spans) -> dict[str, dict[str, float]]:
    """Self time and call count per stage."""
    child_time = [0.0] * len(spans)
    for stage, t0, t1, parent, _item in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, dict[str, float]] = {}
    for k, (stage, t0, t1, _parent, _item) in enumerate(spans):
        entry = out.setdefault(stage, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (t1 - t0) - child_time[k]
        entry["calls"] += 1
    return out


def _child_main(argv: list[str]) -> None:
    out_path, cli_args = argv[0], argv[1:]
    import runpy

    tracer = Tracer()
    tracer.install()
    sys.argv = ["ordua", *cli_args]
    try:
        runpy.run_module("ordua.cli", run_name="__main__", alter_sys=True)
    finally:
        spans, counts = tracer.take()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)


if __name__ == "__main__":
    _child_main(sys.argv[1:])
