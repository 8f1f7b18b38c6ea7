"""Span tracer that times svcl's layers from outside the package.

`Tracer.install()` replaces each public name in TARGETS, in every loaded
svcl module that holds it (and on the class, for methods), by a wrapper
that records one span per call: name, start, end, parent span and unit
id.  Spans live in flat arrays in memory and are written out by `save()`.
Private helpers are never wrapped, so their time falls into the self time
of the public caller, and the layer names stay stable when code moves
between helpers.  `uninstall()` restores every original object.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute path); a dotted path names a method
TARGETS = (
    ("spectral.synthesize", "svcl.spectral", "synthesize"),
    ("spectral.analyze", "svcl.spectral", "analyze"),
    ("flux.flux_value", "svcl.flux", "flux_value"),
    ("noise.ou_increment", "svcl.noise", "NoisePath.ou_increment"),
    ("integrator.advance", "svcl.integrator", "Stepper.advance"),
    ("integrator.run_single", "svcl.integrator", "run_single"),
    ("integrator.run_coupled", "svcl.integrator", "run_coupled"),
    ("integrator.write_snapshot", "svcl.integrator", "write_snapshot"),
    ("integrator.read_snapshot", "svcl.integrator", "read_snapshot"),
    ("observables.append", "svcl.observables", "RecordBuffer.append"),
    ("observables.write_csv", "svcl.observables", "RecordBuffer.write_csv"),
    ("observables.read_csv_columns", "svcl.observables", "read_csv_columns"),
    ("ergodic.ergodic_average", "svcl.ergodic", "ergodic_average"),
    ("ergodic.confluence_experiment", "svcl.ergodic", "confluence_experiment"),
    ("config.parse_config", "svcl.config", "parse_config"),
    ("cli.entry", "svcl.cli", "entry"),
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _synth_work(args, kwargs):
    coeffs, n = _arg(args, kwargs, 0, "coeffs"), int(_arg(args, kwargs, 1, "n"))
    return n, 8 * (len(coeffs) + n)


def _analyze_work(args, kwargs):
    samples = _arg(args, kwargs, 0, "samples")
    m_max = int(_arg(args, kwargs, 1, "m_max"))
    return len(samples), 8 * (len(samples) + m_max)


# spans whose calls also add (grid points, bytes) to the unit's counters;
# bytes are computed as the sizes of the float64 input and output arrays
_WORK = {"spectral.synthesize": _synth_work, "spectral.analyze": _analyze_work}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.unit = array("i")
        self.unit_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # unit id -> {counter: total}; filled by the spectral and CSV hooks
        self.counters: dict[int, dict[str, int]] = {}

    def _nid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.unit_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name, fn):
        """A stand-in for fn that records one span per call.

        Built per unit, so the unit id and its counters are closure
        constants and the hot path makes no attribute lookups.
        """
        nid, unit = self._nid(name), self.unit_id
        name_ids, parents, units = self.name_id, self.parent, self.unit
        start, end, stack = self.start, self.end, self._stack
        counters = self.counters.setdefault(unit, {})
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            units.append(unit)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        work = _WORK.get(name)
        if work is not None:
            def counted(*args, **kwargs):
                points, nbytes = work(args, kwargs)
                counters["spectral.points"] = counters.get("spectral.points", 0) + points
                counters["spectral.bytes_computed"] = (
                    counters.get("spectral.bytes_computed", 0) + nbytes)
                return traced(*args, **kwargs)
            outer = counted
        elif name == "observables.write_csv":
            def measured(buf, fp, *args, **kwargs):
                pos = fp.tell()
                try:
                    return traced(buf, fp, *args, **kwargs)
                finally:
                    counters["observables.csv_bytes"] = (
                        counters.get("observables.csv_bytes", 0) + fp.tell() - pos)
            outer = measured
        else:
            outer = traced
        return functools.update_wrapper(outer, fn)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(self._nid(name))
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.start[idx] = t0
            self._stack.pop()

    def install(self, unit_id: int) -> None:
        """Patch every target; spans recorded until uninstall() carry unit_id."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.unit_id = unit_id
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "svcl" or k.startswith("svcl."))]
        for name, modname, attr in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # --- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "unit": np.frombuffer(self.unit, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summarize(self):
        """Per span name: {unit id: (calls, inclusive ns, self ns)}.

        Self time is a span's duration minus the durations of its direct
        children, which are the spans whose parent it is.
        """
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, dict[int, tuple[int, int, int]]] = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            per_unit = {}
            for u in np.unique(a["unit"][sel]):
                s = sel & (a["unit"] == u)
                per_unit[int(u)] = (int(s.sum()), int(dur[s].sum()), int(own[s].sum()))
            out[name] = per_unit
        return out

