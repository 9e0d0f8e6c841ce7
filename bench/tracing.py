"""In-memory spans and counters around the public entry points of apsim.

The benchmark's traced run installs these wrappers from outside the
package: each entry point is replaced, under every name its callers
resolve, by a wrapper that records a span (name, start, end, parent) or
bumps a counter.  Nothing under ``src/`` knows about it.  Spans stay in
memory and are written out once, when the traced process ends.

A span's self time is its duration minus the part covered by its child
spans and by the leaf samples (pulse evaluations) taken while it was the
innermost open span.  Leaf samples are too many to keep one span each;
they are aggregated into a count and a busy time per name.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

# transport grid points whose durations are reported by name: the slowest
# and the fastest of workloads.TRANSPORT_GRID
SLOW_INV_TAU_PER_MS = 0.2
FAST_INV_TAU_PER_MS = 10.0


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    leaf_s: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Span stack plus aggregated counters; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent=parent, attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def leaf(self, name: str, seconds: float, n: int) -> None:
        """Aggregate n leaf samples that took `seconds` in total."""
        self.counts[name + ".n"] += n
        self.counts[name + ".s"] += seconds
        if self._stack:
            self._stack[-1].leaf_s += seconds

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: duration minus children and leaf samples."""
    covered = {s["id"]: s["leaf_s"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


# --------------------------------------------------------------- wrappers


def _n_points(x) -> int:
    if isinstance(x, float):
        return 1
    import numpy as np

    return int(np.size(x))


def _spanned(tracer, name, fn, attrs=None, on_result=None):
    def wrapper(*args, **kwargs):
        span = tracer.open(name, **(attrs(*args, **kwargs) if attrs else {}))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_result is not None:
            on_result(span, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


class PulseProxy:
    """Forwards every attribute to the pulse; times rabi/detuning samples."""

    def __init__(self, pulse, tracer: Tracer):
        self._pulse = pulse
        self._tracer = tracer
        self.rabi_points = 0

    def __getattr__(self, name):
        return getattr(self._pulse, name)

    def rabi(self, t):
        clock = self._tracer.clock
        t0 = clock()
        out = self._pulse.rabi(t)
        n = _n_points(t)
        self._tracer.leaf("pulses", clock() - t0, n)
        self.rabi_points += n
        return out

    def detuning(self, t):
        clock = self._tracer.clock
        t0 = clock()
        out = self._pulse.detuning(t)
        self._tracer.leaf("pulses", clock() - t0, _n_points(t))
        return out


def _wrap_evolve_offsets(tracer, fn):
    def wrapper(pulse, delta_offsets, *args, **kwargs):
        proxy = PulseProxy(pulse, tracer)
        span = tracer.open("bloch.evolve_offsets", members=_n_points(delta_offsets))
        try:
            return fn(proxy, delta_offsets, *args, **kwargs)
        finally:
            tracer.close(span)
            span.attrs["rabi_points"] = proxy.rabi_points

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_convolve(tracer, fn):
    # convolve builds a callable; the work happens when that is called
    def wrapper(*args, **kwargs):
        broadened = fn(*args, **kwargs)
        return _spanned(
            tracer, "thermal.conv", broadened, lambda d: {"points": _n_points(d)}
        )

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_convolve_on_grid(tracer, fn):
    def attrs(spectrum, delta_c_values, *args, **kwargs):
        return {"points": _n_points(delta_c_values)}

    return _spanned(tracer, "thermal.conv", fn, attrs)


def _wrap_cache_call(tracer, fn):
    import numpy as np

    def wrapper(self, delta_c):
        lo = getattr(self, "lo", -math.inf)
        hi = getattr(self, "hi", math.inf)
        if isinstance(delta_c, float):
            n, oob = 1, int(not lo <= delta_c <= hi)
        else:
            x = np.asarray(delta_c)
            n, oob = int(x.size), int(np.count_nonzero((x < lo) | (x > hi)))
        tracer.count("thermal.cache_calls")
        tracer.count("thermal.cache_evals", n)
        tracer.count("thermal.cache_oob", oob)
        return fn(self, delta_c)

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_cache_init(tracer, fn):
    def wrapper(self, deltas, *args, **kwargs):
        fn(self, deltas, *args, **kwargs)
        tracer.count("thermal.cache_points", _n_points(deltas))

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_fit(tracer, fn):
    def on_result(span, result):
        span.attrs["nfev"] = int(result.n_iterations)
        span.attrs["converged"] = int(bool(result.converged))

    return _spanned(tracer, "fit.fit_spectrum", fn, on_result=on_result)


def _wrap_transport_point(tracer, fn):
    def attrs(plan, *args, **kwargs):
        return {"tau_s": float(plan.tau)}

    return _spanned(tracer, "transport.point", fn, attrs)


def _plain(name):
    return lambda tracer, fn: _spanned(tracer, name, fn)


# (module, attribute path, wrapper factory).  A callable imported by name
# into another module is wrapped there too, since that is the name its
# caller resolves at call time.
TARGETS = [
    ("apsim.cli", "load_config", _plain("config.load")),
    ("apsim.presets", "load_config", _plain("config.load")),
    ("apsim.cli", "broadened_spectrum", _plain("thermal.broadened_spectrum")),
    ("apsim.thermal", "SpectrumCache.from_pulse", _plain("thermal.cache")),
    ("apsim.thermal", "SpectrumCache.__init__", _wrap_cache_init),
    ("apsim.thermal", "SpectrumCache.__call__", _wrap_cache_call),
    ("apsim.thermal", "convolve", _wrap_convolve),
    ("apsim.thermal", "convolve_on_grid", _wrap_convolve_on_grid),
    ("apsim.fit", "convolve_on_grid", _wrap_convolve_on_grid),
    ("apsim.bloch", "evolve_offsets", _wrap_evolve_offsets),
    ("apsim.transport", "evolve_offsets", _wrap_evolve_offsets),
    ("apsim.cli", "fit_spectrum", _wrap_fit),
    ("apsim.cli", "transport_curve", _plain("transport.curve")),
    ("apsim.transport", "transport_transfer", _wrap_transport_point),
    ("apsim.scan", "ScanResult.to_csv", _plain("scan.write")),
    ("apsim.scan", "ScanResult.to_json", _plain("scan.write")),
    ("apsim.scan", "ScanResult.from_csv", _plain("scan.read")),
    ("apsim.fit", "FitResult.to_json", _plain("scan.write")),
]


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target that exists; return (absent names, restore fn).

    A missing module or attribute is reported, not raised, so the traced
    run keeps going when a refactor removes an entry point.
    """
    absent, undo = [], []
    for module_name, path, factory in targets:
        full = f"{module_name}.{path}"
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            static = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            absent.append(full)
            continue
        if isinstance(static, classmethod):
            wrapped = classmethod(factory(tracer, static.__func__))
        else:
            wrapped = factory(tracer, static)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, static))

    def restore():
        for owner, attr, static in reversed(undo):
            setattr(owner, attr, static)

    return absent, restore


# ---------------------------------------------------------------- metrics


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer numbers from one traced invocation (see the README)."""
    spans, counts = trace["spans"], trace["counts"]
    own = self_times(spans)

    def layer(prefix):
        return [s for s in spans if s["name"].startswith(prefix)]

    def total(items, fn):
        return float(sum(fn(s) for s in items))

    def dur(s):
        return s["end"] - s["start"]

    bloch = layer("bloch.")
    member_evals = total(bloch, lambda s: s["attrs"]["members"] * s["attrs"]["rabi_points"])
    bloch_self = total(bloch, lambda s: own[s["id"]])
    points = layer("transport.point")

    def point_s(inv_tau_per_ms):
        tau = 1e-3 / inv_tau_per_ms
        return total(
            [s for s in points if math.isclose(s["attrs"]["tau_s"], tau, rel_tol=1e-9)],
            dur,
        )

    fits = layer("fit.")
    return {
        "pulses.evals": counts.get("pulses.n", 0.0),
        "pulses.busy_s": counts.get("pulses.s", 0.0),
        "bloch.calls": float(len(bloch)),
        "bloch.members": total(bloch, lambda s: s["attrs"]["members"]),
        "bloch.member_evals": member_evals,
        "bloch.busy_s": bloch_self,
        "bloch.ns_per_member_eval": 1e9 * bloch_self / member_evals if member_evals else 0.0,
        "thermal.cache_points": counts.get("thermal.cache_points", 0.0),
        "thermal.cache_s": total(layer("thermal.cache"), dur),
        "thermal.conv_points": total(layer("thermal.conv"), lambda s: s["attrs"]["points"]),
        "thermal.conv_s": total(layer("thermal.conv"), dur),
        "thermal.cache_calls": counts.get("thermal.cache_calls", 0.0),
        "thermal.cache_evals": counts.get("thermal.cache_evals", 0.0),
        "thermal.cache_oob": counts.get("thermal.cache_oob", 0.0),
        "fit.nfev": total(fits, lambda s: s["attrs"].get("nfev", 0)),
        "fit.self_s": total(fits, lambda s: own[s["id"]]),
        "fit.converged": float(bool(fits) and all(s["attrs"].get("converged") for s in fits)),
        "transport.points": float(len(points)),
        "transport.self_s": total(layer("transport."), lambda s: own[s["id"]]),
        "transport.slow_point_s": point_s(SLOW_INV_TAU_PER_MS),
        "transport.fast_point_s": point_s(FAST_INV_TAU_PER_MS),
        "scan.write_s": total(layer("scan.write"), dur),
        "scan.read_s": total(layer("scan.read"), dur),
        "config.load_s": total(layer("config."), dur),
        "cli.self_s": total(layer("cli."), lambda s: own[s["id"]]),
    }


# counters that must repeat exactly between traced runs of one input
WORK_COUNTERS = ("pulses.evals", "bloch.member_evals", "thermal.cache_evals", "fit.nfev")
