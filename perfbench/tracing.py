"""Spans and allocation peaks around nvbath's public functions.

The benchmark installs these wrappers from outside the package, in the
traced run only: every module attribute (in nvbath and its submodules) that
refers to a wrapped function is replaced for the duration of one traced
iteration and restored afterwards. Span names are <module>.<stage>.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import tracemalloc

# (module, attribute, span name or a function of the call's arguments)
FUNCTIONS = (
    ("nvbath.lattice", "generate_lattice", "lattice.generate"),
    ("nvbath.lattice", "classify_shells", "lattice.classify"),
    ("nvbath.lattice", "sample_bath", "lattice.sample"),
    ("nvbath.lattice", "shell_summary", "lattice.summary"),
    ("nvbath.lattice", "positions_of", "lattice.positions"),
    ("nvbath.linewidth", "dipolar_second_moment_sum", "linewidth.sum"),
    ("nvbath.linewidth", "linewidth_curve", "linewidth.curve"),
    ("nvbath._kernels", "second_moment_sum", "kernels.second_moment_sum"),
    ("nvbath._kernels", "gaussian_mixture", "kernels.gaussian_mixture"),
    ("nvbath._kernels", "phase_envelope", "kernels.phase_envelope"),
    ("nvbath.spinsys", "build_hamiltonian", "spinsys.hamiltonian"),
    ("nvbath.spinsys", "diagonalize", "spinsys.diagonalize"),
    ("nvbath.spinsys", "esr_transitions", "spinsys.transitions"),
    ("nvbath.spinsys", "synth_spectrum", "spinsys.synth"),
    ("nvbath.pulses", "pulse_unitary",
     lambda args, kwargs: "pulses.unitary_ideal"
     if _arg(args, kwargs, 1, "pulse").duration_us is None
     else "pulses.unitary_finite"),
    ("nvbath.pulses", "free_unitary", "pulses.free"),
    ("nvbath.pulses", "run_sequence", "pulses.sequence"),
    ("nvbath.pulses", "parse_sequence", "pulses.parse"),
    ("nvbath.pulses", "rabi_simulate", "pulses.rabi"),
    ("nvbath.pulses", "bell_prepare_and_fidelity", "pulses.bell"),
    ("nvbath.pulses", "bell_dephasing_fidelity", "pulses.bell_dephasing"),
    ("nvbath.pulses", "endor_transfer", "pulses.endor"),
    ("nvbath.decoherence", "pair_couplings", "decoherence.couplings"),
    ("nvbath.decoherence", "simulate_bath_fid", "decoherence.draw"),
    ("nvbath.decoherence", "fit_decay", "decoherence.fit"),
    ("nvbath.decoherence", "fit_envelope_rate", "decoherence.rate"),
    ("nvbath.decoherence", "bell_t2star_from_sq", "decoherence.bell_rules"),
    ("nvbath.cli", "main", "cli.main"),
)
# (module, class, method, span name); Register.__init__ is the labelling
METHODS = (
    ("nvbath.pulses", "Register", "__init__", "pulses.labels"),
    ("nvbath.pulses", "RegisterState", "__init__", "pulses.state"),
    ("nvbath.pulses", "RegisterState", "evolved", "pulses.apply"),
)
# problem sizes recorded at the same boundaries: span -> (args, kwargs,
# result) -> {counter: value}
COUNTERS = {
    "lattice.generate": lambda a, k, r: {"lattice.sites": len(r)},
    "spinsys.synth": lambda a, k, r: {
        "spinsys.synth.line_points":
            len(_arg(a, k, 0, "lines")) * len(r.freq_mhz)},
    "decoherence.draw": lambda a, k, r: {
        "decoherence.samples_x_sites":
            _bound(a, k)["n_samples"] * len(_arg(a, k, 0, "couplings"))},
    "decoherence.fit": lambda a, k, r: {"decoherence.fit.iters": r.n_iter},
}
# allocation peaks are taken in a separate pass, around these spans only
PEAK_SPANS = ("lattice.generate", "spinsys.synth", "decoherence.draw")

ROOT = "bench.iteration"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _bound(args, kwargs):
    from nvbath import decoherence
    b = inspect.signature(decoherence.simulate_bath_fid).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _targets():
    """(owner, attribute, original, span name) for every wrapped callable."""
    for mod, attr, name in FUNCTIONS:
        yield sys.modules[mod], attr, getattr(sys.modules[mod], attr), name
    for mod, cls, meth, name in METHODS:
        owner = getattr(sys.modules[mod], cls)
        yield owner, meth, owner.__dict__[meth], name


class Patches:
    """Replaces callables by wrappers everywhere nvbath refers to them."""

    def __init__(self, make_wrapper):
        self._make = make_wrapper
        self._undo = []

    def install(self):
        packages = [m for n, m in list(sys.modules.items())
                    if n == "nvbath" or n.startswith("nvbath.")]
        for owner, attr, orig, name in _targets():
            wrapper = self._make(orig, name)
            if isinstance(owner, type):
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in packages:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


class Tracer:
    """In-memory spans [name, start, end, parent index, iteration].

    Spans opened on a worker thread with nothing open on that thread take
    the main thread's innermost open span as parent (the caller that
    started the pool).
    """

    def __init__(self):
        self.spans = []
        self.counts = []          # (iteration, counter, value)
        self.iteration = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self.patches = Patches(self._wrap)

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else \
            (self._main[-1] if self._main else None)
        rec = [name, time.perf_counter(), None, parent, self.iteration]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name):
        namer = name if callable(name) else (lambda a, k: name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = namer(args, kwargs)
            rec = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            count = COUNTERS.get(span)
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    tracer.counts.append((tracer.iteration, key, val))
            return result
        return wrapper

    def begin(self, iteration):
        self.iteration = iteration
        self.patches.install()
        self._root = self._open(ROOT)

    def end(self):
        self._close(self._root)
        self.patches.uninstall()
        self.iteration = None
        return self._root[2] - self._root[1]

    def self_times(self):
        """{iteration: {span name: summed self time}}: a span's duration
        minus the union of its children's intervals."""
        children = {}
        for idx, (_, _, _, parent, _) in enumerate(self.spans):
            children.setdefault(parent, []).append(idx)
        out = {}
        for idx, (name, start, end, _, it) in enumerate(self.spans):
            covered, reach = 0.0, start
            for s, e in sorted((self.spans[c][1], self.spans[c][2])
                               for c in children.get(idx, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            per = out.setdefault(it, {})
            per[name] = per.get(name, 0.0) + (end - start - covered)
        return out

    def call_counts(self):
        """{iteration: {counter: value}} with '<span>.calls' for every span."""
        out = {}
        for name, _, _, _, it in self.spans:
            per = out.setdefault(it, {})
            per[name + ".calls"] = per.get(name + ".calls", 0) + 1
        for it, key, val in self.counts:
            per = out.setdefault(it, {})
            per[key] = per.get(key, 0) + val
        return out


class PeakMemory:
    """Peak allocation (MB) inside each call of a PEAK_SPANS function,
    maximized over calls. tracemalloc runs only during those calls, so the
    code around them keeps its speed."""

    def __init__(self):
        self.peaks = {}
        self.patches = Patches(self._wrap)

    def _wrap(self, fn, name):
        if name not in PEAK_SPANS:
            return fn
        peaks = self.peaks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0.0), mb)
        return wrapper
