"""In-memory spans around the public quditcs functions, for traced runs.

A span is recorded by replacing a module (or class) attribute with a wrapper
while tracing is installed; the untraced run never imports this module.
Spans are plain lists [name, parent, start, end, info] so that they can be
written out as JSON when the traced process is done.
"""

from __future__ import annotations

import inspect
import time

import quditcs.cli
import quditcs.fock
import quditcs.phase_space
import quditcs.qcs
import quditcs.special_fn
import quditcs.tomography

# (owner, attribute) pairs: the public functions quditcs.cli and quditcs.qcs
# call, the grid writers, and the functions the library workload calls.
TARGETS = [
    (quditcs.cli, "main"),
    (quditcs.cli, "_write_json"),
    (quditcs.cli, "nonlinear_qcs"),
    (quditcs.cli, "linear_qcs"),
    (quditcs.cli, "cat_state"),
    (quditcs.cli, "complementary_state"),
    (quditcs.cli, "fidelity"),
    (quditcs.cli, "mixed_fidelity"),
    (quditcs.cli, "photon_distribution"),
    (quditcs.cli, "wigner_grid"),
    (quditcs.cli, "tomogram_grid"),
    (quditcs.cli, "nonclassical_volume"),
    (quditcs.qcs, "nonlinear_qcs"),
    (quditcs.qcs, "linear_qcs"),
    (quditcs.qcs, "cat_state"),
    (quditcs.qcs, "complementary_state"),
    (quditcs.qcs, "parity_coefficients"),
    (quditcs.qcs, "he_roots"),
    (quditcs.qcs, "orthonormal_he_table"),
    (quditcs.fock, "fidelity"),
    (quditcs.fock, "mixed_fidelity"),
    (quditcs.fock, "photon_distribution"),
    (quditcs.phase_space, "wigner_grid"),
    (quditcs.phase_space, "wigner_values"),
    (quditcs.phase_space, "nonclassical_volume"),
    (quditcs.phase_space.WignerGrid, "write_csv"),
    (quditcs.tomography, "tomogram_grid"),
    (quditcs.tomography, "tomogram_closed_form"),
    (quditcs.tomography.Tomogram, "write_csv"),
]

# Call arguments worth keeping with a span: grid sizes give the computed
# point counts, the state's dimension splits grid time by d.
_SIZE_ARGS = ("nq", "npts", "ntheta")


def span_name(fn) -> str:
    """'<module>.<function>' with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__.lstrip('_')}"


class Tracer:
    """Collects spans while installed; install() and uninstall() pair up."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def span(self, name, info=None):
        """Open a span by hand; returns its index for close()."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, {} if info is None else info])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn):
        name = span_name(fn)
        sig = inspect.signature(fn)
        cache_info = getattr(fn, "cache_info", None)
        tracer = self

        def traced(*args, **kwargs):
            info = {}
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, val in bound.arguments.items():
                if key in _SIZE_ARGS:
                    info[key] = val
                elif key == "s" and hasattr(val, "dim"):
                    info["d"] = val.dim
            misses = cache_info().misses if cache_info else 0
            idx = tracer.span(name, info)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if cache_info:
                    info["cold"] = cache_info().misses > misses

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans
