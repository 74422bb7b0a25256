"""Run one benchmark operation with every layer boundary traced.

Usage:
  python benchmarks/traced.py SPANS.json cli COMMAND [CLI ARGS...]
  python benchmarks/traced.py SPANS.json lib SPEC.json OUT_DIR

The wrappers are installed from here, around the public functions of each
chainqc module and around numpy.linalg.eigh, numpy.linalg.eigvalsh and
numpy.kron.  chainqc looks these up by attribute at call time, so nothing in
the package is edited.  Each call keeps a span in memory (name, start, end,
parent, attributes); counting wrappers only count.  Everything is written to
SPANS.json when the operation ends.  The exit code is the operation's.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter

import numpy as np

import chainqc.cli
from chainqc import config, lattice, magnet, mrfm, pulses, spinsys


class Tracer:
    """In-memory span recorder.  Spans are [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.matrices = []  # propagators, checked for unitarity afterwards
        self._local = threading.local()
        self._lock = threading.Lock()  # cmd_scalability calls from a pool
        self.root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            rec = [name, 0.0, 0.0, stack[-1] if stack else self.root, None]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(self, args, kwargs, result)
            return result
        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def patch(self, owner, attr, name=None, attrs=None, count_only=False):
        fn = getattr(owner, attr)
        label = name or f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        if count_only:
            setattr(owner, attr, self.counter(label, fn))
        else:
            setattr(owner, attr, self.wrap(label, fn, attrs))


# --- span attributes ---------------------------------------------------------


def _n_result(_t, _a, _k, result):
    return {"n": len(result)}


def _doublings(_t, _a, _k, result):
    return {"doublings": len(result.trace) - 1}


def _events(_t, _a, _k, result):
    seq = result[0] if isinstance(result, tuple) else result
    return {"events": len(seq.events)}


def _matrix_size(_t, args, _k, _r):
    a = args[0]
    return {"n": int(a.shape[-1]), "complex": bool(np.iscomplexobj(a))}


def _system_dim(_t, args, _k, _r):
    return {"dim": args[0].dim}


def _propagator(tracer, args, kwargs, result):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "ideal")
    tracer.matrices.append(result.matrix)
    return {"mode": mode, "dim": result.dim}


def _segments(_t, args, _k, result):
    return {"segments": len(result) - 1, "dim": args[0].dim}


def _cai_steps(_t, _a, _k, result):
    return {"steps": len(result.times)}


def install(tracer: Tracer) -> None:
    p = tracer.patch
    p(config, "load_config")
    p(config, "parse_config")
    p(lattice, "sigma_over_delta", attrs=_doublings)
    p(lattice, "chain_sites_within", attrs=_n_result)
    p(magnet, "splitting_profile")
    p(magnet, "plane_homogeneity")
    for f in ("b_field", "bz_at", "grad_bz_at", "sample"):
        p(magnet, f, name="magnet.field_eval", count_only=True)
    for f in ("wahuha", "decoupling_schedule", "interleave", "compile_cnot"):
        p(pulses, f, attrs=_events)
    for f in ("hadamard_sign_matrix", "recouple", "sequence_to_json",
              "sequence_from_json", "sequence_to_csv_rows"):
        p(pulses, f)
    p(spinsys.SpinSystem, "hamiltonian", name="spinsys.hamiltonian",
      attrs=_system_dim)
    p(spinsys.QuantumState, "apply", name="spinsys.state_apply")
    p(spinsys, "propagator", attrs=_propagator)
    p(spinsys, "evolve", attrs=_segments)
    p(spinsys, "average_hamiltonian_0", attrs=_system_dim)
    for f in ("expectation_iz_plane", "gate_fidelity", "diagonal_z_fidelity",
              "build_system"):
        p(spinsys, f)
    p(np.linalg, "eigh", name="numpy.eigh", attrs=_matrix_size)
    p(np.linalg, "eigvalsh", name="numpy.eigvalsh", attrs=_matrix_size)
    p(np, "kron", name="numpy.kron")
    p(mrfm, "simulate_cai_readout", attrs=_cai_steps)
    for f in ("required_field_over_temp", "max_measurable_qubits",
              "gate_budget", "force_at_n"):
        p(mrfm, f)
    p(mrfm, "readout_force", name="mrfm.force_eval", count_only=True)


def _run_lib(spec, out_dir):
    import libops
    libops.run(spec, out_dir)
    return 0


def main(argv) -> int:
    spans_path, kind, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    tracer.root = 0
    tracer.spans.append(["op", time.perf_counter(), 0.0, None, None])
    try:
        if kind == "cli":
            code = tracer.wrap("cli.main", chainqc.cli.main)(rest)
        else:
            code = tracer.wrap("lib.run", _run_lib)(*rest)
    finally:
        tracer.spans[0][2] = time.perf_counter()
        devs = [float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))
                for U in tracer.matrices]
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "unitarity_devs": devs}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
