"""Per-layer metrics from the spans of a traced pass.

Times ending in _s are seconds summed over one traced pass, except the
cli.interp_start_s, cli.import_s and cli.import.* start-up figures, which
are per fresh interpreter (medians of probes).  A layer's time counts only
its outermost spans, so nested calls of the same layer are not counted
twice.  Self time is a span's duration minus the part its child spans cover.
Counts are exact and repeat run to run; spinsys.eigh.flops is computed from
matrix sizes (9 n^3 real flops per symmetric eigensolve with vectors,
4x for complex), not measured.
"""

from __future__ import annotations

from collections import defaultdict

SCHEDULE_FNS = {"pulses.wahuha", "pulses.hadamard_sign_matrix",
                     "pulses.decoupling_schedule", "pulses.recouple",
                     "pulses.interleave"}
SERIALIZERS = {"pulses.sequence_to_json", "pulses.sequence_from_json",
               "pulses.sequence_to_csv_rows"}
SCALABILITY = {"mrfm.required_field_over_temp", "mrfm.max_measurable_qubits",
               "mrfm.gate_budget", "mrfm.force_at_n"}
FIDELITY = {"spinsys.gate_fidelity", "spinsys.diagonal_z_fidelity"}

# name -> unit, in the order they are reported.
PER_LAYER = {
    "cli.interp_start_s": "s",
    "cli.import_s": "s",
    "cli.import.numpy_s": "s",
    "cli.import.scipy_s": "s",
    "cli.import.jsonschema_s": "s",
    "cli.import.chainqc_s": "s",
    "cli.main_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    "config.load_config_s": "s",
    "config.load_config.calls": "count",
    "lattice.sigma_over_delta_s": "s",
    "lattice.sites": "count",
    "lattice.doublings": "count",
    "magnet.splitting_profile_s": "s",
    "magnet.plane_homogeneity_s": "s",
    "magnet.field_evals": "count",
    "pulses.schedule_build_s": "s",
    "pulses.compile_cnot_s": "s",
    "pulses.serialize_s": "s",
    "pulses.events": "count",
    "spinsys.hamiltonian_s": "s",
    "spinsys.hamiltonian.calls": "count",
    "spinsys.propagator.ideal_s": "s",
    "spinsys.propagator.sampled_s": "s",
    "spinsys.evolve_s": "s",
    "spinsys.evolve.segments": "count",
    "spinsys.state_apply_s": "s",
    "spinsys.state_apply.calls": "count",
    "spinsys.expectation_s": "s",
    "spinsys.expectation.calls": "count",
    "spinsys.fidelity_s": "s",
    "spinsys.average_hamiltonian_s": "s",
    "spinsys.eigh.calls": "count",
    "spinsys.eigh_s": "s",
    "spinsys.eigh.flops": "flop_computed",
    "spinsys.eigvalsh.calls": "count",
    "spinsys.eigvalsh_s": "s",
    "spinsys.kron.calls": "count",
    "spinsys.kron_s": "s",
    "spinsys.dim_max": "count",
    "spinsys.unitarity_dev_max": "1",
    "mrfm.cai_readout_s": "s",
    "mrfm.cai_steps": "count",
    "mrfm.scalability_s": "s",
    "mrfm.force_evals": "count",
    "trace.overhead_s": "s",
}


class OpSpans:
    """Spans of one traced operation, indexed for layer queries."""

    def __init__(self, doc: dict):
        self.spans = doc["spans"]
        self.counts = doc["counts"]
        self.unitarity_devs = doc["unitarity_devs"]
        self.children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                self.children[s[3]].append(i)

    def _has_ancestor_in(self, i, names):
        p = self.spans[i][3]
        while p is not None:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def outermost(self, names):
        names = set(names)
        return [i for i, s in enumerate(self.spans)
                if s[0] in names and not self._has_ancestor_in(i, names)]

    def total(self, names, where=None):
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self.outermost(names)
                   if where is None or where(self.spans[i][4] or {}))

    def self_time(self, names):
        out = 0.0
        for i in self.outermost(names):
            _, start, end, _, _ = self.spans[i]
            covered = _union([(max(start, self.spans[c][1]),
                               min(end, self.spans[c][2]))
                              for c in self.children[i]])
            out += (end - start) - covered
        return out

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def attr_sum(self, name, key):
        return sum((s[4] or {}).get(key, 0) for s in self.spans if s[0] == name)

    def attrs(self, name):
        return [s[4] or {} for s in self.spans if s[0] == name]

    def prefix_total(self, prefix):
        names = {s[0] for s in self.spans if s[0].startswith(prefix)}
        return self.total(names)


def _union(intervals):
    covered, end = 0.0, None
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if end is None or a > end:
            covered += b - a
            end = b
        elif b > end:
            covered += b - end
            end = b
    return covered


def _eigh_flops(attrs):
    return sum(9 * a["n"] ** 3 * (4 if a["complex"] else 1) for a in attrs)


def layer_metrics(ops: list[OpSpans], bytes_written: int,
                  startup: dict, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass (ops in pass order)."""
    def tot(names, where=None):
        return sum(o.total(names, where) for o in ops)

    def calls(name):
        return sum(o.calls(name) for o in ops)

    def attr_sum(name, key):
        return sum(o.attr_sum(name, key) for o in ops)

    def attrs(name):
        return [a for o in ops for a in o.attrs(name)]

    dims = [a.get("dim", 0) for o in ops for n in
            ("spinsys.hamiltonian", "spinsys.propagator", "spinsys.evolve",
             "spinsys.average_hamiltonian_0") for a in o.attrs(n)]
    devs = [d for o in ops for d in o.unitarity_devs]
    is_mode = lambda m: (lambda a: a.get("mode") == m)
    m = {
        **startup,
        "cli.main_s": tot({"cli.main"}),
        "cli.main.self_s": sum(o.self_time({"cli.main"}) for o in ops),
        "cli.bytes_written": bytes_written,
        "config.load_config_s": tot({"config.load_config"}),
        "config.load_config.calls": calls("config.load_config"),
        "lattice.sigma_over_delta_s": tot({"lattice.sigma_over_delta"}),
        "lattice.sites": attr_sum("lattice.chain_sites_within", "n"),
        "lattice.doublings": attr_sum("lattice.sigma_over_delta", "doublings"),
        "magnet.splitting_profile_s": tot({"magnet.splitting_profile"}),
        "magnet.plane_homogeneity_s": tot({"magnet.plane_homogeneity"}),
        "magnet.field_evals": sum(o.counts.get("magnet.field_eval", 0)
                                  for o in ops),
        "pulses.schedule_build_s": tot(SCHEDULE_FNS),
        "pulses.compile_cnot_s": tot({"pulses.compile_cnot"}),
        "pulses.serialize_s": tot(SERIALIZERS),
        "pulses.events": sum(attr_sum(n, "events") for n in
                             ("pulses.wahuha", "pulses.decoupling_schedule",
                              "pulses.interleave", "pulses.compile_cnot")),
        "spinsys.hamiltonian_s": tot({"spinsys.hamiltonian"}),
        "spinsys.hamiltonian.calls": calls("spinsys.hamiltonian"),
        "spinsys.propagator.ideal_s": tot({"spinsys.propagator"},
                                          is_mode("ideal")),
        "spinsys.propagator.sampled_s": tot({"spinsys.propagator"},
                                            is_mode("sampled")),
        "spinsys.evolve_s": tot({"spinsys.evolve"}),
        "spinsys.evolve.segments": attr_sum("spinsys.evolve", "segments"),
        "spinsys.state_apply_s": tot({"spinsys.state_apply"}),
        "spinsys.state_apply.calls": calls("spinsys.state_apply"),
        "spinsys.expectation_s": tot({"spinsys.expectation_iz_plane"}),
        "spinsys.expectation.calls": calls("spinsys.expectation_iz_plane"),
        "spinsys.fidelity_s": tot(FIDELITY),
        "spinsys.average_hamiltonian_s": tot({"spinsys.average_hamiltonian_0"}),
        "spinsys.eigh.calls": calls("numpy.eigh"),
        "spinsys.eigh_s": tot({"numpy.eigh"}),
        "spinsys.eigh.flops": _eigh_flops(attrs("numpy.eigh")),
        "spinsys.eigvalsh.calls": calls("numpy.eigvalsh"),
        "spinsys.eigvalsh_s": tot({"numpy.eigvalsh"}),
        "spinsys.kron.calls": calls("numpy.kron"),
        "spinsys.kron_s": tot({"numpy.kron"}),
        "spinsys.dim_max": max(dims, default=0),
        "spinsys.unitarity_dev_max": max(devs, default=0.0),
        "mrfm.cai_readout_s": tot({"mrfm.simulate_cai_readout"}),
        "mrfm.cai_steps": attr_sum("mrfm.simulate_cai_readout", "steps"),
        "mrfm.scalability_s": tot(SCALABILITY),
        "mrfm.force_evals": sum(o.counts.get("mrfm.force_eval", 0)
                                for o in ops),
        "trace.overhead_s": overhead_s,
    }
    if set(m) != set(PER_LAYER):
        raise RuntimeError(f"layer metrics out of sync: {set(m) ^ set(PER_LAYER)}")
    return m


def spinsys_total(ops: list[OpSpans]) -> float:
    """Time in the outermost spinsys.* spans of a pass."""
    return sum(o.prefix_total("spinsys.") for o in ops)


# --- import breakdown ------------------------------------------------------------


def parse_importtime(stderr: str) -> dict:
    """Seconds per package from `python -X importtime` output.

    numpy, scipy and jsonschema are the cumulative times of their outermost
    entries; chainqc is the self time of chainqc's own modules only.
    """
    entries = []  # [name, self_us, cumulative_us, parent]
    stack = []    # (depth, index) of entries still waiting for a parent
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        idx = len(entries)
        entries.append([name.strip(), int(self_us), int(cum_us), None])
        while stack and stack[-1][0] > depth:
            entries[stack.pop()[1]][3] = idx
        stack.append((depth, idx))

    def in_pkg(name, pkg):
        return name == pkg or name.startswith(pkg + ".")

    def outer_cumulative(pkg):
        total = 0
        for e in entries:
            if not in_pkg(e[0], pkg):
                continue
            p = e[3]
            while p is not None and not in_pkg(entries[p][0], pkg):
                p = entries[p][3]
            if p is None:
                total += e[2]
        return total * 1e-6

    return {
        "cli.import.numpy_s": outer_cumulative("numpy"),
        "cli.import.scipy_s": outer_cumulative("scipy"),
        "cli.import.jsonschema_s": outer_cumulative("jsonschema"),
        "cli.import.chainqc_s": 1e-6 * sum(e[1] for e in entries
                                           if in_pkg(e[0], "chainqc")),
    }
