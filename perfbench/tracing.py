"""In-memory spans around the calls into lindloc's layers.

The tracer wraps lindloc's public functions from outside the package. A
function imported by name into several lindloc modules (``cli`` imports
``steady_state``, ``thermo.audit_trajectory`` calls ``audit``) is replaced in
every module that holds it, so calls made inside the package are seen too.
``Generator.superop`` builds the dense superoperator on first access and
caches it; only that first access per generator becomes a span.

Spans are kept in memory as (name, start, end, parent, job id, attrs) and
written out once, when the run ends. ``install`` and ``uninstall`` bracket
each traced job, so untraced jobs in the same process run the original code.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

# (module that defines it, attribute, span name). The span name's prefix is
# the layer; spectral, baths and linalg run inside liouvillian.build.
FUNCTIONS = (
    ("lindloc.cli", "main", "cli.command"),
    ("lindloc.cli", "load_config", "cli.load_config"),
    ("lindloc.models", "qubit_chain_model", "models.spec"),
    ("lindloc.models", "two_qubit_model", "models.spec"),
    ("lindloc.models", "single_qubit_model", "models.spec"),
    ("lindloc.liouvillian", "build_modified_local", "liouvillian.build"),
    ("lindloc.liouvillian", "build_naive_local", "liouvillian.build"),
    ("lindloc.dynamics", "steady_state", "dynamics.steady_state"),
    ("lindloc.dynamics", "evolve", "dynamics.evolve"),
    ("lindloc.thermo", "audit", "thermo.audit"),
    ("lindloc.thermo", "audit_trajectory", "thermo.audit_trajectory"),
)

LAYERS = ("cli", "models", "liouvillian", "dynamics", "thermo")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    job: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _matrix_power_products(n: int) -> int:
    """Matrix products numpy.linalg.matrix_power spends on exponent n."""
    if n <= 1:
        return 0
    if n <= 3:
        return n - 1
    return n.bit_length() - 1 + bin(n).count("1") - 1


def evolve_attrs(args, kwargs, result) -> dict:
    """Counts for one evolve call, computed from its inputs.

    Step and stride arithmetic follows lindloc.dynamics.evolve: one RK4 step
    matrix (3 products), matrix_power for the record stride, and one more
    matrix_power for a final partial stride. A complex N x N product costs
    8 N^3 flops, with N = d^2.
    """
    gen = args[0] if args else kwargs["gen"]
    config = args[2] if len(args) > 2 else kwargs["config"]
    n_steps = max(1, int(round(config.t_max / config.dt)))
    stride = min(config.record_stride, n_steps)
    products = 3 + _matrix_power_products(stride) + _matrix_power_products(n_steps % stride)
    n = gen.dimension**2
    return {
        "kind": gen.kind,
        "steps": n_steps,
        "records": len(result.states),
        "matmul_gflop": products * 8.0 * n**3 / 1e9,
    }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = -1
        self._patches: list[tuple[object, str, object]] = []
        self._seen_generators: dict[int, object] = {}

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, job=self._job))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._seen_generators.clear()
        self._open("job")

    def end_job(self) -> None:
        self._close(self._stack[0])
        self._stack.clear()
        self._seen_generators.clear()

    # -- patching -------------------------------------------------------------

    def _wrap(self, fn, name):
        attrs_fn = evolve_attrs if name == "dynamics.evolve" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if attrs_fn is not None:
                self.spans[index].attrs = attrs_fn(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "lindloc" or k.startswith("lindloc.")]
        for home, attr, name in FUNCTIONS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, name)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapped)

        cli = sys.modules.get("lindloc.cli")
        run_config = getattr(cli, "RunConfig", None)
        from_dict = getattr(run_config, "__dict__", {}).get("from_dict")
        if isinstance(from_dict, classmethod):
            self._set(run_config, "from_dict", classmethod(self._wrap(from_dict.__func__, "cli.load_config")))

        generator = getattr(sys.modules.get("lindloc.liouvillian"), "Generator", None)
        prop = getattr(generator, "__dict__", {}).get("superop")
        if isinstance(prop, property):
            self._set(generator, "superop", property(self._superop_getter(prop.fget)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _superop_getter(self, fget):
        def superop(gen):
            if id(gen) in self._seen_generators:
                return fget(gen)
            # Holding the generator keeps its id unique until the job ends.
            self._seen_generators[id(gen)] = gen
            index = self._open("liouvillian.superop")
            try:
                m = fget(gen)
            finally:
                self._close(index)
            copies = sum(
                1 for v in vars(gen).values() if getattr(v, "shape", None) == m.shape
            )
            self.spans[index].attrs = {
                "kind": gen.kind,
                "rows": m.shape[0],
                "bytes": copies * m.nbytes,
            }
            return m

        return superop

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "job": s.job,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


# -- per-layer figures -------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _new_job() -> dict:
    return {"busy": {}, "self": {}, "calls": {}, "durations": {}, "self_by_name": {}, "attrs": {}}


def per_job(spans: list[Span]) -> dict[int, dict]:
    """Busy and self time per layer, and per-name figures, for each traced job.

    A layer's busy time counts only its outermost spans, so audit spans under
    audit_trajectory are not counted twice. Self time is a span minus its
    direct children; summed over a job it adds up to the job's span. Spans
    that carry a generator kind are also filed under "<name>.<kind>".
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    jobs: dict[int, dict] = {}
    for i, s in enumerate(spans):
        job = jobs.setdefault(s.job, _new_job())
        self_time = s.duration - child_time[i]
        job["self"][s.layer] = job["self"].get(s.layer, 0.0) + self_time
        keys = [s.name] + ([f"{s.name}.{s.attrs['kind']}"] if "kind" in s.attrs else [])
        for key in keys:
            job["calls"][key] = job["calls"].get(key, 0) + 1
            job["durations"].setdefault(key, []).append(s.duration)
            job["self_by_name"].setdefault(key, []).append(self_time)
        for key, value in s.attrs.items():
            if key == "kind":
                continue
            total = job["attrs"].get(f"{s.name}.{key}", 0)
            # rows is a size, not a quantity of work: keep the largest
            job["attrs"][f"{s.name}.{key}"] = max(total, value) if key == "rows" else total + value
        if s.parent < 0:
            job["job_s"] = s.duration
            continue
        if spans[s.parent].layer != s.layer:
            job["busy"][s.layer] = job["busy"].get(s.layer, 0.0) + s.duration
    return jobs


def _iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def summarize(spans: list[Span], untraced_of: dict[int, float]) -> dict[str, float]:
    """Per-layer figures over all traced jobs.

    Per-call times ("<span>_s", "<span>.self_s") are medians over every call;
    everything else is a median over jobs of a per-job total. untraced_of maps
    each traced job to the untraced job run next to it on the same input, so
    the tracing overhead and cli.self_s are medians of paired differences.
    """
    by_id = per_job(spans)
    jobs = list(by_id.values())
    out: dict[str, float] = {}

    def job_median(get) -> float:
        return _median([get(j) for j in jobs])

    names = sorted({n for j in jobs for n in j["durations"]} - {"job"})
    for name in names:
        out[f"{name}_s"] = _median([d for j in jobs for d in j["durations"].get(name, [])])
        out[f"{name}.self_s"] = _median([d for j in jobs for d in j["self_by_name"].get(name, [])])
        out[f"{name}.calls"] = job_median(lambda j: j["calls"].get(name, 0))
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = job_median(lambda j: j["busy"].get(layer, 0.0))
        if layer != "cli":  # cli.self_s is defined from the untraced jobs below
            out[f"{layer}.self_s"] = job_median(lambda j: j["self"].get(layer, 0.0))
    for key in sorted({k for j in jobs for k in j["attrs"]}):
        out[key] = job_median(lambda j: j["attrs"].get(key, 0))
    evolving = [j for j in jobs if "dynamics.evolve.matmul_gflop" in j["attrs"]]
    if evolving:
        out["dynamics.evolve.gflop_per_s"] = _median(
            [j["attrs"]["dynamics.evolve.matmul_gflop"] / sum(j["self_by_name"]["dynamics.evolve"]) for j in evolving]
        )
    out["job.traced_s"] = job_median(lambda j: j["job_s"])
    out["bench.self_s"] = job_median(lambda j: j["self"].get("job", 0.0))

    # Time inside layer spans: the job minus the benchmark's own code and the
    # command's own code.
    layers = {
        i: j["job_s"] - j["self"].get("job", 0.0) - sum(j["self_by_name"].get("cli.command", []))
        for i, j in by_id.items()
    }
    out["layers_s"] = _median(list(layers.values()))
    paired = [i for i in by_id if i in untraced_of]
    overhead = [by_id[i]["job_s"] - untraced_of[i] for i in paired]
    residual = [untraced_of[i] - layers[i] for i in paired]
    out["trace.overhead_s"] = _median(overhead)
    out["trace.overhead_iqr_s"] = _iqr(overhead)
    out["untraced_minus_layers_s"] = _median(residual)
    if "cli.command" in names:
        # The command's own time: its untraced job time minus the traced
        # time of everything the command called.
        out["cli.self_s"] = out["untraced_minus_layers_s"]
    return out
