"""In-memory span tracing of kpzlab from outside the package.

`Tracer.install` wraps every public function of each kpzlab module and
rebinds it in every kpzlab namespace that holds it by name (the defining
module, the modules that imported it with ``from .x import name`` and the
package itself) and in module-level dispatch tables such as
``acceptance.CRITERIA``, plus ``numpy.fft.rfftn``/``irfftn``.  Each call
records a span (name, start, end, parent, info); spans stay in memory until
`layer_metrics` reduces them.  Nothing is wrapped until `install` runs, so an
untraced run pays nothing.  numpy is imported only on use, so that importing
this module leaves the thread settings of a later numpy import alone.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import os
import time

LAYERS = ("grid", "heat", "deposition", "solvers", "maximal", "noise", "ldp", "cli", "acceptance")

FFT_SPANS = ("grid.numpy_rfftn", "grid.numpy_irfftn")
SWEEPS = ("maximal.star_maximal", "maximal.log_star_exp", "maximal.sharp_maximal")
SPECTRAL = (
    "grid.gradient", "grid.laplacian", "grid.gradient_magnitude", "grid.derivative_sup",
    "grid.dealias_two_thirds", "grid.fft", "grid.ifft",
)
IO = ("grid.write_field", "grid.read_field", "grid.write_spacetime", "grid.read_spacetime")
MC = ("ldp.nagaev_check", "ldp.btis_check", "ldp.slepian_check", "ldp.mayer_check")
QUASINORMS = ("maximal.forcing_quasinorm", "maximal.h_lambda_norm", "maximal.w1inf_lambda_norm")
REPORTS = ("cli.write_csv", "cli.write_json", "cli.write_resolved_config")
RATE_FACTORIES = (
    "deposition.quadratic_rate", "deposition.relativistic_rate", "deposition.power_clamp_rate",
    "deposition.rate_by_label", "deposition.tabulated_rate", "deposition.builtin_rates",
)


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    """Spans in parallel lists (name, start, end, parent index, info).

    Parallel lists of strings and floats, unlike one small list per span,
    add no objects for the cyclic garbage collector to walk.
    """

    def __init__(self):
        self.names, self.start, self.end, self.parent, self.info = [], [], [], [], []
        self._stack = []
        self._undo = []
        self._ball_counts = {}

    # --- wrapping -------------------------------------------------------------

    def wrap(self, name, fn, info=None, post=None):
        """Traced stand-in for fn; generator functions get one span per item."""
        names, start, end, parent, infos = self.names, self.start, self.end, self.parent, self.info
        stack, clock = self._stack, time.perf_counter

        def open_span():
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            infos.append(None)
            stack.append(idx)
            start.append(clock())
            return idx

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end[idx] = clock()
                        stack.pop()
                    yield item
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = open_span()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
                if info is not None:
                    infos[idx] = info(args, kwargs, out)
                return post(out) if post is not None else out

        traced.bench_traced = True
        return traced

    def _traced_rate(self, rate):
        if getattr(rate.eval, "bench_traced", False):
            return rate
        return dataclasses.replace(
            rate,
            eval=self.wrap("deposition.eval", rate.eval),
            deriv=self.wrap("deposition.deriv", rate.deriv),
        )

    def _post(self, name):
        if name == "deposition.builtin_rates":
            return lambda rates: [self._traced_rate(r) for r in rates]
        if name in RATE_FACTORIES:
            return self._traced_rate
        return None

    def _info(self, name, fn):
        """Per-call facts a layer metric needs, read from arguments or result."""
        if name == "noise.sample_noise":
            return lambda a, k, out: out.n_frames
        if name in IO:
            return lambda a, k, out: os.path.getsize(_arg(fn, a, k, "path"))
        if name == "solvers.trotter_solve":
            return lambda a, k, out: int(_arg(fn, a, k, "n"))
        if name == "solvers.mild_solve":
            return lambda a, k, out: len(out.frames) - 1
        if name in SWEEPS:
            return lambda a, k, out: a[0].spec.n_sites
        if name == "maximal.forcing_quasinorm":
            return lambda a, k, out: len(_arg(fn, a, k, "probes"))
        if name in ("ldp.tail_sup_eta", "ldp.tail_exp_eta"):
            return lambda a, k, out: self._ball_count(fn, a, k)
        if name in ("ldp.nagaev_check", "ldp.btis_check", "ldp.slepian_check"):
            return lambda a, k, out: out.trials
        return None

    def _ball_count(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        first = bound["ensemble"][0]
        key = (first.spec, tuple(bound["probe"]), float(bound["M"]), int(bound["j"]))
        if key not in self._ball_counts:
            import numpy as np

            grid = importlib.import_module("kpzlab.grid")
            radius = float(bound["M"]) ** (int(bound["j"]) / 2)
            rsq = grid.periodic_distance_sq(first.spec, tuple(bound["probe"]))
            self._ball_counts[key] = int(np.count_nonzero(rsq <= radius * radius))
        return self._ball_counts[key]

    def install(self):
        import numpy as np

        package = importlib.import_module("kpzlab")
        modules = {layer: importlib.import_module(f"kpzlab.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self.wrap(name, obj, self._info(name, obj), self._post(name)))
        for ns in (package, *modules.values()):
            tables = [vars(ns)] + [t for t in vars(ns).values() if isinstance(t, dict)]
            for table in tables:
                for key, obj in list(table.items()):
                    hit = wrapped.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._undo.append((table, key, obj))
                        table[key] = hit[1]
        for attr, name in (("rfftn", FFT_SPANS[0]), ("irfftn", FFT_SPANS[1])):
            orig = getattr(np.fft, attr)
            self._undo.append((vars(np.fft), attr, orig))
            shape = (lambda a, k, out: a[0].shape) if attr == "rfftn" else (lambda a, k, out: out.shape)
            np.fft.__dict__[attr] = self.wrap(name, orig, shape)

    def uninstall(self):
        while self._undo:
            table, key, orig = self._undo.pop()
            table[key] = orig


# --- reduction -----------------------------------------------------------------


def _fft_cost(shape):
    """Computed flops (2.5 n log2 n per real transform) and bytes (real + half spectrum)."""
    n = math.prod(shape)
    half = n // shape[-1] * (shape[-1] // 2 + 1)
    return 2.5 * n * math.log2(n), 8 * n + 16 * half


def layer_metrics(tracer, n_rounds, traced_wall_s):
    """Per-round layer metrics from the spans of `n_rounds` traced rounds.

    Times of a named group count only spans with no ancestor in the same
    group, so nested calls are not counted twice.
    """
    names, parent, info = tracer.names, tracer.parent, tracer.info
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * len(names)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]

    def ancestors(i):
        p = parent[i]
        while p >= 0:
            yield p
            p = parent[p]

    def group(members):
        members = set(members)
        calls, total = 0, 0.0
        for i, nm in enumerate(names):
            if nm in members:
                calls += 1
                if not any(names[a] in members for a in ancestors(i)):
                    total += dur[i]
        return calls, total

    per = 1.0 / max(n_rounds, 1)
    m = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, nm in enumerate(names):
        self_s[nm.split(".", 1)[0]] += dur[i] - child[i]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer] * per

    fft_calls = fft_s = flop = nbytes = noise_ffts = 0.0
    by_shape = {}
    for i, nm in enumerate(names):
        if nm in FFT_SPANS:
            shape = tuple(info[i])
            f, b = _fft_cost(shape)
            key = "x".join(map(str, shape))
            row = by_shape.setdefault(key, [0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            fft_calls += 1
            fft_s += dur[i]
            flop += f
            nbytes += b
            if parent[i] >= 0 and names[parent[i]].startswith("noise."):
                noise_ffts += 1
    m["grid.fft_calls"] = fft_calls * per
    m["grid.fft_s"] = fft_s * per
    m["grid.fft_flop_computed"] = flop * per
    m["grid.fft_bytes_computed"] = nbytes * per
    m["grid.spectral_s"] = group(SPECTRAL)[1] * per
    m["grid.io_s"] = group(IO)[1] * per
    m["grid.io_bytes"] = sum(info[i] for i, nm in enumerate(names) if nm in IO) * per

    frames = sum(info[i] for i, nm in enumerate(names) if nm == "noise.sample_noise")
    m["noise.frames_drawn"] = frames * per
    m["noise.sample_s"] = group(["noise.sample_noise"])[1] * per
    m["noise.scale_field_s"] = group(["noise.scale_field_trajectory", "noise.scale_field"])[1] * per
    m["noise.eta_scale_s"] = group(["noise.eta_scale"])[1] * per
    m["noise.fft_per_frame"] = noise_ffts / frames if frames else 0.0

    sweep_calls, sweep_s = group(SWEEPS)
    computed = used = heat_in_maximal = 0
    for i, nm in enumerate(names):
        if nm in SWEEPS:
            sites = info[i]
            computed += sites
            read = sites
            for a in ancestors(i):
                if names[a] in ("maximal.forcing_quasinorm", "ldp.tail_sup_eta", "ldp.tail_exp_eta"):
                    read = info[a]
                    break
            used += read
        elif nm == "heat.heat_apply" and parent[i] >= 0 and names[parent[i]].startswith("maximal."):
            heat_in_maximal += 1
    m["maximal.sweep_calls"] = sweep_calls * per
    m["maximal.sweep_s"] = sweep_s * per
    m["maximal.heat_applies"] = heat_in_maximal * per
    m["maximal.quasinorm_s"] = group(QUASINORMS)[1] * per
    m["maximal.sites_computed"] = computed * per
    m["maximal.sites_used_ratio"] = used / computed if computed else 0.0

    ch_calls, ch_s = group(["solvers.cole_hopf_solve"])
    tr_calls, tr_s = group(["solvers.trotter_solve"])
    mild_top = [i for i, nm in enumerate(names) if nm == "solvers.mild_solve"
                and not any(names[a] == "solvers.mild_solve" for a in ancestors(i))]
    m["solvers.cole_hopf_calls"] = ch_calls * per
    m["solvers.cole_hopf_s"] = ch_s * per
    m["solvers.trotter_steps"] = sum(info[i] for i, nm in enumerate(names) if nm == "solvers.trotter_solve") * per
    m["solvers.trotter_s"] = tr_s * per
    m["solvers.mild_frames"] = sum(info[i] for i in mild_top) * per
    m["solvers.mild_s"] = sum(dur[i] for i in mild_top) * per
    m["solvers.oracle_s"] = group(["solvers.bump_oracle_field", "solvers.bump_reference"])[1] * per

    ev_calls, ev_s = group(["deposition.eval"])
    m["deposition.eval_calls"] = ev_calls * per
    m["deposition.eval_s"] = ev_s * per

    ha_calls, ha_s = group(["heat.heat_apply"])
    m["heat.apply_calls"] = ha_calls * per
    m["heat.apply_s"] = ha_s * per

    samples = 0
    for i, nm in enumerate(names):
        if nm in MC:
            samples += info[i] if info[i] is not None else 1
    m["ldp.mc_samples"] = samples * per
    m["ldp.mc_s"] = group(MC)[1] * per
    m["ldp.tail_fit_s"] = group(["ldp.tail_report_from_samples"])[1] * per

    crit_names = sorted({nm for nm in names if nm.startswith("acceptance.crit")})
    m["acceptance.criterion_s"] = group(crit_names)[1] * per
    per_criterion = {f"acceptance.criterion_s.c{nm[len('acceptance.crit'):][:2]}": group([nm])[1] * per
                     for nm in crit_names}
    m["cli.report_s"] = group(REPORTS)[1] * per

    covered = sum(dur[i] for i, p in enumerate(parent) if p < 0)
    m["bench.coverage_frac"] = covered / traced_wall_s if traced_wall_s > 0 else 0.0
    m["bench.spans"] = len(names) * per
    shapes = {k: {"calls": v[0] * per, "s": v[1] * per} for k, v in sorted(by_shape.items())}
    return m, {"fft_by_shape": shapes, "criterion_s": per_criterion}
