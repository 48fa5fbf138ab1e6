"""Spans and counters installed around cyclelift's public functions at run
time, from outside the program.

A span wrapper records calls, inclusive time and self time (its duration
minus the time covered by its child spans).  A counter wrapper only counts;
`padic` ring operations get counters, not spans, because there are
millions of them.  Installing replaces every binding of a wrapped object in
every loaded cyclelift module (``tree_ball`` is also ``localcycles.tree_ball``,
``shimura_lift`` is also ``identity.shimura_lift``, and so on), and
uninstalling restores them all.

Stats are aggregated in memory per job; the harness reads them with
``snapshot()`` after each job and writes them out when the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (span name, module, owner attribute or None, function name).  A class owner
# wraps the method (or classmethod) in the class dict.
SPANS = (
    ("bttree.tree_ball", "bttree", None, "tree_ball"),
    ("bttree.neighbors", "bttree", "VertexLattice", "neighbors"),
    ("bttree.from_vectors", "bttree", "VertexLattice", "from_vectors"),
    ("bttree.r_invariant", "bttree", "VertexLattice", "r_invariant"),
    ("bttree.distance", "bttree", None, "distance"),
    ("bttree.dual", "bttree", "VertexLattice", "dual"),
    ("bttree.hyperbolic_basis", "bttree", "VertexLattice", "hyperbolic_basis"),
    ("bttree.central_lattice", "bttree", None, "central_lattice"),
    ("localcycles.unitary_cycle", "localcycles", None, "unitary_cycle"),
    ("localcycles.orthogonal_cycle", "localcycles", None, "orthogonal_cycle"),
    ("localcycles.cycle_to_json_dict", "localcycles", None, "cycle_to_json_dict"),
    ("localcycles.path_words", "localcycles", None, "path_words"),
    ("localcycles.ordinary_equation", "localcycles", None, "ordinary_equation"),
    ("localcycles.superspecial_exponents", "localcycles", None, "superspecial_exponents"),
    ("localcycles.multiplicity", "localcycles", None, "multiplicity"),
    ("localcycles.split_pair", "localcycles", None, "split_pair"),
    ("qseries.shimura_lift", "qseries", None, "shimura_lift"),
    ("qseries.op_phi_set", "qseries", None, "op_phi_set"),
    ("qseries.series_from_json_dict", "qseries", None, "series_from_json_dict"),
    ("qseries.series_to_json_dict", "qseries", None, "series_to_json_dict"),
    ("identity.build_phi_o", "identity", None, "build_phi_o"),
    ("identity.build_phi_u", "identity", None, "build_phi_u"),
    ("identity.verify_main_theorem", "identity", None, "verify_main_theorem"),
    ("identity.verify_remark_identity", "identity", None, "verify_remark_identity"),
    ("quadfield.make_field", "quadfield", None, "make_field"),
    ("quadfield.rho", "quadfield", None, "rho"),
    ("quadfield.rho_divisor_sum", "quadfield", None, "rho_divisor_sum"),
    ("numth.factorize", "numth", None, "factorize"),
    ("numth.kronecker", "numth", None, "kronecker"),
    ("numth.divisors", "numth", None, "divisors"),
    ("cli.sweep_r_formula", "cli", None, "sweep_r_formula"),
    ("cli.sweep_chart_consistency", "cli", None, "sweep_chart_consistency"),
    ("cli.sweep_local_compare", "cli", None, "sweep_local_compare"),
    ("cli.sweep_rho", "cli", None, "sweep_rho"),
    ("cli.random_vector", "cli", None, "random_anisotropic_vector"),
    ("cli.emit", "cli", None, "emit"),
)

# (counter name, module, owner, function names).
COUNTERS = (
    ("padic.elem_ops", "padic", "QuadLocalElem", ("add", "sub", "neg", "mul", "mul_int", "conj")),
    ("padic.valuation.calls", "padic", "QuadLocalElem", ("valuation",)),
    ("padic.unit_inverse.calls", "padic", "QuadLocalElem", ("unit_inverse",)),
    ("padic.vectors", "padic", "VectorC", ("__init__",)),
    ("padic.qform.calls", "padic", None, ("qform",)),
)

# Calls of a wrapped function made while another is open, counted under the
# given name: (callee, enclosing span, counter name).
NESTED = (
    ("bttree.neighbors", "localcycles.path_words", "localcycles.path_words.neighbors"),
    ("bttree.neighbors", "localcycles.superspecial_exponents",
     "localcycles.superspecial_exponents.neighbors"),
    ("padic.qform.calls", "cli.random_vector", "cli.random_vector.qform"),
)

# Work sizes read from a span's arguments and result: (span, counter name,
# function of (result, args)).  path_words counts the labels its caller asked
# for (the keys argument), so the ratio below is the search cost per label.
SIZES = (
    ("bttree.tree_ball", "bttree.tree_ball.vertices", lambda res, args: len(res)),
    ("localcycles.path_words", "localcycles.path_words.labels",
     lambda res, args: len(args[1])),
    ("qseries.shimura_lift", "qseries.shimura_lift.coeffs_out",
     lambda res, args: len(res.coeffs)),
    ("identity.build_phi_o", "identity.build_phi_o.coeffs",
     lambda res, args: len(res.coeffs)),
    ("identity.verify_main_theorem", "identity.verify_main_theorem.checked",
     lambda res, args: res.checked),
)


class Tracer:
    """Span and counter totals since the last reset(), and the patches that
    install() made, so that uninstall() can restore the originals."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # span -> [calls, inclusive s, self s]
        self.counts: dict[str, int] = {}
        self._open: dict[str, int] = {}  # span -> nesting depth
        self._stack: list = []  # per open span: [child time]
        self._patches: list = []  # (owner, attribute, original value)

    def reset(self) -> None:
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0.0]
        for key in self.counts:
            self.counts[key] = 0

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counts": {k: v for k, v in self.counts.items() if v},
        }

    # -- wrappers ---------------------------------------------------------------

    def _nested(self, callee: str):
        return [(outer, key) for c, outer, key in NESTED if c == callee]

    def _span(self, name: str, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, open_, counts = self._stack, self._open, self.counts
        open_.setdefault(name, 0)
        nested = self._nested(name)
        sizes = [(key, size) for span, key, size in SIZES if span == name]
        for key, _ in sizes:
            counts.setdefault(key, 0)
        for _, key in nested:
            counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            for outer, key in nested:
                if open_.get(outer):
                    counts[key] += 1
            frame = [0.0]
            stack.append(frame)
            open_[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                open_[name] -= 1
                stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            for key, size in sizes:
                counts[key] += size(result, args)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts, open_ = self.counts, self._open
        counts.setdefault(name, 0)
        nested = self._nested(name)
        for _, key in nested:
            counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            for outer, key in nested:
                if open_.get(outer):
                    counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -----------------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls, attr, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def _wrap_function(self, module, attr, make) -> None:
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "cyclelift" or name.startswith("cyclelift."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def install(self) -> None:
        if self._patches:
            return
        for name, modname, owner, attr in SPANS:
            self._install_one(modname, owner, attr, lambda f, n=name: self._span(n, f))
        for name, modname, owner, attrs in COUNTERS:
            for attr in attrs:
                self._install_one(
                    modname, owner, attr, lambda f, n=name: self._counter(n, f)
                )

    def _install_one(self, modname, owner, attr, make) -> None:
        module = sys.modules[f"cyclelift.{modname}"]
        if owner is None:
            self._wrap_function(module, attr, make)
        else:
            self._wrap_method(getattr(module, owner), attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, counts: dict, rounds: int) -> dict:
    """Per-layer metrics from summed span stats and counts, per round."""
    out = {}
    for name, *_ in SPANS:
        calls, _, self_s = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls / rounds
        out[f"{name}.self_s"] = self_s / rounds
    for name, *_ in COUNTERS:
        out[name] = counts.get(name, 0) / rounds
    for _, name, _ in SIZES:
        out[name] = counts.get(name, 0) / rounds
    for _, _, name in NESTED:
        out[name] = counts.get(name, 0) / rounds
    out["cli.emit.bytes"] = counts.get("cli.emit.bytes", 0) / rounds
    vertices = counts.get("bttree.tree_ball.vertices", 0)
    ball_s = spans.get("bttree.tree_ball", (0, 0.0, 0.0))[1]
    out["bttree.tree_ball.us_per_vertex"] = _ratio(1e6 * ball_s, vertices)
    out["padic.ops_per_vertex"] = _ratio(counts.get("padic.elem_ops", 0), vertices)
    out["localcycles.path_words.neighbors_per_label"] = _ratio(
        counts.get("localcycles.path_words.neighbors", 0),
        counts.get("localcycles.path_words.labels", 0))
    out["localcycles.superspecial_exponents.neighbors_per_call"] = _ratio(
        counts.get("localcycles.superspecial_exponents.neighbors", 0),
        spans.get("localcycles.superspecial_exponents", (0,))[0])
    out["identity.build_phi_o.coeffs_per_check"] = _ratio(
        counts.get("identity.build_phi_o.coeffs", 0),
        counts.get("identity.verify_main_theorem.checked", 0))
    out["cli.random_vector.draws_per_vector"] = _ratio(
        counts.get("cli.random_vector.qform", 0),
        spans.get("cli.random_vector", (0,))[0])
    return out


def module_calls(spans: dict, counts: dict, rounds: int) -> dict:
    """Calls into each module per round (spans and counters together)."""
    out = {}
    for name, modname, *_ in SPANS:
        out[modname] = out.get(modname, 0) + spans.get(name, (0,))[0] / rounds
    for name, modname, *_ in COUNTERS:
        out[modname] = out.get(modname, 0) + counts.get(name, 0) / rounds
    return out
