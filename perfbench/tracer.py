"""In-process tracing of the qhopf layers.

`Tracer.install()` replaces, in every qhopf module namespace, each name
bound to a traced function by a wrapper that records a span: name, start,
end and parent.  `from .tensor import mult` in another module is a separate
binding, so each one is patched; so are a module's own bindings, which its
internal calls go through.  Spans stay in memory until `layer_metrics()`
reduces them.

Scalar field operations are not wrapped: they run millions of times and the
wrapper would swamp them.
"""

import importlib
import time
from array import array

MODULES = ("cli", "datum", "tensor", "linalg", "scalars", "derived",
           "drinfeld", "twisting", "ribbon", "dsl", "examples")

# private functions traced too: the solvers that solve_sparse dispatches to,
# and the two ribbon enumerators whose points the search visits
PRIVATE = {"linalg": ("_eliminate_sparse", "_solve_mod_numpy"),
           "ribbon": ("_block_roots", "_enumerate_center_roots")}

RENAME = {"linalg._eliminate_sparse": "linalg.sparse",
          "linalg._solve_mod_numpy": "linalg.dense_numpy",
          "linalg.solve_dense": "linalg.dense"}

# invert calls made through dsl's own binding are the ones that memoizing
# corpus subterms would remove, so that binding gets its own label
SITE_LABELS = {("dsl", "tensor.invert"): "tensor.invert@dsl"}

BUILDERS = ("examples.dpr_double", "examples.function_algebra",
            "examples.group_algebra", "examples.sweedler")
ENUMERATORS = ("ribbon._block_roots", "ribbon._enumerate_center_roots")
# functions reported by inclusive time of their outermost calls
TOTALS = ("dsl.run_corpus", "datum.load_path", "datum.verify_quasi_bialgebra",
          "datum.verify_quasi_hopf", "datum.verify_quasitriangular",
          "derived.big_f", "derived.gamma", "derived.delta",
          "drinfeld.drinfeld_u", "drinfeld.u_tilde", "twisting.twist",
          "twisting.random_twist", "twisting.check_twist_elements",
          "ribbon.find_ribbon") + BUILDERS


def _traced_functions(pkg):
    """{function: span name} for the public functions of every layer module
    plus the private ones in PRIVATE."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module("%s.%s" % (pkg, short))
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            if name.startswith("_") and name not in PRIVATE.get(short, ()):
                continue
            full = "%s.%s" % (short, name)
            out[obj] = RENAME.get(full, full)
    return out


class Tracer:
    def __init__(self, pkg="qhopf"):
        self.pkg = pkg
        self.labels = []                 # label table, indexed by span_label
        self._label_ids = {}
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.extra = {}                  # span index -> call counters
        self._stack = []
        self._patched = []

    # ----- recording ---------------------------------------------------

    def _label_id(self, label):
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def _enter(self, lid):
        idx = len(self.span_label)
        self.span_label.append(lid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _exit(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, label):
        lid = self._label_id(label)
        enter, exit_, extra = self._enter, self._exit, self.extra
        if name == "tensor.mult":
            def wrapper(t1, t2, alg):
                idx = enter(lid)
                try:
                    out = fn(t1, t2, alg)
                finally:
                    exit_(idx)
                extra[idx] = (t1.arity, len(t1.entries) * len(t2.entries),
                              len(out.entries))
                return out
        elif name == "tensor.invert":
            def wrapper(t, alg):
                key = (t.arity, t.dim, tuple(sorted(t.entries.items())))
                idx = enter(lid)
                failed = True
                try:
                    out = fn(t, alg)
                    failed = False
                finally:
                    exit_(idx)
                    extra[idx] = (t.dim ** t.arity, key, failed)
                return out
        elif name == "tensor.hom_sum":
            def wrapper(alg, unary, factors, out):
                combos = 1
                for t, _ in factors:
                    combos *= len(t.entries)
                idx = enter(lid)
                try:
                    return fn(alg, unary, factors, out)
                finally:
                    exit_(idx)
                    extra[idx] = combos
        elif name == "ribbon.find_ribbon":
            def wrapper(*args, **kw):
                idx = enter(lid)
                try:
                    res = fn(*args, **kw)
                finally:
                    exit_(idx)
                extra[idx] = len(res.candidates)
                return res
        else:
            def wrapper(*args, **kw):
                idx = enter(lid)
                try:
                    return fn(*args, **kw)
                finally:
                    exit_(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    # ----- patching ----------------------------------------------------

    def install(self):
        traced = _traced_functions(self.pkg)
        wrappers = {}
        for short in ("",) + MODULES:
            mod = importlib.import_module(self.pkg + ("." + short if short else ""))
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                name = traced.get(obj)
                if name is None:
                    continue
                label = SITE_LABELS.get((short, name), name)
                if label not in wrappers:
                    wrappers[label] = self._wrap(obj, name, label)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[label])
        tensor = importlib.import_module(self.pkg + ".tensor")
        for cls, attr, name in ((tensor.SparseTensor, "make", "tensor.make"),
                                (tensor.Algebra, "vec_mul", "tensor.vec_mul")):
            raw = cls.__dict__[attr]
            static = isinstance(raw, staticmethod)
            w = self._wrap(raw.__func__ if static else raw, name, name)
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, staticmethod(w) if static else w)

    def uninstall(self):
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ----- reduction ---------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics named <module>.<function>.<quantity>; `calls`
        and `self_s` count every call, `total_s` only the outermost call of
        a function, so recursion and nested re-entry are not counted twice."""
        n = len(self.span_label)
        labels = [self.labels[i].split("@")[0] for i in range(len(self.labels))]
        name = [labels[i] for i in self.span_label]
        raw = [self.labels[i] for i in self.span_label]
        parent = self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]

        def ancestors(i):
            p = parent[i]
            while p >= 0:
                yield p
                p = parent[p]

        calls, self_s, total = {}, {}, {}
        totals = frozenset(TOTALS)
        for i in range(n):
            nm = name[i]
            calls[nm] = calls.get(nm, 0) + 1
            self_s[nm] = self_s.get(nm, 0.0) + dur[i] - child[i]
        for i in range(n):
            nm = name[i]
            if nm in totals and not any(name[a] == nm for a in ancestors(i)):
                total[nm] = total.get(nm, 0.0) + dur[i]

        m = {}
        for nm in ("linalg.sparse", "linalg.dense_numpy", "linalg.dense",
                   "tensor.apply_legs", "tensor.vec_mul", "tensor.make",
                   "tensor.hom_sum", "tensor.invert", "tensor.mult"):
            m[nm + ".calls"] = calls.get(nm, 0)
            m[nm + ".self_s"] = self_s.get(nm, 0.0)
        for nm in ("linalg.invert_matrix", "linalg.nullspace"):
            m[nm + ".self_s"] = self_s.get(nm, 0.0)

        # mult by arity and fill
        by_arity = {k: [0, 0.0, 0] for k in (1, 2, 3, 4)}
        pairs = out_nnz = 0
        block_points = 0
        for i in range(n):
            if name[i] != "tensor.mult":
                continue
            arity, pr, nnz = self.extra[i]
            pairs += pr
            out_nnz += nnz
            row = by_arity.setdefault(arity, [0, 0.0, 0])
            row[0] += 1
            row[1] += dur[i] - child[i]
            row[2] += pr
            if parent[i] >= 0 and name[parent[i]] in ENUMERATORS:
                block_points += 1
        m["tensor.mult.pairs"] = pairs
        m["tensor.mult.out_per_pair"] = out_nnz / pairs if pairs else 0.0
        for k in (1, 2, 3, 4):
            c, s, pr = by_arity[k]
            m["tensor.mult.a%d.calls" % k] = c
            m["tensor.mult.a%d.self_s" % k] = s
            m["tensor.mult.a%d.pairs" % k] = pr

        # invert: system size, failures, repeats
        unknowns = []
        keys = set()
        failures = 0
        dsl_calls, dsl_self = 0, 0.0
        twist_attempts = 0
        for i in range(n):
            if name[i] != "tensor.invert":
                continue
            size, key, failed = self.extra[i]
            unknowns.append(size)
            keys.add(key)
            failures += failed
            if raw[i] == "tensor.invert@dsl":
                dsl_calls += 1
                dsl_self += dur[i] - child[i]
            if any(name[a] == "twisting.random_twist" for a in ancestors(i)):
                twist_attempts += 1
        m["tensor.invert.unknowns_max"] = max(unknowns, default=0)
        m["tensor.invert.unknowns_sum"] = sum(unknowns)
        m["tensor.invert.failures"] = failures
        m["tensor.invert.distinct_ratio"] = (len(keys) / len(unknowns)
                                             if unknowns else 0.0)
        m["dsl.invert.calls"] = dsl_calls
        m["dsl.invert.self_s"] = dsl_self
        m["twisting.random_twist.invert_attempts"] = twist_attempts

        combos = sum(self.extra[i] for i in range(n)
                     if name[i] == "tensor.hom_sum")
        m["tensor.hom_sum.combos"] = combos

        m["dsl.check_line.calls"] = calls.get("dsl.check_line", 0)
        for nm in TOTALS:
            if nm not in BUILDERS:
                m[nm + ".total_s"] = total.get(nm, 0.0)
        m["datum.load.total_s"] = m.pop("datum.load_path.total_s")

        # ribbon search: points enumerated, and candidates per defining check
        found = sum(self.extra[i] for i in range(n)
                    if name[i] == "ribbon.find_ribbon")
        checks = sum(1 for i in range(n) if name[i] == "ribbon.is_ribbon"
                     and parent[i] >= 0 and name[parent[i]] == "ribbon.find_ribbon")
        m["ribbon.block_points"] = block_points
        m["ribbon.is_ribbon.calls"] = calls.get("ribbon.is_ribbon", 0)
        m["ribbon.candidates_per_check"] = found / checks if checks else 0.0

        m["examples.build.total_s"] = sum(total.get(b, 0.0) for b in BUILDERS)
        m["examples.dpr_double.verify_stacks"] = sum(
            1 for i in range(n) if name[i] == "datum.verify_quasi_bialgebra"
            and any(name[a] == "examples.dpr_double" for a in ancestors(i)))
        return m
