"""In-memory span tracer for semireg, installed from outside the package.

Each listed function is replaced by a recording wrapper at every module of
the package that binds it by name (found by identity, so a new
``from .mlp import forward`` is picked up without editing this table).
A span is (name, start, end, parent, failed, quantity); spans live in
compact arrays while the program runs and are written once at the end.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

# (span name, defining module, attribute path). A function listed here that
# no longer exists is reported as absent, not as an error.
TARGETS = (
    ("rng.dropout_mask", "semireg.rng", "sample_dropout_mask"),
    ("rng.split", "semireg.rng", "Rng.split"),
    ("matrix.wrap", "semireg.matrix", "Matrix._wrap"),
    ("matrix.init", "semireg.matrix", "Matrix.__init__"),
    ("mlp.forward", "semireg.mlp", "forward"),
    ("mlp.backward", "semireg.mlp", "backward"),
    ("mlp.save", "semireg.mlp", "save_model"),
    ("mlp.load", "semireg.mlp", "load_model"),
    ("losses.hetero", "semireg.losses", "hetero_loss"),
    ("losses.consistency", "semireg.losses", "consistency_loss_labeled"),
    ("losses.consistency", "semireg.losses", "consistency_loss_unlabeled"),
    ("ensemble.predict", "semireg.ensemble", "predict"),
    ("ensemble.predict.kernel", "semireg.ensemble", "generate_pseudo_labels"),
    ("ensemble.variance_check", "semireg.ensemble", "variance_reduction_check"),
    ("training.run", "semireg.training", "run_experiment"),
    ("training.step", "semireg.training", "train_step"),
    ("training.optimizer", "semireg.training", "optimizer_update"),
    ("data.build_split", "semireg.cli", "build_split"),
    ("evaluation.mae", "semireg.evaluation", "mae"),
    ("evaluation.r_squared", "semireg.evaluation", "r_squared"),
    ("evaluation.binning", "semireg.evaluation", "uncertainty_binning"),
    ("evaluation.spearman", "semireg.evaluation", "spearman_rank_corr"),
    ("evaluation.bin_csv", "semireg.evaluation", "write_bin_report_csv"),
    ("cli.train", "semireg.cli", "cmd_train"),
    ("cli.ablate", "semireg.cli", "cmd_ablate"),
    ("cli.variance_demo", "semireg.cli", "cmd_variance_demo"),
    ("cli.evaluate", "semireg.cli", "cmd_evaluate"),
)

# The in-step pseudo-label call is the one that goes through training's own
# binding; the same function reached from predict() is inference.
BINDING_NAMES = {("semireg.training", "generate_pseudo_labels"): "ensemble.pseudo_labels"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work done by one call, stored with its span.
QUANTITIES = {
    "rng.dropout_mask": lambda a, k: _arg(a, k, 1, "rows") * _arg(a, k, 2, "cols"),
    "mlp.forward": lambda a, k: _arg(a, k, 1, "x").shape[0],
    "ensemble.predict": lambda a, k: _arg(a, k, 2, "x").shape[0] * _arg(a, k, 3, "draws"),
}


def package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "semireg" or n.startswith("semireg.")]


def resolve(module_name, path):
    """(owner, attribute, function) for a listed target, or None when it is gone."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    raw = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, parts[-1], raw


def rebind(original, replacement_for):
    """Replace ``original`` wherever a package module binds it by name.

    ``replacement_for(module_name, attribute)`` builds the wrapper for one
    binding.
    """
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement_for(module.__name__, attr))


class Tracer:
    """Span recorder for one process; single-threaded, like the program."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.failed = array("b")
        self.qty = array("q")
        self._stack = [-1]
        self.absent: list[str] = []
        self._originals: list[tuple[str, object]] = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        name_id = self._id(name)
        quantity = QUANTITIES.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, failed, qty = self.parent, self.failed, self.qty

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            qty.append(quantity(args, kwargs) if quantity else 0)
            failed.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the root of one command)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        """Wrap every listed target at every module or class that binds it."""
        for name, module_name, path in TARGETS:
            found = resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr, raw = found
            if isinstance(owner, type):
                func = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self.wrap(name, func)
                setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                self._originals.append((f"{module_name}.{path}", func))
                continue
            self._originals.append((f"{module_name}.{path}", raw))
            rebind(
                raw,
                lambda mod, attr, raw=raw, name=name: self.wrap(
                    BINDING_NAMES.get((mod, attr), name), raw
                ),
            )

    def unwrapped_bindings(self):
        """Bindings of a listed function that bypass the tracer (must be empty)."""
        bad = []
        for label, func in self._originals:
            for module in package_modules():
                for attr, value in vars(module).items():
                    if value is func:
                        bad.append(f"{module.__name__}.{attr} -> {label}")
                    elif isinstance(value, type):
                        for key, member in vars(value).items():
                            if getattr(member, "__func__", member) is func:
                                bad.append(f"{module.__name__}.{attr}.{key} -> {label}")
        return sorted(set(bad))

    @staticmethod
    def span_cost_s(calls=20000, repeats=5):
        """Seconds one recorded span adds to a call: the tracer's own cost.

        Times a no-op called bare and through a recording wrapper, ``calls``
        times each, and takes the median difference per call over
        ``repeats`` rounds. It leaves out the per-call quantities of
        QUANTITIES, which only a few targets compute.
        """

        def noop():
            return None

        traced = Tracer().wrap("calibration", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                traced()
            t2 = clock()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(costs)

    def save(self, path):
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
            qty=np.frombuffer(self.qty, dtype=np.int64),
        )
