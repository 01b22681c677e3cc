"""In-memory span tracer that wraps the public entry points of each
``convexkan`` module from outside the package.

A span is (name, start, end, parent, job, work).  ``work`` is the layer's
work count for the call: evaluation points for spline and network calls,
file bytes for file I/O, 0 otherwise.  Spans are kept in flat arrays while
the run lasts and written once, at exit, by :meth:`Tracer.save`.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np


def _rows(arg) -> int:
    return int(np.atleast_2d(np.asarray(arg)).shape[0])


def _size(arg) -> int:
    return int(np.size(arg))


def _file_bytes(arg) -> int:
    try:
        return os.path.getsize(arg)
    except (OSError, TypeError):
        return 0


# span name -> (targets, work counter applied to the first call argument).
# A target "module:attr" is a module-level function; it is patched in every
# convexkan namespace that holds the same object (``from .fem import solve``
# copies the name into cli).  "module:Class.attr" patches a class attribute,
# and "module:Class.attr+" also patches each subclass that overrides it.
# "scipy:..." names the scipy module that fem calls through ``spla``.
SPANS = {
    "bspline.design_rows": (["bspline:BSplineCurve.design_rows"], _size),
    "bspline.reparameterize": (["bspline:reparameterize"], None),
    "network.forward_cache": (["network:KANModel._forward_cache"], None),
    "network.backward_batch": (["network:KANModel.backward_batch"], None),
    "network.set_parameter_vector": (["network:KANModel.set_parameter_vector"], None),
    "network.input_derivatives": (
        ["network:KANModel.forward_with_input_derivatives"], _rows),
    "network.forward": (["network:KANModel.forward"], _rows),
    "training.loss_and_grad": (["training:loss_and_grad"], None),
    "training.element_states": (["training:ElementStates.__init__"], None),
    "training.train": (["training:train"], None),
    "mechanics.compute_state": (["mechanics:compute_state"], None),
    "mechanics.stress": (["mechanics:MaterialModel.stress+"], None),
    "mechanics.tangent": (["mechanics:MaterialModel.tangent+"], None),
    "mechanics.energy": (["mechanics:MaterialModel.energy+"], None),
    "fem.solve": (["fem:solve"], None),
    "fem.nodal_forces": (["fem:nodal_forces"], None),
    "fem.scatter_forces": (["fem:scatter_forces"], None),
    "fem.tangent_matrix": (["fem:tangent_matrix"], None),
    "fem.spsolve": (["scipy:spsolve"], None),
    "fem.deformation_gradients": (["fem:deformation_gradients"], None),
    "symbolic.fit_activation": (["symbolic:fit_activation"], None),
    "symbolic.distill": (["symbolic:distill"], None),
    "symbolic.vgh": (["symbolic:SymbolicEnergy.vgh"], None),
    "cli.io": (
        [
            "fem:Mesh.load", "fem:Mesh.save",
            "fem:SpecimenDataset.load", "fem:SpecimenDataset.save",
            "network:KANModel.load", "network:KANModel.save",
            "symbolic:SymbolicEnergy.load", "symbolic:SymbolicEnergy.save",
            "cli:ParityReport.write_csv", "cli:_save_displacements",
        ],
        _file_bytes,
    ),
}

# the root span the harness opens around each ``cli.main`` call; its self
# time is the command body outside every span above
ROOT = "cli.command"
NAMES = [ROOT, *SPANS]


FIELDS = {"name": "i", "start": "d", "end": "d", "parent": "i", "job": "i", "work": "q"}


class Tracer:
    """Records spans into flat arrays; ``job`` tags every span opened."""

    def __init__(self):
        for key, typecode in FIELDS.items():
            setattr(self, key, array(typecode))
        self.stack = []
        self.current_job = -1
        self._undo = []

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.current_job)
        self.work.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, work: int = 0):
        self.end[idx] = time.perf_counter()
        self.work[idx] = work
        self.stack.pop()

    def _wrap(self, name: str, fn, work):
        name_id = NAMES.index(name)
        tracer = self
        # methods receive ``self`` or ``cls`` first; the counted input follows
        counted = 1 if "." in fn.__qualname__ else 0

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = tracer.open(name_id)
            count = 0
            try:
                return fn(*args, **kwargs)
            finally:
                if work is not None:
                    count = work(args[counted] if len(args) > counted else None)
                tracer.close(idx, count)

        return span

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every target in SPANS; :meth:`uninstall` restores them."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        import scipy.sparse.linalg

        packages = {m: mod for m, mod in sys.modules.items()
                    if m == "convexkan" or m.startswith("convexkan.")}
        for name, (targets, work) in SPANS.items():
            for target in targets:
                modname, _, attr = target.partition(":")
                if modname == "scipy":
                    self._set(scipy.sparse.linalg, attr,
                              self._wrap(name, getattr(scipy.sparse.linalg, attr), work))
                    continue
                module = packages[f"convexkan.{modname}"]
                if "." not in attr:
                    original = getattr(module, attr)
                    wrapped = self._wrap(name, original, work)
                    for mod in packages.values():
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, key, wrapped)
                    continue
                clsname, _, meth = attr.partition(".")
                with_subclasses = meth.endswith("+")
                meth = meth.rstrip("+")
                classes = [getattr(module, clsname)]
                if with_subclasses:
                    classes += _subclasses(classes[0])
                for cls in classes:
                    if meth in vars(cls):
                        self._patch_method(cls, meth, name, work)

    def _patch_method(self, cls, meth, name, work):
        raw = inspect.getattr_static(cls, meth)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, work))
        else:
            wrapped = self._wrap(name, raw, work)
        self._set(cls, meth, wrapped)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict:
        return {k: np.array(getattr(self, k)) for k in FIELDS}

    def save(self, path):
        np.savez(path, names=np.array(NAMES), **self.arrays())


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out += _subclasses(sub)
    return out


def self_times(spans: dict) -> np.ndarray:
    """Span duration minus the time covered by its direct children."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    return dur - child


def job_layer_metrics(spans: dict, job: int) -> dict:
    """Per-layer metrics of one traced job, keyed by metric name."""
    sel = spans["job"] == job
    names = spans["name"][sel]
    self_s = self_times(spans)[sel]
    work = spans["work"][sel]
    calls = np.bincount(names, minlength=len(NAMES))
    self_sum = np.bincount(names, weights=self_s, minlength=len(NAMES))
    work_sum = np.bincount(names, weights=work, minlength=len(NAMES))
    out = {}
    for k, name in enumerate(NAMES):
        out[f"{name}.calls"] = int(calls[k])
        out[f"{name}.self_s"] = float(self_sum[k])
        out[f"{name}.work"] = int(work_sum[k])

    # epochs: gaps between successive loss_and_grad starts inside one train
    lg = np.flatnonzero(sel & (spans["name"] == NAMES.index("training.loss_and_grad")))
    epochs = []
    for parent in np.unique(spans["parent"][lg]):
        starts = np.sort(spans["start"][lg[spans["parent"][lg] == parent]])
        epochs.extend(np.diff(starts) * 1e3)
    out["epoch_ms"] = epochs

    # stress calls made directly by a force assembly
    nf = NAMES.index("fem.nodal_forces")
    is_stress = sel & (spans["name"] == NAMES.index("mechanics.stress"))
    parents = spans["parent"][is_stress]
    out["stress_in_assembly"] = int(np.sum(spans["name"][parents[parents >= 0]] == nf))
    return out
