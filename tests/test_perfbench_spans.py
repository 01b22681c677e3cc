"""Every target of the benchmark's spans (``perfbench/spans.py``'s ``SPANS``)
resolves in the package.  ``Tracer.install`` passes over a method that is
gone without a word, so a renamed or deleted method would leave its span
reading 0 calls on every workload."""
import importlib
import importlib.util
from pathlib import Path

import scipy.sparse.linalg

SPANS_PY = Path(__file__).parent.parent / "perfbench" / "spans.py"

# targets that name nothing, each with the reason it stays in SPANS
DEAD = {
    "network:KANModel.set_parameter_vector":
        "no method writes a parameter vector any more: training steps KANModel.raw "
        "in place; the span goes with the benchmark's own change (ROADMAP item 1)",
}


_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def resolves(target) -> bool:
    """Whether ``Tracer.install`` finds something to patch for the target:
    a "module:attr" function, or a "module:Class.attr" that the class
    defines itself ("+": the class or one of its subclasses)."""
    modname, _, attr = target.partition(":")
    if modname == "scipy":
        return hasattr(scipy.sparse.linalg, attr)
    module = importlib.import_module(f"convexkan.{modname}")
    if "." not in attr:
        return callable(getattr(module, attr, None))
    clsname, _, meth = attr.partition(".")
    cls = getattr(module, clsname, None)
    if cls is None:
        return False
    classes = [cls] + spans._subclasses(cls) if meth.endswith("+") else [cls]
    return any(meth.rstrip("+") in vars(c) for c in classes)


def test_every_span_target_resolves():
    targets = [target for targets, _ in spans.SPANS.values() for target in targets]
    assert len(targets) > 20 and "training:ElementStates.__init__" in targets
    dead = sorted(target for target in targets if not resolves(target))
    assert dead == sorted(DEAD), "mend the target, or list it in DEAD with its reason"
