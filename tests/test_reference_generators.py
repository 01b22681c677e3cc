"""The scripts that write the committed regression fixtures still run and
still write what was committed: each ``tests/data/make_*_reference.py``
rewrites its ``.npz`` into a temporary directory, and every array is checked
against the committed one within the tolerance its reference test uses."""
import importlib.util
from pathlib import Path

import numpy as np
import numpy.testing as npt

DATA = Path(__file__).parent / "data"


def regenerate(name, tmp_path):
    """Run ``make_<name>_reference.main`` into ``tmp_path``; return the
    committed arrays and the fresh ones, with the same keys and shapes."""
    spec = importlib.util.spec_from_file_location(f"make_{name}_reference",
                                                  DATA / f"make_{name}_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(path=tmp_path / f"{name}.npz")
    want, got = np.load(DATA / f"{name}_reference_v1.npz"), np.load(tmp_path / f"{name}.npz")
    assert sorted(got.files) == sorted(want.files)
    for key in want.files:
        assert got[key].shape == want[key].shape, key
    return want, got


def close_to_largest(got, want, tol, key):
    npt.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max(), err_msg=key)


def test_mechanics_reference(tmp_path):
    want, got = regenerate("mechanics", tmp_path)
    # the committed Ogden stress and tangent are central differences
    difference_error = {"_OG_P": 1e-9, "_OG_T": 1e-5}
    for key in want.files:
        # K, the invariants and every energy are exact, but for the network's:
        # its control points were nudged by ulps where they are now rounded
        # onto one grid per row
        exact = key.startswith("F") or key.endswith("_K") or any(
            key.endswith("_" + name) for name in ("I1", "I2", "I3", "J", "I1_tilde", "I2_star"))
        exact |= key.endswith("_W") and not key.endswith("_ICKAN_W")
        if exact:
            npt.assert_array_equal(got[key], want[key], err_msg=key)
        else:
            close_to_largest(got[key], want[key], difference_error.get(key[1:], 1e-13), key)


def test_loss_grad_reference(tmp_path):
    want, got = regenerate("loss_grad", tmp_path)
    inputs = ("nodes", "triangles", "deltas", "displacements", "reactions", "K_fixed", "seed_g")
    for key in want.files:
        if key in inputs:
            npt.assert_array_equal(got[key], want[key], err_msg=key)
        elif key.endswith("_loss"):
            npt.assert_allclose(got[key], want[key], rtol=1e-12, err_msg=key)
        elif key.endswith("_grad"):  # relative to each member's largest entry
            for g, w in zip(got[key], want[key]):
                npt.assert_allclose(g, w, rtol=0, atol=1e-12 * np.abs(w).max(), err_msg=key)
        else:  # forward, W and constrained G to 1e-13; vanilla G, H, seeded to 1e-12
            tight = key.endswith(("_forward", "_W")) or (
                key.endswith("_G") and key.startswith("constrained"))
            tol = 1e-13 if tight else 1e-12
            npt.assert_allclose(got[key], want[key], rtol=0,
                                atol=tol * np.abs(want[key]).max(), err_msg=key)


def test_train_reference(tmp_path):
    # loss_grad_reference's gradient tolerance: 1e-12 of each member's largest
    # entry (the selected parameters are one member, each final loss its own)
    want, got = regenerate("train", tmp_path)
    for key in want.files:
        rows = len(want[key])
        for g, w in zip(got[key].reshape(rows, -1), want[key].reshape(rows, -1)):
            npt.assert_allclose(g, w, rtol=0, atol=1e-12 * np.abs(w).max(), err_msg=key)


def test_distill_reference(tmp_path):
    # (a, b, c, d) may move where an activation's candidate residuals tie
    want, got = regenerate("distill", tmp_path)
    npt.assert_array_equal(got["candidate"], want["candidate"])
    for key in ("r2", "parity_r2"):
        npt.assert_allclose(got[key], want[key], rtol=0.0, atol=1e-12, err_msg=key)
    for key in ("W", "G", "H_upper"):
        for g, w in zip(got[key], want[key]):  # one row per seed
            close_to_largest(g, w, 1e-13, key)

