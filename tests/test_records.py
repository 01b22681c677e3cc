"""Mutation corpus over the record files: for every record of a mesh, a
dataset and a checkpoint written by the library, the file with that record
dropped, duplicated, with a value appended, or with its first number set to
nan must be refused with DataError by the reader and with exit 2 by the CLI."""
import pytest

from convexkan.cli import main
from convexkan.errors import DataError
from convexkan.fem import (
    Mesh,
    SpecimenDataset,
    biaxial_partition,
    generate_dataset,
    unit_square_hole_mesh,
)
from convexkan.mechanics import NeoHookean
from convexkan.network import VANILLA, KANModel
from convexkan.records import Records
from convexkan.symbolic import SymbolicEnergy

READERS = {"mesh": Mesh, "dataset": SpecimenDataset, "checkpoint": KANModel}


def _is_number(word):
    try:
        float(word)
    except ValueError:
        return False
    return True


def mutate(lines, k, how):
    """``lines`` with record ``k`` mutated ``how``; None when the record has
    no number to set to nan."""
    if how == "drop":
        return lines[:k] + lines[k + 1 :]
    if how == "duplicate":
        return lines[: k + 1] + lines[k:]
    if how == "append":
        return lines[:k] + [lines[k] + " 0"] + lines[k + 1 :]
    words = lines[k].split()
    first = next((m for m, w in enumerate(words) if _is_number(w)), None)
    if first is None:
        return None
    return lines[:k] + [" ".join(words[:first] + ["nan"] + words[first + 1 :])] + lines[k + 1 :]


def sources():
    """(kind, text) of each file the corpus starts from."""
    mesh = unit_square_hole_mesh(n=5)
    ds = generate_dataset(mesh, biaxial_partition(mesh), NeoHookean(), [0.05, 0.1],
                          noise_sigma=1e-4, seed=1)
    return [
        ("mesh", mesh.dumps()),
        ("dataset", ds.dumps()),
        ("checkpoint", KANModel.create(rng=0).dumps()),
        ("checkpoint", KANModel.create(mode=VANILLA, rng=1).dumps()),
    ]


MUTATIONS = ("drop", "duplicate", "append", "nan")


def corpus(kinds=READERS, mutations=MUTATIONS):
    """(kind, label, text) of every mutated file."""
    out = []
    for kind, text in sources():
        if kind not in kinds:
            continue
        lines = text.splitlines()
        for how in mutations:
            for k in range(len(lines)):
                changed = mutate(lines, k, how)
                if changed is not None:
                    out.append((kind, f"{how} record {k + 1} {lines[k][:40]!r}",
                                "\n".join(changed) + "\n"))
    return out


def test_sources_load_and_round_trip():
    for kind, text in sources():
        assert READERS[kind].loads(text).dumps() == text


@pytest.mark.parametrize("how", MUTATIONS)
@pytest.mark.parametrize("kind", sorted(READERS))
def test_mutated_record_rejected(kind, how):
    files = corpus([kind], [how])
    assert len(files) > 40
    accepted = []
    for _, label, text in files:
        try:
            READERS[kind].loads(text)
        except DataError as exc:
            # the message names the file kind and where in it
            assert str(exc).startswith(f"{kind} file, "), str(exc)
            continue
        accepted.append(label)
    assert accepted == []


# one command per file kind that reads it before any work
COMMANDS = {
    "mesh": ["generate", "--model", "NH", "--steps", "1", "--mesh"],
    "dataset": ["train", "--epochs", "1", "--ensemble", "1", "--dataset"],
    "checkpoint": ["distill", "--checkpoint"],
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_cli_exits_2_on_every_mutated_file(kind, tmp_path, capsys):
    path, out = tmp_path / "input", tmp_path / "out"
    for _, label, text in corpus([kind]):
        path.write_text(text)
        assert main([*COMMANDS[kind], str(path), "--out", str(out)]) == 2, label
        assert f"error: {kind} file, " in capsys.readouterr().err, label
    assert not out.exists()


# headers whose counts would ask for terabytes: the reader builds its
# arrays from the records it reads, so each is refused where the file ends
# short of what the header promised
@pytest.mark.parametrize("record, header, message", [
    ("dims 3 2 1", "dims 3 100000000000 1",
     "line 36: activation 0,2,0: expected activation 0,2,0, got activation 1 0 0"),
    ("n_coef 17", "n_coef 100000000000",
     "line 10: activation 0,0,0: expected 'raw <100000000000 x %f>', got 'raw "),
])
def test_checkpoint_header_sizes_nothing(tmp_path, capsys, record, header, message):
    path, out = tmp_path / "model.ckpt", tmp_path / "out"
    path.write_text(KANModel.create(rng=0).dumps().replace(f"\n{record}\n", f"\n{header}\n", 1))
    assert main([*COMMANDS["checkpoint"], str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: checkpoint file, {message}")
    assert not out.exists()


@pytest.mark.parametrize("count", [4, 10**7, 10**11])
def test_refusal_states_a_long_count(count):
    want = rf"^checkpoint file, line 1: expected 'raw <{count} x %f>', got 'raw 1 2'$"
    with pytest.raises(DataError, match=want):
        Records("raw 1 2\n", "checkpoint").take("raw", count)


# a refusal quotes a record by its tag, first three values and value count,
# however long the record or its words
@pytest.mark.parametrize("text, args", [
    ("raw " + " ".join(["1.5"] * 10**5), ("raw", 17)),
    ("raw 1 2 inf " + " ".join(["1"] * 10**5), ("raw", None)),
    ("raw 1 " + "x" * 10**5, ("raw", None)),
    ("dims 3 " + "9" * 1000 + " 1", ("dims", None, "%d")),
])
def test_refusal_quotes_a_long_record_briefly(text, args):
    with pytest.raises(DataError, match="^checkpoint file, line 1: ") as err:
        Records(text + "\n", "checkpoint").take(*args)
    assert len(str(err.value)) < 200, str(err.value)[:300]
    with pytest.raises(DataError, match="^checkpoint file, line 2: expected the end") as err:
        with Records("end\n" + text + "\n", "checkpoint") as records:
            records.take("end")
    assert len(str(err.value)) < 200, str(err.value)[:300]


# so is a long word in a slot that the checkpoint and expression readers
# check themselves, after Records has taken the record
LONG = "x" * 10**5


@pytest.mark.parametrize("kind, text", [
    ("checkpoint", KANModel.create(rng=0).dumps().replace("\nmode constrained", f"\nmode {LONG}")),
    *(("symbolic", f"convexkan-symbolic v1\n\nenergy {expr}\n") for expr in (
        LONG,  # an unknown token
        f"const {LONG}", f"affine 0 0.5 {LONG} 1.5", f"scaled {LONG} 0 exp var K1",
        f"var {LONG}", f"softplus {LONG} var K1", f"add {LONG} var K1",
        f"var K1 {LONG}", "var K1" + " K2" * 10**5,  # trailing tokens
    )),
], ids=["mode", "token", "const", "affine", "scaled", "var", "softplus", "add", "trailing_word",
        "trailing_tokens"])
def test_refusal_quotes_a_long_word_briefly(kind, text):
    reader = {"checkpoint": KANModel, "symbolic": SymbolicEnergy}[kind]
    line = 2 if kind == "checkpoint" else 3
    with pytest.raises(DataError, match=f"^{kind} file, line {line}: ") as err:
        reader.loads(text)
    assert len(str(err.value)) < 200, str(err.value)[:300]


def test_unknown_variable_named():
    with pytest.raises(DataError, match=r"^symbolic file, line 2: unknown variable 'K4', "
                                        "expected K1, K2 or K3$"):
        SymbolicEnergy.loads("convexkan-symbolic v1\nenergy var K4\n")


def test_line_numbers_count_blank_lines():
    text = "\n\n" + unit_square_hole_mesh(n=5).dumps().replace("\n", "\n\n", 3)
    lines = text.splitlines()
    row = next(k for k, ln in enumerate(lines) if ln.count(" ") == 2)  # a triangle
    lines[row] += " 0"
    with pytest.raises(DataError, match=rf"^mesh file, line {row + 1}: "):
        Mesh.loads("\n".join(lines))


def test_reading_stops_at_the_end_of_the_file():
    text = unit_square_hole_mesh(n=5).dumps().splitlines()
    with pytest.raises(DataError, match="^mesh file, end of file: expected '%d %d %d'"):
        Mesh.loads("\n".join(text[:-1]))


# refusals of what the records mean, raised once they are read: each names
# the record it is about
def _with_mesh_block(kind, edit):
    """A ``kind`` file whose mesh block (header, node rows, triangle rows)
    ``edit(mesh, lines)`` rewrote, and the line number of the block's header."""
    mesh = unit_square_hole_mesh(n=5)
    block = "\n".join(edit(mesh, mesh.dumps().splitlines())) + "\n"
    if kind == "mesh":
        return mesh, block, 1
    ds = generate_dataset(mesh, biaxial_partition(mesh), NeoHookean(), [0.05])
    return mesh, ds.dumps().replace(mesh.dumps(), block, 1), 3


def _dataset():
    return _with_mesh_block("dataset", lambda mesh, lines: lines)[1]


@pytest.mark.parametrize("kind", ["mesh", "dataset"])
def test_node_in_no_triangle_named_at_its_row(kind):
    def orphan(mesh, lines):
        header = f"nodes {mesh.n_nodes + 1} triangles {mesh.n_elements}"
        return [header, *lines[1 : 1 + mesh.n_nodes], "0.5 0.5", *lines[1 + mesh.n_nodes :]]

    mesh, text, first = _with_mesh_block(kind, orphan)
    row = first + 1 + mesh.n_nodes  # the new node's row
    with pytest.raises(DataError, match=rf"^{kind} file, line {row}: "
                                        rf"node {mesh.n_nodes} belongs to no triangle$"):
        READERS[kind].loads(text)


@pytest.mark.parametrize("kind", ["mesh", "dataset"])
def test_node_index_out_of_range_named_at_its_row(kind):
    def out_of_range(mesh, lines):
        k = 1 + mesh.n_nodes + 3  # triangle 3
        a, b, _ = lines[k].split()
        return [*lines[:k], f"{a} {b} {mesh.n_nodes}", *lines[k + 1 :]]

    mesh, text, first = _with_mesh_block(kind, out_of_range)
    row = first + 1 + mesh.n_nodes + 3
    with pytest.raises(DataError, match=rf"^{kind} file, line {row}: triangle node index "
                                        rf"{mesh.n_nodes} out of range for {mesh.n_nodes} nodes$"):
        READERS[kind].loads(text)


@pytest.mark.parametrize("kind", ["mesh", "dataset"])
def test_degenerate_triangle_named_at_its_row(kind):
    def flatten(mesh, lines):
        k = 1 + mesh.n_nodes + 3  # triangle 3
        a, b, _ = lines[k].split()
        return [*lines[:k], f"{a} {b} {a}", *lines[k + 1 :]]

    mesh, text, first = _with_mesh_block(kind, flatten)
    row = first + 1 + mesh.n_nodes + 3
    with pytest.raises(DataError, match=rf"^{kind} file, line {row}: "
                                        r"degenerate \(zero-area\) triangle in mesh$"):
        READERS[kind].loads(text)


def test_negative_noise_sigma_named_at_its_record():
    text = _dataset().replace("\nnoise_sigma 0\n", "\nnoise_sigma -1\n", 1)
    with pytest.raises(DataError, match=r"^dataset file, line 2: "
                                        r"noise_sigma must be finite and >= 0, got -1.0$"):
        SpecimenDataset.loads(text)


def test_no_snapshots_named_at_its_record():
    text = _dataset().partition("\nsnapshots ")[0] + "\nsnapshots 0\n"
    row = len(text.splitlines())
    with pytest.raises(DataError, match=rf"^dataset file, line {row}: dataset has no snapshots$"):
        SpecimenDataset.loads(text)


@pytest.mark.parametrize("group, at, refusal", [
    ("left", 0, "unknown_node"),
    ("top", 2, "bad_component"),
    ("right", 1, "shared_dof"),
])
def test_bad_dof_row_named_at_its_line(group, at, refusal):
    lines = _dataset().splitlines()
    first = lines.index(next(ln for ln in lines if ln.startswith("group ")))
    row = lines.index(next(ln for ln in lines if ln.startswith(f"group {group} "))) + 1 + at
    node, comp = lines[first + 1].split()  # the first group's first DOF
    lines[row], message = {
        "unknown_node": ("999 0", f"group '{group}' references unknown node"),
        "bad_component": ("0 2", f"group '{group}' has a bad component index"),
        "shared_dof": (f"{node} {comp}",
                       rf"DOF \({node}, {comp}\) appears in more than one fixed group"),
    }[refusal]
    with pytest.raises(DataError, match=rf"^dataset file, line {row + 1}: {message}$"):
        SpecimenDataset.loads("\n".join(lines) + "\n")
