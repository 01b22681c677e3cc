"""The README against the package: every flag it writes after a
``convexkan`` command exists on that command, every command line of its bash
blocks parses, and every dotted name it quotes resolves, so that a flag or a
name that is gone from the package cannot live on in the docs."""
import functools
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import convexkan
from convexkan.cli import build_parser

README = (Path(__file__).parent.parent / "README.md").read_text()
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)


def commands():
    """The parser of each ``convexkan`` command, by name."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return sub.choices


def bash_lines():
    """Every ``convexkan`` line of the README's bash blocks."""
    return [ln.strip() for lang, body in FENCE.findall(README) if lang == "bash"
            for ln in body.splitlines() if ln.strip().startswith("convexkan ")]


def spans():
    """The README's code outside fenced blocks, one backtick span each,
    plus every line of its fenced blocks."""
    prose = FENCE.sub("", README)
    lines = [ln for _, body in FENCE.findall(README) for ln in body.splitlines()]
    return re.findall(r"`([^`]+)`", prose) + lines


def test_readme_has_command_lines():
    assert len(bash_lines()) >= 5


@pytest.mark.parametrize("line", bash_lines())
def test_bash_command_line_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])


def test_every_flag_after_a_command_exists():
    parsers, checked, unknown = commands(), 0, []
    for span in spans():
        words = span.split()
        if words[:1] == ["convexkan"]:
            words = words[1:]
        if not words or words[0] not in parsers:
            continue
        known = parsers[words[0]]._option_string_actions
        for flag in (w.split("=")[0] for w in words[1:] if w.startswith("--")):
            checked += 1
            if flag not in known:
                unknown.append(f"{words[0]} {flag}")
    assert unknown == []
    assert checked >= 10


def package_heads():
    """What a dotted name of the package starts with: ``convexkan``, one of
    its modules, or a class one of them defines."""
    heads = {"convexkan": convexkan}
    for info in pkgutil.iter_modules(convexkan.__path__):
        module = importlib.import_module(f"convexkan.{info.name}")
        heads[info.name] = module
        heads.update((name, obj) for name, obj in vars(module).items()
                     if inspect.isclass(obj) and obj.__module__ == module.__name__)
    return heads


def test_every_dotted_name_resolves():
    # such as `convexkan.training`, `bspline.local_rows` or `DeformationState.stress`;
    # file names such as `energy.sym` start with no name of the package
    heads, checked, missing = package_heads(), 0, []
    for span in re.findall(r"`([^`]+)`", FENCE.sub("", README)):
        if not re.fullmatch(r"\w+(\.\w+)+", span) or span.split(".")[0] not in heads:
            continue
        checked += 1
        first, *rest = span.split(".")
        try:
            functools.reduce(getattr, rest, heads[first])
        except AttributeError:
            missing.append(span)
    assert missing == []
    assert checked >= 22
