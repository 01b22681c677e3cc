"""The README's command lines against the parser: every flag it writes after
a ``convexkan`` command exists on that command, and every command line of
its bash blocks parses, so that a flag that is gone from the CLI cannot live
on in the docs."""
import re
import shlex
from pathlib import Path

import pytest

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
