"""The README's examples run as shown."""
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import sessionpi.cli as cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def quick_start() -> list[tuple[str, str]]:
    """Each `$ sessionpi …` command of the Quick start, with the text
    shown after it."""
    out = []
    for block in blocks(section("Quick start"), "text"):
        for cmd in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, _, shown = cmd.partition("\n")
            out.append((line, shown.rstrip("\n") + "\n"))
    return out


def test_the_quick_start_has_examples():
    assert len(quick_start()) >= 7


@pytest.mark.parametrize("line, shown", quick_start())
def test_quick_start_commands_print_what_the_readme_shows(
        monkeypatch, line, shown):
    monkeypatch.chdir(ROOT)
    prog, *argv = shlex.split(line)
    assert prog == "sessionpi"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    assert out.getvalue() == shown


def test_the_library_use_blocks_run(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    codes = blocks(section("Library use"), "python")
    assert codes
    for code in codes:
        exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out
