"""The README's examples run as written, so that the documentation cannot drift."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from tsketch import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading, lang):
    """The first ```lang block after the line `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_start_recovers_to_roundoff() -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_block("## Quick start", "python"), {})
    assert float(out.getvalue()) < 1e-12


def test_command_line_walkthrough_exits_zero(tmp_path, monkeypatch, capsys) -> None:
    """Each `echo '...' > file` line writes the file; each `tsketch` line runs
    through `tsketch.cli.main` and must exit 0."""
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in fenced_block("## Command line", "bash").splitlines():
        words = shlex.split(line)
        if not words:
            continue
        if words[0] == "echo":
            assert len(words) == 4 and words[2] == ">", line
            Path(words[3]).write_text(words[1] + "\n", encoding="utf-8")
        else:
            assert words[0] == "tsketch", line
            assert cli.main(words[1:]) == 0, (line, capsys.readouterr().err)
            ran.append(words[1])
    assert ran == ["gen", "sketch", "recover", "eval"]
