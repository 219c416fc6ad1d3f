"""The README's examples run as written, so that the documentation cannot drift."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import numpy as np

from tsketch import SketchAccumulator, cli, formats, make_plan, read_chunks, write_chunks
from tsketch.sketch import slab_chunks

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading, lang, containing=""):
    """The first ```lang block after the line `heading` that contains `containing`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return next(b for b in re.findall(rf"```{lang}\n(.*?)```", section, re.S) if containing in b)


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


def test_streaming_example_sketches_a_file_piece_by_piece(tmp_path, monkeypatch) -> None:
    """The `read_chunks` example, run on a small TSKC stream written here,
    gives the bundle of an accumulator fed the file's pieces, bit for bit."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(formats, "_PIECE_BYTES", 2 * 8 * 6 * 5)  # pieces of two slices
    x = np.random.default_rng(0).standard_normal((6, 5, 7))
    write_chunks("x.tskc", x.shape, slab_chunks(x, 3))
    plan = make_plan(x.shape, "kronecker", 3, 4, seed=1)
    scope = {"plan": plan}
    exec(fenced_block("### Streaming and merging", "python", "read_chunks("), scope)
    acc = SketchAccumulator(plan)
    for chunk in read_chunks("x.tskc"):
        acc.update(chunk)
    ref, got = acc.finalize(), scope["bundle"]
    assert not got.partial
    assert all(np.array_equal(a, b) for a, b in zip(ref.loo + [ref.core], got.loo + [got.core]))
