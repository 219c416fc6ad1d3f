"""Command-line pipeline: gen -> sketch -> recover -> eval, plus experiment sweeps."""

import ast
import csv
import json
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

import tsketch
import tsketch.cli
from tsketch import formats
from tsketch.ensembles import FAMILIES
from tsketch.cli import CSV_COLUMNS, main
from tsketch.errors import EXIT_CODES, RankError
from tsketch.evaluate import add_noise_snr, gen_lowrank, gen_superdiag_poly, hosvd_truncate, relative_error, snr_db
from tsketch.formats import (
    read_bundle,
    read_factorization,
    read_tensor,
    write_bundle,
    write_chunks,
    write_factorization,
    write_tensor,
)
from tsketch.recover import one_pass, reconstruct, two_pass
from tsketch.sketch import LOO_KINDS, SlabChunk, make_plan, sketch, slab_chunks
from tsketch.tensor import norm


def run(*argv):
    return main(list(argv))


def run_python(*argv, stdout=subprocess.PIPE):
    """`python argv...` in a child process that imports this tsketch, installed or not."""
    paths = [str(Path(tsketch.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def read_rows(path):
    with open(path) as f:
        first = f.readline()
        assert first.startswith("# tsketch-csv v")
        return list(csv.DictReader(f))


@pytest.fixture
def pipeline_files(tmp_path):
    """A generated tensor plus configs shared by the pipeline tests."""
    gen_cfg = write_json(
        tmp_path / "gen.json",
        {"generator": "lowrank", "n": 14, "d": 3, "r_true": 3, "seed": 5},
    )
    sketch_cfg = write_json(
        tmp_path / "sketch.json", {"loo_kind": "kronecker", "m": 6, "m_c": 8, "seed": 21}
    )
    tensor = tmp_path / "x.tnsr"
    assert run("gen", "--config", gen_cfg, "--output", str(tensor)) == 0
    return tmp_path, gen_cfg, sketch_cfg, tensor


def test_end_to_end_exact_recovery(pipeline_files, capsys) -> None:
    tmp, _, sketch_cfg, tensor = pipeline_files
    bundle = tmp / "b.tskb"
    tuck = tmp / "t.tuck"
    assert run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle)) == 0
    assert run("recover", "--input", str(bundle), "--output", str(tuck), "--rank", "3") == 0
    assert run("eval", "--input", str(tuck), "--chunks", str(tensor)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 3
    assert report["shape"] == [14, 14, 14]
    assert report["relative_error"] < 1e-8


def test_recover_never_needs_the_tensor(pipeline_files) -> None:
    """One-pass recovery works after the data file is gone for good."""
    tmp, _, sketch_cfg, tensor = pipeline_files
    bundle = tmp / "b.tskb"
    assert run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle)) == 0
    tensor.unlink()
    assert run("recover", "--input", str(bundle), "--output", str(tmp / "t.tuck"), "--rank", "3") == 0


def test_two_pass_via_chunks(pipeline_files, capsys) -> None:
    tmp, _, sketch_cfg, tensor = pipeline_files
    bundle = tmp / "b.tskb"
    tuck = tmp / "t2.tuck"
    run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
    assert (
        run(
            "recover", "--input", str(bundle), "--output", str(tuck),
            "--rank", "3", "--two-pass", "--chunks", str(tensor),
        )
        == 0
    )
    assert run("eval", "--input", str(tuck), "--chunks", str(tensor)) == 0
    assert json.loads(capsys.readouterr().out)["relative_error"] < 1e-8


def test_sketching_a_chunk_stream_matches_the_whole_file(pipeline_files) -> None:
    tmp, gen_cfg, sketch_cfg, tensor = pipeline_files
    # same tensor written as a single-slab stream: bundles are byte-identical
    cfg = json.loads((tmp / "gen.json").read_text())
    stream1 = tmp / "x1.tskc"
    run("gen", "--config", write_json(tmp / "g1.json", {**cfg, "slabs": 1}), "--output", str(stream1))
    b_file, b_one = tmp / "bf.tskb", tmp / "b1.tskb"
    run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(b_file))
    run("sketch", "--config", sketch_cfg, "--chunks", str(stream1), "--output", str(b_one))
    assert b_file.read_bytes() == b_one.read_bytes()

    # multi-slab streaming agrees to rounding
    stream5 = tmp / "x5.tskc"
    run("gen", "--config", write_json(tmp / "g5.json", {**cfg, "slabs": 5}), "--output", str(stream5))
    b_five = tmp / "b5.tskb"
    run("sketch", "--config", sketch_cfg, "--chunks", str(stream5), "--output", str(b_five))
    ref, got = read_bundle(b_file), read_bundle(b_five)
    for a, b in zip(ref.loo + [ref.core], got.loo + [got.core]):
        assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


def test_gen_writes_slab_views_byte_for_byte_as_copies(tmp_path) -> None:
    """`gen` with `slabs` set writes views of its tensor's slabs, byte for
    byte what it wrote from a contiguous copy of each."""
    cfg = {"generator": "lowrank", "n": 9, "d": 3, "r_true": 2, "snr_db": 30.0, "seed": 4}
    whole, stream, copies = tmp_path / "x.tnsr", tmp_path / "x.tskc", tmp_path / "copies.tskc"
    assert run("gen", "--config", write_json(tmp_path / "g.json", cfg), "--output", str(whole)) == 0
    assert run("gen", "--config", write_json(tmp_path / "g3.json", {**cfg, "slabs": 3}),
               "--output", str(stream)) == 0
    x = read_tensor(whole)
    write_chunks(copies, x.shape, [SlabChunk(c.start, c.count, np.ascontiguousarray(c.payload))
                                   for c in slab_chunks(x, 3)])
    assert stream.read_bytes() == copies.read_bytes()


def test_eval_against_chunk_stream_and_clean(pipeline_files, capsys) -> None:
    tmp, gen_cfg, sketch_cfg, tensor = pipeline_files
    noisy_cfg = {**json.loads((tmp / "gen.json").read_text()), "snr_db": 30.0, "slabs": 4}
    stream = tmp / "noisy.tskc"
    run("gen", "--config", write_json(tmp / "gn.json", noisy_cfg), "--output", str(stream))
    bundle, tuck = tmp / "bn.tskb", tmp / "tn.tuck"
    run("sketch", "--config", sketch_cfg, "--chunks", str(stream), "--output", str(bundle))
    run("recover", "--input", str(bundle), "--output", str(tuck), "--rank", "3")
    eval_cfg = write_json(tmp / "ev.json", {"clean": str(tensor)})
    out = tmp / "report.json"
    assert (
        run("eval", "--config", eval_cfg, "--input", str(tuck), "--chunks", str(stream),
            "--output", str(out))
        == 0
    )
    report = json.loads(out.read_text())
    assert report["snr_db"] == pytest.approx(30.0, abs=1e-6)
    assert report["relative_error_clean"] < 0.05
    assert report["relative_error"] < 0.05


def write_slabs(path, x, ranges):
    write_chunks(path, x.shape, [SlabChunk(lo, hi - lo, x[..., lo:hi]) for lo, hi in ranges])


def test_streamed_second_look_matches_dense(tmp_path) -> None:
    """recover --two-pass and eval read a TNSR file or a TSKC stream slab by
    slab (uneven, out-of-order records; the clean tensor chunked differently)
    and agree with the dense library calls to 1e-13."""
    x0, _ = gen_lowrank(14, 3, 3, seed=17)
    x = add_noise_snr(x0, 25.0, seed=18)
    b = sketch(x, make_plan(x.shape, "kronecker", 6, 8, seed=19))
    bundle = tmp_path / "b.tskb"
    write_bundle(bundle, b)
    write_slabs(tmp_path / "x.tskc", x, [(9, 14), (0, 3), (3, 9)])
    write_tensor(tmp_path / "x.tnsr", x)
    write_slabs(tmp_path / "x0.tskc", x0, [(0, 7), (7, 14)])
    write_tensor(tmp_path / "x0.tnsr", x0)
    x_hat = reconstruct(two_pass(b, x, 3))
    dense = {
        "relative_error": relative_error(x_hat, x),
        "relative_error_clean": relative_error(x_hat, x0),
        "snr_db": snr_db(x, x0),
    }
    for observed, clean in [("x.tskc", "x0.tskc"), ("x.tnsr", "x0.tskc"), ("x.tskc", "x0.tnsr")]:
        tuck, out = tmp_path / "t.tuck", tmp_path / "e.json"
        assert run("recover", "--input", str(bundle), "--output", str(tuck), "--rank", "3",
                   "--two-pass", "--chunks", str(tmp_path / observed)) == 0
        assert norm(reconstruct(read_factorization(tuck)) - x_hat) <= 1e-13 * norm(x_hat)
        cfg = write_json(tmp_path / "ev.json", {"clean": str(tmp_path / clean)})
        assert run("eval", "--config", cfg, "--input", str(tuck),
                   "--chunks", str(tmp_path / observed), "--output", str(out)) == 0
        report = json.loads(out.read_text())
        for key, value in dense.items():
            assert report[key] == pytest.approx(value, rel=1e-13, abs=0.0), (observed, clean, key)


@pytest.mark.parametrize("piece_slices", [None, 3], ids=["one-piece", "3-slice-pieces"])
def test_every_file_of_a_tensor_gives_one_bundle(pipeline_files, monkeypatch, piece_slices) -> None:
    """The sketch reads pieces at fixed last-mode positions, whatever the
    records: TNSR and TSKC files of one tensor give byte-identical bundles."""
    tmp, _, sketch_cfg, tensor = pipeline_files
    if piece_slices:
        monkeypatch.setattr(formats, "_PIECE_BYTES", piece_slices * 8 * 14 * 14)
    x = read_tensor(tensor)
    files = [tensor]
    for name, ranges in [("x1.tskc", [(0, 14)]),
                         ("x5.tskc", [(11, 14), (0, 2), (5, 8), (2, 5), (8, 11)]),
                         ("xs.tskc", [(k, k + 1) for k in range(14)])]:
        write_slabs(tmp / name, x, ranges)
        files.append(tmp / name)
    bundles = []
    for path in files:
        out = tmp / f"{path.name}.tskb"
        assert run("sketch", "--config", sketch_cfg, "--chunks", str(path), "--output", str(out)) == 0
        bundles.append(out.read_bytes())
    assert all(b == bundles[0] for b in bundles[1:])
    ref = sketch(x, make_plan(x.shape, "kronecker", 6, 8, seed=21))
    got = read_bundle(tmp / "x.tnsr.tskb")
    for a, b in zip(ref.loo + [ref.core], got.loo + [got.core]):
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(a)


def test_eval_report_is_strict_json(pipeline_files, capsys) -> None:
    """A noiseless clean tensor has an infinite SNR, reported as null, not as
    the non-JSON token Infinity."""
    tmp, _, sketch_cfg, tensor = pipeline_files
    bundle, tuck = tmp / "b.tskb", tmp / "t.tuck"
    run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
    run("recover", "--input", str(bundle), "--output", str(tuck), "--rank", "3")
    cfg = write_json(tmp / "ev.json", {"clean": str(tensor)})
    assert run("eval", "--config", cfg, "--input", str(tuck), "--chunks", str(tensor)) == 0

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert report["snr_db"] is None


class TestOutputToStdout:
    """`--output /dev/stdout` writes through the process's own standard
    output, as printing the report does: to a pipe, and to a file after what
    the file already holds."""

    @pytest.fixture
    def eval_argv(self, pipeline_files):
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle, tuck = tmp / "b.tskb", tmp / "t.tuck"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
        run("recover", "--input", str(bundle), "--output", str(tuck), "--rank", "3")
        return ("-m", "tsketch.cli", "eval", "--input", str(tuck), "--chunks", str(tensor),
                "--output", "/dev/stdout")

    def test_a_pipe(self, eval_argv) -> None:
        """It once failed: the temporary file went beside /proc/<pid>/fd/pipe:[N]."""
        res = run_python(*eval_argv)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["relative_error"] < 1e-8

    def test_a_file_opened_to_append(self, eval_argv, tmp_path) -> None:
        """`>> log`: the file's earlier bytes are kept, not replaced."""
        log = tmp_path / "log"
        log.write_bytes(b"hdr\n")
        with open(log, "ab") as f:
            assert run_python(*eval_argv, stdout=f).returncode == 0
        head, report = log.read_bytes().split(b"\n", 1)
        assert head == b"hdr"
        assert json.loads(report)["relative_error"] < 1e-8
        assert list(tmp_path.glob(".*")) == []  # no temporary file made beside it

    def test_a_file_shared_with_other_writers(self, eval_argv, tmp_path) -> None:
        """`{ echo hdr; tsketch eval ...; echo tail; } > log`: the report lands
        at the descriptor's offset, between what is written before and after."""
        log = tmp_path / "log"
        with open(log, "wb") as f:
            f.write(b"hdr\n")
            f.flush()
            assert run_python(*eval_argv, stdout=f).returncode == 0
            f.write(b"tail\n")
        text = log.read_text()
        assert text.startswith("hdr\n{") and text.endswith("}\ntail\n")
        assert json.loads(text[4:-5])["relative_error"] < 1e-8


class TestStreamingMemory:
    """Every step that reads the data holds a piece and the sketch, never the tensor."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("memory")
        x, _ = gen_lowrank(128, 3, 4, seed=23)  # 16 MiB
        write_chunks(d / "x.tskc", x.shape, slab_chunks(x, 16))
        write_tensor(d / "x.tnsr", x)
        b = sketch(x, make_plan(x.shape, "kronecker", 8, 12, seed=24))
        write_bundle(d / "b.tskb", b)
        write_factorization(d / "t.tuck", one_pass(b, 4))
        return d, x.nbytes

    @pytest.mark.parametrize("name", ["x.tskc", "x.tnsr"])
    @pytest.mark.parametrize("step", ["recover", "eval", "sketch"])
    def test_peak_below_a_quarter_of_the_tensor(self, files, step, name) -> None:
        d, nbytes = files
        if step == "recover":
            argv = ["recover", "--two-pass", "--rank", "4", "--input", str(d / "b.tskb"),
                    "--chunks", str(d / name), "--output", str(d / "t2.tuck")]
        elif step == "sketch":
            argv = ["sketch", "--chunks", str(d / name), "--output", str(d / "bs.tskb")]
        else:
            argv = ["eval", "--input", str(d / "t.tuck"), "--chunks", str(d / name),
                    "--output", str(d / "e.json")]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < nbytes / 4, (peak, nbytes)

    def test_two_pass_frees_the_bundle_before_its_pass(self, files, monkeypatch) -> None:
        """The second pass needs only the factors: the bundle `recover
        --two-pass` read is gone before the first slab is read."""
        d, _ = files
        refs, alive = [], []
        read_bundle, read = tsketch.cli.read_bundle, formats.TensorFile.read

        def reading(path):
            bundle = read_bundle(path)
            refs.append(weakref.ref(bundle))
            return bundle

        def slab(self, lo, hi):
            alive.append(refs[0]() is not None)
            return read(self, lo, hi)

        monkeypatch.setattr(tsketch.cli, "read_bundle", reading)
        monkeypatch.setattr(formats.TensorFile, "read", slab)
        assert main(["recover", "--two-pass", "--rank", "4", "--input", str(d / "b.tskb"),
                     "--chunks", str(d / "x.tskc"), "--output", str(d / "t2.tuck")]) == 0
        assert len(alive) == 16 and not any(alive)

    def test_sketch_holds_one_piece(self, tmp_path, monkeypatch) -> None:
        """The sketch step drops each piece before it reads the next: over 8
        pieces it peaks below the sketch, the buffers, the maps and one and a
        half pieces, where holding two pieces would not fit."""
        n, m = 256, 8
        x = np.random.default_rng(25).standard_normal((n, n, 16))
        write_tensor(tmp_path / "x.tnsr", x)
        piece = 2 * 8 * n * n  # two last-mode slices
        monkeypatch.setattr(formats, "_PIECE_BYTES", piece)
        cfg = write_json(tmp_path / "sk.json", {"m": m, "m_c": m})
        argv = ["sketch", "--config", cfg, "--chunks", str(tmp_path / "x.tnsr"),
                "--output", str(tmp_path / "b.tskb")]
        assert main(argv + ["--print-config"]) == 0  # imports what the CLI loads on first use, untraced
        plan = make_plan(x.shape, "kronecker", m, m)
        sketch_bytes = 8 * (plan.loo_entry_count() + plan.core_entry_count())
        # B_1 (n x m), B_2 (m x n) and the core (m x m) each buffer 8 slices.
        buffer_bytes = 8 * 8 * (n * m + m * n + m * m)
        # Every map once (sketches share each mode's map, and A_1 lives in the
        # stack), and the stack's copy of the core's mode-1 map.
        maps = [*plan.loo_maps, *plan.core_maps, plan.core_maps[0]]
        bound = sketch_bytes + buffer_bytes + sum(a.nbytes for a in maps) + 1.5 * piece
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < bound, (peak, bound)
        ref, got = sketch(x, plan), read_bundle(tmp_path / "b.tskb")
        for a, b in zip(ref.loo + [ref.core], got.loo + [got.core]):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


def test_cli_imports_no_private_name_from_the_package() -> None:
    """The CLI runs the library's public pipeline: an underscore name imported
    from a tsketch module would be a stage it runs on its own."""
    tree = ast.parse(Path(tsketch.cli.__file__).read_text(encoding="utf-8"))
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "tsketch")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_cli_import_leaves_the_experiment_only_modules_unloaded() -> None:
    """concurrent.futures (which pulls in logging and queue) and csv serve
    only the experiment, so every other subcommand starts without them."""
    res = run_python("-c", "import sys, tsketch.cli; "
                           "print(sorted({'concurrent.futures', 'csv'} & set(sys.modules)))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_print_config_merges_defaults_file_and_flags(tmp_path, capsys) -> None:
    cfg = write_json(tmp_path / "c.json", {"n": 10, "seed": 1})
    assert run("gen", "--config", cfg, "--print-config", "--seed", "9") == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["n"] == 10  # from file
    assert printed["seed"] == 9  # flag beats file
    assert printed["generator"] == "lowrank"  # default survives


# Each subcommand's options, --help aside.
OPTIONS = {
    "gen": {"--config", "--print-config", "--output", "--seed"},
    "sketch": {"--config", "--print-config", "--chunks", "--output", "--seed"},
    "recover": {"--config", "--print-config", "--input", "--output", "--rank", "--two-pass", "--chunks"},
    "eval": {"--config", "--print-config", "--input", "--chunks", "--output"},
    "experiment": {"--config", "--print-config", "--output", "--seed", "--threads"},
}


@pytest.mark.parametrize("command", OPTIONS)
def test_help_lists_each_subcommands_options(command, capsys) -> None:
    with pytest.raises(SystemExit) as exit_:
        run(command, "--help")
    assert exit_.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert set(re.findall(r"\[(--[\w-]+)", usage)) == OPTIONS[command]


@pytest.mark.parametrize(
    "command,key,in_file,flag,from_flag",
    [
        ("gen", "seed", 4, ["--seed", "9"], 9),
        ("sketch", "seed", 4, ["--seed", "9"], 9),
        ("experiment", "seed", 4, ["--seed", "9"], 9),
        ("recover", "rank", 3, ["--rank", "2"], 2),
        ("experiment", "threads", 2, ["--threads", "3"], 3),
        ("recover", "two_pass", True, ["--two-pass"], True),
        ("recover", "two_pass", False, ["--two-pass"], True),
    ],
)
def test_print_config_flag_overrides_only_when_given(
    tmp_path, capsys, command, key, in_file, flag, from_flag
) -> None:
    cfg = write_json(tmp_path / "c.json", {key: in_file})
    for extra, expected in (([], in_file), (flag, from_flag)):
        assert run(command, "--config", cfg, *extra, "--print-config") == 0
        assert json.loads(capsys.readouterr().out)[key] == expected


def test_print_config_needs_no_output(capsys) -> None:
    assert run("experiment", "--print-config") == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 1


def test_gen_superdiag_poly_writes_a_tensor(tmp_path) -> None:
    cfg = write_json(tmp_path / "g.json", {"generator": "superdiag_poly", "n": 9, "d": 3, "r_true": 2})
    out = tmp_path / "x.tnsr"
    assert run("gen", "--config", cfg, "--output", str(out)) == 0
    assert np.array_equal(read_tensor(out), gen_superdiag_poly(9, 3, 2))


def test_per_mode_family_list_equals_mix(pipeline_files) -> None:
    """A loo_family list names each mode's family; at d = 3 the list "mix"
    cycles through gives the same bundle, byte for byte."""
    tmp, _, _, tensor = pipeline_files
    bundles = {}
    for name, family in (("mix", "mix"), ("list", ["gaussian", "srtt", "sparse_sign"])):
        cfg = write_json(tmp / f"{name}.json", {"m": 6, "m_c": 8, "seed": 21, "loo_family": family})
        bundles[name] = tmp / f"{name}.tskb"
        assert run("sketch", "--config", cfg, "--chunks", str(tensor), "--output", str(bundles[name])) == 0
    assert read_bundle(bundles["list"]).plan.loo_families == ("gaussian", "srtt", "sparse_sign")
    assert bundles["list"].read_bytes() == bundles["mix"].read_bytes()


class TestErrorReporting:
    def check(self, expected_category, *argv, capsys):
        code = run(*argv)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"]["category"] == expected_category
        assert code == EXIT_CODES[expected_category]
        return payload["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sketch", "--bogus", "x"],
            ["recover", "--rank", "abc", "--input", "b", "--output", "o"],
            [],
            ["frobnicate"],
        ],
        ids=["unknown-flag", "mistyped-value", "no-subcommand", "unknown-subcommand"],
    )
    def test_command_line_mistake_is_config(self, capsys, argv) -> None:
        self.check("config", *argv, capsys=capsys)

    def test_missing_rank_is_config(self, pipeline_files, capsys) -> None:
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle = tmp / "b.tskb"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
        self.check(
            "config", "recover", "--input", str(bundle), "--output", str(tmp / "t.tuck"),
            capsys=capsys,
        )

    @pytest.mark.parametrize(
        "text,category",
        [(None, "io"), ("{not json", "config"), ("[1, 2]", "config")],
        ids=["missing", "not-json", "array"],
    )
    def test_unreadable_config_file(self, tmp_path, capsys, text, category) -> None:
        cfg = tmp_path / "c.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "x.tnsr"
        msg = self.check(category, "gen", "--config", str(cfg), "--output", str(out), capsys=capsys)
        assert str(cfg) in msg
        assert not out.exists()

    def test_unknown_generator_is_config(self, tmp_path, capsys) -> None:
        cfg = write_json(tmp_path / "g.json", {"generator": "fractal"})
        msg = self.check("config", "gen", "--config", cfg, "--output", str(tmp_path / "x.tnsr"),
                         capsys=capsys)
        assert "fractal" in msg

    def test_sketch_requires_chunks(self, pipeline_files, capsys) -> None:
        tmp = pipeline_files[0]
        out = tmp / "b.tskb"
        msg = self.check("config", "sketch", "--output", str(out), capsys=capsys)
        assert "--chunks" in msg
        assert not out.exists()

    def test_two_pass_without_chunks_is_config(self, pipeline_files, capsys) -> None:
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle, out = tmp / "b.tskb", tmp / "t.tuck"
        assert run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle)) == 0
        msg = self.check("config", "recover", "--input", str(bundle), "--output", str(out),
                         "--rank", "3", "--two-pass", capsys=capsys)
        assert "--chunks" in msg
        assert not out.exists()

    def test_chunks_without_two_pass_is_config(self, pipeline_files, capsys) -> None:
        """A one-pass recovery would ignore the tensor, so it is refused; with
        a config file that sets two_pass, the same flags run the second pass."""
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle, out = tmp / "b.tskb", tmp / "t.tuck"
        assert run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle)) == 0
        argv = ["--input", str(bundle), "--output", str(out), "--rank", "3", "--chunks", str(tensor)]
        msg = self.check("config", "recover", *argv, capsys=capsys)
        assert "--chunks" in msg and "--two-pass" in msg
        assert not out.exists()
        cfg = write_json(tmp / "r.json", {"two_pass": True})
        assert run("recover", "--config", cfg, *argv) == 0
        x = read_tensor(tensor)
        expect = reconstruct(two_pass(read_bundle(bundle), x, 3))
        assert np.allclose(reconstruct(read_factorization(out)), expect, rtol=1e-10, atol=1e-10)

    def test_family_list_of_the_wrong_length_is_config(self, pipeline_files, capsys) -> None:
        tmp, _, _, tensor = pipeline_files
        cfg = write_json(tmp / "c.json", {"m": 6, "m_c": 8, "loo_family": ["gaussian", "srtt"]})
        out = tmp / "b.tskb"
        msg = self.check("config", "sketch", "--config", cfg, "--chunks", str(tensor),
                         "--output", str(out), capsys=capsys)
        assert "expected 3 families, got 2" in msg
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,values",
        [
            ("sketch", {"diag_family": "identity"}),
            ("experiment", {"diag_family": "gaussian"}),
            ("experiment", {"variants": [{"diag_family": "gaussian"}]}),
        ],
    )
    def test_diag_family_is_not_a_config_key(self, pipeline_files, capsys, command, values) -> None:
        """A sketch keeps its own mode unmapped: there is no diagonal map to choose."""
        tmp, _, _, tensor = pipeline_files
        assert run(command, "--print-config") == 0
        assert "diag_family" not in capsys.readouterr().out
        cfg = write_json(tmp / "c.json", values)
        out = tmp / "out"
        inputs = ["--chunks", str(tensor)] if command == "sketch" else []
        msg = self.check("config", command, "--config", cfg, *inputs, "--output", str(out),
                         capsys=capsys)
        assert "diag_family" in msg
        assert not out.exists()

    @pytest.mark.parametrize("fault,message", [
        ("payload bit", "corrupt bundle: stored CRC-32"),
        ("version 1", "unsupported TSKB version 1 "),
    ])
    def test_corrupt_or_v1_bundle_is_io(self, pipeline_files, capsys, fault, message) -> None:
        """A bundle with one payload bit flipped fails its CRC-32, and a v1
        bundle is not read: either way recover exits 3 and writes nothing."""
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle, out = tmp / "b.tskb", tmp / "t.tuck"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
        data = bytearray(bundle.read_bytes())
        if fault == "payload bit":
            data[len(data) // 2] ^= 0x04
        else:
            data[4:8] = struct.pack("<I", 1)
        bundle.write_bytes(bytes(data))
        msg = self.check("io", "recover", "--input", str(bundle), "--output", str(out), "--rank", "3",
                         capsys=capsys)
        assert message in msg
        assert not out.exists()

    def test_corrupt_factorization_is_io(self, pipeline_files, capsys) -> None:
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle, tuck = tmp / "b.tskb", tmp / "t.tuck"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
        run("recover", "--input", str(bundle), "--output", str(tuck), "--rank", "3")
        data = bytearray(tuck.read_bytes())
        data[len(data) // 2] ^= 0x04
        tuck.write_bytes(bytes(data))
        msg = self.check("io", "eval", "--input", str(tuck), "--chunks", str(tensor), capsys=capsys)
        assert "corrupt factorization: stored CRC-32" in msg

    def test_unknown_config_key_is_config(self, tmp_path, capsys) -> None:
        cfg = write_json(tmp_path / "c.json", {"nn": 10})
        msg = self.check(
            "config", "gen", "--config", cfg, "--output", str(tmp_path / "x.tnsr"), capsys=capsys
        )
        assert "nn" in msg

    @pytest.mark.parametrize(
        "command,values",
        [
            ("gen", {"n": "40"}),
            ("gen", {"d": 0}),
            ("gen", {"snr_db": "loud"}),
            ("gen", {"snr_db": float("nan")}),
            ("sketch", {"m": "6"}),
            ("sketch", {"m": True}),
            ("sketch", {"seed": -1}),
            ("sketch", {"seed": 2**64}),
            ("experiment", {"trials": "2"}),
            ("experiment", {"bound_eps": "x"}),
            ("experiment", {"variants": [{"m_c": "6"}]}),
            ("eval", {"clean": 5}),
        ],
    )
    def test_bad_config_value_is_config(self, pipeline_files, capsys, command, values) -> None:
        """Each config value is checked when the config is merged: a wrong type
        or an out-of-range value is a config error, and nothing is written."""
        tmp, _, sketch_cfg, tensor = pipeline_files
        tuck, out = tmp / "t.tuck", tmp / "out"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(tmp / "b.tskb"))
        run("recover", "--input", str(tmp / "b.tskb"), "--output", str(tuck), "--rank", "3")
        base = {"experiment": {"n": 8, "r_true": 2, "r_fit": 2, "m": 4, "m_c": 6}}.get(command, {})
        cfg = write_json(tmp / "bad.json", {**base, **values})
        inputs = {"sketch": ["--chunks", str(tensor)], "eval": ["--input", str(tuck), "--chunks", str(tensor)]}
        msg = self.check(
            "config", command, "--config", cfg, *inputs.get(command, []), "--output", str(out),
            capsys=capsys,
        )
        assert next(iter(values)) in msg
        assert not out.exists()

    @pytest.mark.parametrize("target", [2000.0, 5000.0])
    def test_unreachable_snr_is_config(self, tmp_path, capsys, target) -> None:
        cfg = write_json(tmp_path / "g.json", {"n": 6, "r_true": 2, "snr_db": target})
        out = tmp_path / "x.tnsr"
        msg = self.check("config", "gen", "--config", cfg, "--output", str(out), capsys=capsys)
        assert "dB" in msg
        assert not out.exists()

    @pytest.mark.parametrize("target", [170.0, 200.0, 300.0])
    def test_snr_past_float64_resolution_is_config(self, tmp_path, capsys, target) -> None:
        """The noise these targets call for rounds away, in part or whole, on
        the 10^3 tensor: gen refuses them rather than write a tensor that
        misses the target (at 300 dB, the clean tensor itself)."""
        cfg = write_json(tmp_path / "g.json", {"n": 10, "r_true": 3, "snr_db": target})
        out = tmp_path / "x.tnsr"
        msg = self.check("config", "gen", "--config", cfg, "--output", str(out), capsys=capsys)
        assert "resolution" in msg
        assert not out.exists()

    def test_rank_zero_factorization_is_io(self, pipeline_files, capsys) -> None:
        tmp, _, _, tensor = pipeline_files
        tuck = tmp / "t.tuck"
        body = b"TUCK" + struct.pack("<II3QQB", 2, 3, 14, 14, 14, 0, 1)
        tuck.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        msg = self.check("io", "eval", "--input", str(tuck), "--chunks", str(tensor), capsys=capsys)
        assert "rank" in msg

    def test_eval_shape_mismatch_is_shape(self, tmp_path, capsys) -> None:
        """A 12^3 factorization against a 13^3 tensor is a shape error, as a
        13^3 clean tensor against a 12^3 observed one is, and as a mismatched
        second-pass tensor is for recover."""
        for n in (12, 13):
            write_tensor(tmp_path / f"x{n}.tnsr", gen_lowrank(n, 3, 2, seed=n)[0])
        x12, x13 = str(tmp_path / "x12.tnsr"), str(tmp_path / "x13.tnsr")
        bundle, tuck = str(tmp_path / "b.tskb"), str(tmp_path / "t.tuck")
        assert run("sketch", "--chunks", x12, "--output", bundle) == 0
        assert run("recover", "--input", bundle, "--output", tuck, "--rank", "2") == 0
        clean13 = write_json(tmp_path / "ev.json", {"clean": x13})
        self.check("shape", "eval", "--input", tuck, "--chunks", x13, capsys=capsys)
        self.check("shape", "eval", "--config", clean13, "--input", tuck, "--chunks", x12,
                   capsys=capsys)

    def test_missing_file_is_io(self, tmp_path, capsys) -> None:
        self.check(
            "io", "sketch", "--chunks", str(tmp_path / "absent.tnsr"),
            "--output", str(tmp_path / "b.tskb"), capsys=capsys,
        )

    def test_bundle_header_without_its_payload_is_io_at_once(self, tmp_path, capsys) -> None:
        """A 2000-mode kronecker header (modes of length 1) ending after the
        seed: recover refuses it by the payload its header implies, before
        a plan is built from it."""
        d = 2000
        bundle = tmp_path / "b.tskb"
        bundle.write_bytes(
            b"TSKB"
            + struct.pack(f"<II{d}QBQQ", 2, d, *[1] * d, LOO_KINDS.index("kronecker"), 1, 1)
            + bytes([FAMILIES["gaussian"]]) * (2 * d)
            + struct.pack("<Q", 0)
        )
        t0 = time.perf_counter()
        msg = self.check("io", "recover", "--input", str(bundle), "--output", str(tmp_path / "t.tuck"),
                         "--rank", "1", capsys=capsys)
        assert time.perf_counter() - t0 < 1.0
        assert "payload" in msg

    @pytest.mark.parametrize("magic", [b"TNSR", b"TSKC"])
    def test_tensor_header_past_any_file_is_io(self, tmp_path, magic, capsys) -> None:
        """2000 modes of 2^63 name a count of about 38,000 digits, past what
        Python prints: the header is refused before the count is formed."""
        d = 2000
        path = tmp_path / "x"
        head = magic + struct.pack(f"<II{d}Q", 1, d, *[2**63] * d)
        # A stream's record header is sized against the file, as a TNSR's entries are.
        path.write_bytes(head + (struct.pack("<QQ", 0, 1) if magic == b"TSKC" else b""))
        msg = self.check("io", "sketch", "--chunks", str(path), "--output", str(tmp_path / "b.tskb"),
                         capsys=capsys)
        assert "more entries than any file holds" in msg

    @pytest.mark.parametrize("kind", LOO_KINDS)
    def test_one_mode_plan_is_config(self, tmp_path, capsys, kind) -> None:
        tensor = tmp_path / "x.tnsr"
        write_tensor(str(tensor), np.arange(30.0))
        cfg = write_json(tmp_path / "s.json", {"loo_kind": kind, "m": 10, "m_c": 10})
        msg = self.check(
            "config", "sketch", "--config", cfg, "--chunks", str(tensor),
            "--output", str(tmp_path / "b.tskb"), capsys=capsys,
        )
        assert msg.startswith("sketches need at least two modes to compress")

    @pytest.mark.parametrize("command", ["gen", "experiment"])
    def test_one_mode_generator_is_shape(self, tmp_path, capsys, command) -> None:
        """A generated tensor has the two modes every plan needs: `gen` and
        `experiment` refuse d = 1 before they write anything."""
        out = tmp_path / "out"
        extra = {"r_fit": 1, "m": 4, "m_c": 6} if command == "experiment" else {}
        cfg = write_json(tmp_path / "c.json", {"n": 40, "d": 1, "r_true": 1, **extra})
        msg = self.check("shape", command, "--config", cfg, "--output", str(out), capsys=capsys)
        assert msg == "mode count must be >= 2, got 1"
        assert not out.exists()

    def test_one_mode_bundle_is_io(self, tmp_path, capsys) -> None:
        """A TSKB of one mode, whole and with its CRC-32, names a plan that
        cannot be built, so `recover` refuses it as a format error."""
        bundle = tmp_path / "b.tskb"
        body = (b"TSKB" + struct.pack("<II1QBQQ", 2, 1, 40, LOO_KINDS.index("kronecker"), 5, 6)
                + bytes([FAMILIES["gaussian"]]) * 2 + struct.pack("<Q", 0) + bytes(8 * 46) + b"\0")
        bundle.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        msg = self.check("io", "recover", "--input", str(bundle), "--output", str(tmp_path / "t.tuck"),
                         "--rank", "1", capsys=capsys)
        assert "sketches need at least two modes" in msg

    def test_wrong_magic_is_io(self, pipeline_files, capsys) -> None:
        tmp, _, _, tensor = pipeline_files
        # a tensor file is not a bundle
        self.check(
            "io", "recover", "--input", str(tensor), "--output", str(tmp / "t.tuck"),
            "--rank", "2", capsys=capsys,
        )

    def test_oversized_rank_is_rank(self, pipeline_files, capsys) -> None:
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle = tmp / "b.tskb"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
        self.check(
            "rank", "recover", "--input", str(bundle), "--output", str(tmp / "t.tuck"),
            "--rank", "40", capsys=capsys,
        )

    @pytest.mark.parametrize("two_pass", [False, True])
    def test_bundle_with_the_flag_set_is_io(self, pipeline_files, capsys, two_pass) -> None:
        """A bundle always sketches the whole tensor: one whose flag byte is
        set, which once marked a bundle of part of it, is refused as a file
        error even when its CRC-32 holds."""
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle = tmp / "b.tskb"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
        data = bytearray(bundle.read_bytes())
        data[-5] = 1
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        bundle.write_bytes(bytes(data))
        second = ["--two-pass", "--chunks", str(tensor)] if two_pass else []
        msg = self.check(
            "io", "recover", "--input", str(bundle), "--output", str(tmp / "t.tuck"),
            "--rank", "3", *second, capsys=capsys,
        )
        assert msg.startswith("bundle flag is 1, not 0")
        assert not (tmp / "t.tuck").exists()

    def test_stream_whose_sketch_overflows_is_config(self, tmp_path, capsys) -> None:
        """A 12^3 tensor times 1e307 has finite entries, so the slab rule
        takes it, but its sketch's squares overflow float64: `sketch` refuses
        it, where it once wrote a bundle that `recover` died on with an
        untyped LAPACK error."""
        x = gen_lowrank(12, 3, 3, seed=0)[0] * 1e307
        stream, bundle = tmp_path / "x.tskc", tmp_path / "b.tskb"
        write_chunks(stream, x.shape, slab_chunks(x, 3))
        msg = self.check("config", "sketch", "--chunks", str(stream), "--output", str(bundle), capsys=capsys)
        assert msg.startswith("mode-1 sketch is not finite in float64")
        assert not bundle.exists()

    def test_stream_whose_error_overflows_is_one_config_line(self, tmp_path) -> None:
        """`eval` of the same stream against a valid factorization: the squared
        norms it sums overflow, and the process writes the one JSON line, with
        no numpy warning ahead of it."""
        x = gen_lowrank(12, 3, 3, seed=0)[0]
        stream, tuck = tmp_path / "x.tskc", tmp_path / "t.tuck"
        write_chunks(stream, x.shape, slab_chunks(x * 1e307, 3))
        write_factorization(tuck, hosvd_truncate(x, 3))
        res = run_python("-m", "tsketch.cli", "eval", "--input", str(tuck), "--chunks", str(stream))
        assert res.returncode == EXIT_CODES["config"]
        (line,) = res.stderr.splitlines()
        assert json.loads(line)["error"]["category"] == "config"

    @pytest.mark.parametrize("two_pass", [False, True])
    def test_bundle_that_is_not_finite_is_config(self, pipeline_files, capsys, two_pass) -> None:
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle = tmp / "b.tskb"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
        b = read_bundle(bundle)
        b.loo[2][4, 1] = np.inf
        write_bundle(bundle, b)
        second = ["--two-pass", "--chunks", str(tensor)] if two_pass else []
        msg = self.check(
            "config", "recover", "--input", str(bundle), "--output", str(tmp / "t.tuck"),
            "--rank", "3", *second, capsys=capsys,
        )
        assert msg.startswith("mode-3 sketch is not finite in float64")

    def test_allocation_failure_is_config(self, tmp_path, capsys, monkeypatch) -> None:
        """A size too large for memory ("Unable to allocate 17.2 GiB") once
        ended in a traceback; a stand-in generator raises it here."""

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

        monkeypatch.setattr(tsketch.cli, "gen_lowrank", too_large)
        msg = self.check("config", "gen", "--output", str(tmp_path / "x.tnsr"), capsys=capsys)
        assert msg == "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"

    def test_lapack_failure_is_singular(self, pipeline_files, capsys, monkeypatch) -> None:
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle = tmp / "b.tskb"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))

        def diverges(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(tsketch.cli, "one_pass", diverges)
        msg = self.check("singular", "recover", "--input", str(bundle), "--output", str(tmp / "t.tuck"),
                         "--rank", "3", capsys=capsys)
        assert msg == "Eigenvalues did not converge"

    def test_mismatched_second_pass_tensor_is_shape(self, pipeline_files, capsys) -> None:
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle = tmp / "b.tskb"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
        other = tmp / "other.tnsr"
        run(
            "gen", "--config",
            write_json(tmp / "g2.json", {"generator": "lowrank", "n": 9, "d": 3, "r_true": 2}),
            "--output", str(other),
        )
        self.check(
            "shape", "recover", "--input", str(bundle), "--output", str(tmp / "t.tuck"),
            "--rank", "3", "--two-pass", "--chunks", str(other), capsys=capsys,
        )

    def test_unknown_family_in_plan_header_is_io(self, pipeline_files, capsys) -> None:
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle = tmp / "b.tskb"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
        data = bytearray(bundle.read_bytes())
        # magic, version, d, shape, kind, m and m_c of a 3-mode bundle, then
        # the leave-one-out family of mode 1
        data[4 + 4 + 4 + 24 + 1 + 16] = 250
        bundle.write_bytes(bytes(data))
        msg = self.check(
            "io", "recover", "--input", str(bundle), "--output", str(tmp / "t.tuck"),
            "--rank", "3", capsys=capsys,
        )
        assert "unknown family id 250" in msg

    def test_non_finite_chunk_is_config(self, pipeline_files, capsys) -> None:
        tmp, _, sketch_cfg, tensor = pipeline_files
        x = read_tensor(tensor)
        x[3, 1, 9] = np.nan
        stream = tmp / "x.tskc"
        write_chunks(stream, x.shape, slab_chunks(x, 2))
        msg = self.check(
            "config", "sketch", "--config", sketch_cfg, "--chunks", str(stream),
            "--output", str(tmp / "b.tskb"), capsys=capsys,
        )
        assert "[0, 14)" in msg  # the one piece a small file is read in, whatever its records

    @pytest.mark.parametrize("fmt", ["tskc", "tnsr"])
    @pytest.mark.parametrize("step", ["recover", "eval", "eval-clean"])
    def test_non_finite_second_look_is_config(self, pipeline_files, capsys, fmt, step) -> None:
        """A NaN in the second look at the data is refused, naming the slab
        read: the one piece a small file is read in, whatever its records."""
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle, tuck = tmp / "b.tskb", tmp / "t.tuck"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
        run("recover", "--input", str(bundle), "--output", str(tuck), "--rank", "3")
        x = read_tensor(tensor)
        x[3, 1, 9] = np.nan
        bad = tmp / f"bad.{fmt}"
        if fmt == "tnsr":
            write_tensor(bad, x)
        else:
            write_chunks(bad, x.shape, slab_chunks(x, 2))
        if step == "recover":
            argv = ["recover", "--input", str(bundle), "--output", str(tmp / "t2.tuck"),
                    "--rank", "3", "--two-pass", "--chunks", str(bad)]
        elif step == "eval":
            argv = ["eval", "--input", str(tuck), "--chunks", str(bad)]
        else:
            cfg = write_json(tmp / "ev.json", {"clean": str(bad)})
            argv = ["eval", "--config", cfg, "--input", str(tuck), "--chunks", str(tensor)]
        msg = self.check("config", *argv, capsys=capsys)
        assert "[0, 14)" in msg and "non-finite" in msg

    @pytest.mark.parametrize("ranges", [[(0, 5), (9, 14)], [(0, 8), (6, 14)]], ids=["gap", "overlap"])
    def test_stream_that_does_not_tile_the_mode_is_io(self, pipeline_files, capsys, ranges) -> None:
        """Every step that reads the data refuses a gappy or overlapping stream
        the same way, before sketching or scoring any of it."""
        tmp, _, sketch_cfg, tensor = pipeline_files
        bundle, tuck, bad = tmp / "b.tskb", tmp / "t.tuck", tmp / "bad.tskc"
        run("sketch", "--config", sketch_cfg, "--chunks", str(tensor), "--output", str(bundle))
        run("recover", "--input", str(bundle), "--output", str(tuck), "--rank", "3")
        write_slabs(bad, read_tensor(tensor), ranges)
        for argv in [
            ["sketch", "--config", sketch_cfg, "--chunks", str(bad), "--output", str(tmp / "b2.tskb")],
            ["recover", "--input", str(bundle), "--output", str(tmp / "t2.tuck"), "--rank", "3",
             "--two-pass", "--chunks", str(bad)],
            ["eval", "--input", str(tuck), "--chunks", str(bad)],
        ]:
            self.check("io", *argv, capsys=capsys)
        assert not (tmp / "b2.tskb").exists()

    def test_chunk_record_past_the_mode_is_io(self, pipeline_files, capsys) -> None:
        tmp, _, sketch_cfg, tensor = pipeline_files
        x = read_tensor(tensor)
        stream = tmp / "x.tskc"
        write_chunks(stream, x.shape, slab_chunks(x, 2))
        data = bytearray(stream.read_bytes())
        data[4 + 4 + 4 + 24 + 5] = 1  # start of the first record becomes 2^40
        stream.write_bytes(bytes(data))
        self.check(
            "io", "sketch", "--config", sketch_cfg, "--chunks", str(stream),
            "--output", str(tmp / "b.tskb"), capsys=capsys,
        )

    def test_exit_code_table_is_total(self) -> None:
        assert EXIT_CODES == {"config": 2, "io": 3, "shape": 4, "rank": 5, "singular": 6}


class TestExperiment:
    BASE = {
        "generator": "lowrank",
        "n": 12,
        "d": 3,
        "r_true": 3,
        "r_fit": 3,
        "m": [5, 6],
        "m_c": [6],
        "trials": 2,
        "two_pass": True,
        "seed": 99,
    }

    def run_csv(self, tmp_path, cfg, name, *extra):
        out = tmp_path / name
        code = run(
            "experiment", "--config", write_json(tmp_path / (name + ".json"), cfg),
            "--output", str(out), *extra,
        )
        assert code == 0
        return read_rows(out)

    def test_grid_and_columns(self, tmp_path) -> None:
        rows = self.run_csv(tmp_path, self.BASE, "a.csv")
        assert len(rows) == 4  # 2 m values x 1 m_c x 2 trials
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert [int(r["m"]) for r in rows] == [5, 5, 6, 6]
        assert [int(r["trial"]) for r in rows] == [0, 1, 0, 1]
        for r in rows:
            assert float(r["rel_err_onepass"]) < 1e-8
            assert float(r["rel_err_twopass"]) < 1e-8
            assert r["snr_db"] == ""  # noiseless
            assert float(r["angle_max_deg"]) < 1e-3
            assert len(r["angles_deg"].split(";")) == 3

    def test_storage_columns_match_formulas(self, tmp_path) -> None:
        rows = self.run_csv(tmp_path, self.BASE, "s.csv")
        n, d = self.BASE["n"], self.BASE["d"]
        for r in rows:
            m, m_c = int(r["m"]), int(r["m_c"])
            assert int(r["storage_loo_entries"]) == n * d * m ** (d - 1)
            assert int(r["storage_core_entries"]) == m_c**d
            total = int(r["storage_total_entries"])
            assert total == n * d * m ** (d - 1) + m_c**d

    def test_rows_reproducible_and_thread_invariant(self, tmp_path) -> None:
        stable = [c for c in CSV_COLUMNS if not c.startswith("wall_")]
        a = self.run_csv(tmp_path, self.BASE, "r1.csv")
        b = self.run_csv(tmp_path, self.BASE, "r2.csv", "--threads", "3")
        assert [[r[c] for c in stable] for r in a] == [[r[c] for c in stable] for r in b]

    def test_variants_sweep_kind_and_budget(self, tmp_path) -> None:
        cfg = {
            **self.BASE,
            "trials": 1,
            "variants": [
                {"loo_kind": "kronecker", "m": [4]},
                {"loo_kind": "khatri_rao", "m": [16]},
            ],
        }
        rows = self.run_csv(tmp_path, cfg, "v.csv")
        assert [(r["variant"], r["loo_kind"], int(r["m"])) for r in rows] == [
            ("0", "kronecker", 4),
            ("1", "khatri_rao", 16),
        ]
        n, d = cfg["n"], cfg["d"]
        assert int(rows[0]["storage_loo_entries"]) == n * d * 4**2
        assert int(rows[1]["storage_loo_entries"]) == d * 16 * n

    def test_noise_columns(self, tmp_path) -> None:
        cfg = {**self.BASE, "snr_db": 30.0, "m": [6], "trials": 1, "two_pass": False}
        (row,) = self.run_csv(tmp_path, cfg, "n.csv")
        assert float(row["snr_db"]) == pytest.approx(30.0, abs=1e-6)
        assert row["rel_err_twopass"] == ""
        # the bound column envelopes the input-relative error by construction
        assert float(row["rel_err_onepass_input"]) <= float(row["bound_rhs"])

    def test_superdiag_tail_baseline_column(self, tmp_path) -> None:
        cfg = {
            "generator": "superdiag_exp", "n": 20, "d": 3, "r_true": 4, "r_fit": 4,
            "m": [8], "m_c": [16], "trials": 1, "seed": 3,
        }
        (row,) = self.run_csv(tmp_path, cfg, "sd.csv")
        assert float(row["tail_baseline"]) > 0
        assert row["angles_deg"] == ""  # no reference factors for this family

    def test_superdiag_sweep_reaches_the_tail_baseline(self, tmp_path) -> None:
        """The CSV reports the jointly truncated one-pass factorization: on a
        super-diagonal input with an (r+1)-fold tie at sigma_r it lands near
        the rank-r tail floor, not near sqrt(3) times it."""
        cfg = {
            "generator": "superdiag_exp", "n": 30, "d": 3, "r_true": 4, "r_fit": 4,
            "m": [12], "m_c": [24], "trials": 4, "seed": 3,
        }
        rows = self.run_csv(tmp_path, cfg, "sdj.csv")
        assert len(rows) == 4
        for row in rows:
            assert float(row["rel_err_onepass"]) <= 1.10 * float(row["tail_baseline"])

    @pytest.fixture
    def tensor_files(self, tmp_path):
        """One lowrank tensor written as a TNSR file and as a three-record TSKC stream."""
        x, _ = gen_lowrank(12, 3, 3, seed=17)
        write_tensor(tmp_path / "x.tnsr", x)
        write_chunks(tmp_path / "x.tskc", x.shape, slab_chunks(x, 3))
        return str(tmp_path / "x.tnsr"), str(tmp_path / "x.tskc")

    def test_noiseless_file_sweep_computes_tail_energies_once(self, tmp_path, tensor_files,
                                                              monkeypatch) -> None:
        """A file input does not depend on the trial seed: its d tail energies
        are computed once for the sweep, not once per row."""
        calls = []
        tail_energy = tsketch.cli.tail_energy
        monkeypatch.setattr(tsketch.cli, "tail_energy", lambda x, r, j: calls.append(j) or tail_energy(x, r, j))
        cfg = {**self.BASE, "generator": "file", "input": tensor_files[0], "trials": 3}
        rows = self.run_csv(tmp_path, cfg, "f.csv")
        assert len(rows) == 6  # 2 m values x 3 trials
        assert sorted(calls) == [1, 2, 3]

    def test_file_input_rows(self, tmp_path, tensor_files) -> None:
        """A TNSR file and a TSKC stream of one tensor give the same rows, at
        one thread or three; the rows fit the file's tensor and carry no angles."""
        stable = [c for c in CSV_COLUMNS if not c.startswith("wall_")]
        tnsr, tskc = tensor_files
        runs = [
            self.run_csv(tmp_path, {**self.BASE, "generator": "file", "input": path}, name, *extra)
            for path, name, extra in [(tnsr, "a.csv", ()), (tskc, "b.csv", ()),
                                      (tnsr, "c.csv", ("--threads", "3"))]
        ]
        first = [[r[c] for c in stable] for r in runs[0]]
        assert all([[r[c] for c in stable] for r in rows] == first for rows in runs[1:])
        for r in runs[0]:
            assert float(r["rel_err_onepass"]) < 1e-8
            assert r["angles_deg"] == ""  # a file carries no reference factors

    def test_file_generator_needs_an_input(self, tmp_path, capsys) -> None:
        out = tmp_path / "x.csv"
        cfg = write_json(tmp_path / "c.json", {**self.BASE, "generator": "file"})
        assert run("experiment", "--config", cfg, "--output", str(out)) == EXIT_CODES["config"]
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["category"] == "config" and "input" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("threads", [1, 3])
    def test_failed_trial_ends_the_sweep(self, tmp_path, capsys, monkeypatch, threads) -> None:
        """The first trial's error is reported at once: the trials still
        queued behind it are not run first."""
        calls = []

        def failing_trial(task, *_):
            calls.append(task["trial"])
            time.sleep(0.05)
            raise RankError("trial failed")

        monkeypatch.setattr(tsketch.cli, "_run_trial", failing_trial)
        code = run(
            "experiment", "--config", write_json(tmp_path / "c.json", {**self.BASE, "trials": 10}),
            "--output", str(tmp_path / "x.csv"), "--threads", str(threads),
        )
        assert code == EXIT_CODES["rank"]
        assert len(calls) <= 2 * threads, calls

    def test_bad_variant_key_rejected(self, tmp_path, capsys) -> None:
        cfg = {**self.BASE, "variants": [{"generator": "lowrank"}]}
        out = tmp_path / "bad.csv"
        code = run(
            "experiment", "--config", write_json(tmp_path / "bad.json", cfg),
            "--output", str(out),
        )
        assert code == EXIT_CODES["config"]
        assert not out.exists()


def test_console_script_round_trip(tmp_path) -> None:
    """The installed entry point behaves like main(): run one pipeline in a
    subprocess and check the error path's stderr contract too."""
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"generator": "lowrank", "n": 8, "d": 3, "r_true": 2}))
    tensor = tmp_path / "x.tnsr"
    ok = run_python("-m", "tsketch.cli", "gen", "--config", str(cfg), "--output", str(tensor))
    assert ok.returncode == 0, ok.stderr
    assert read_tensor(tensor).shape == (8, 8, 8)

    bad = run_python("-m", "tsketch.cli", "recover", "--input", str(tensor),
                     "--output", str(tmp_path / "t.tuck"), "--rank", "2")
    assert bad.returncode == EXIT_CODES["io"]
    assert json.loads(bad.stderr)["error"]["category"] == "io"


def test_cli_import_loads_no_scipy() -> None:
    """The package depends on NumPy alone; SciPy is only a test oracle."""
    probe = run_python(
        "-c", "import sys, tsketch.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"
