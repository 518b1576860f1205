"""End-to-end command-line tests (subprocess, tiny configs)."""
import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import helpers
from helpers import L_PATH, SQUARE_PATH, drop_checkpoint_entry, edit_checkpoint_manifest


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "glyphsdf", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def _write_workspace(root):
    """Manifest with one square and one L glyph in a single family."""
    (root / "sq.path").write_text(SQUARE_PATH)
    (root / "l.path").write_text(L_PATH)
    manifest = [
        {"family": "fam", "label": "A", "file": "sq.path"},
        {"family": "fam", "label": "B", "file": "l.path"},
    ]
    (root / "manifest.json").write_text(json.dumps(manifest))
    config = {
        "dataset": {"manifest": str(root / "manifest.json"), "alphabet": "AB"},
        "field": {"train_width": 16},
        "train": {
            "epochs": 20,
            "anneal_epochs": 8,
            "seed": 1,
            "min_homogeneous": 16,
            "threads": 1,
        },
        "eval": {"resolutions": [16, 32], "methods": ["implicit", "bilateral"]},
        "paths": {"output_dir": str(root / "out")},
    }
    (root / "config.json").write_text(json.dumps(config))
    return root


@pytest.fixture()
def workspace(tmp_path):
    return _write_workspace(tmp_path)


def test_no_command_is_usage_error():
    res = run_cli()
    assert res.returncode == 1


@pytest.mark.parametrize("command", [[], ["prepare"], ["train"], ["render"], ["interpolate"],
                                     ["fit"], ["eval"]])
def test_help_exits_0(command, capsys):
    from glyphsdf import cli

    with pytest.raises(SystemExit) as exit_info:
        cli.main([*command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: glyphsdf")


def test_unknown_section_in_set_flag(workspace):
    res = run_cli("--config", workspace / "config.json", "--set", "nope.x=1", "prepare")
    assert res.returncode == 1
    assert "unknown config section" in res.stderr


def test_bad_config_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dataset": {"bogus_key": 1}}))
    res = run_cli("--config", cfg, "prepare")
    assert res.returncode == 1
    assert "bogus_key" in res.stderr


class TestPrepare:
    def test_outputs_and_idempotency(self, workspace):
        res = run_cli("--config", workspace / "config.json", "prepare")
        assert res.returncode == 0, res.stderr
        assert "prepared 2 glyphs: 2 rebuilt" in res.stdout
        prep = workspace / "out" / "prepared"
        assert (prep / "fam__A.pgm").is_file()
        assert (prep / "fam__A.sdf.grid").is_file()
        assert not (prep / "fam__A.templates.grid").exists()
        meta = json.loads((prep / "fam__A.json").read_text())
        assert sorted(meta) == ["corners", "family", "label", "train_width"]
        assert len(meta["corners"]) == 4  # square corners -> 4 templates
        first = {p.name: p.read_bytes() for p in prep.iterdir()}
        # a second prepare rewrites every file with the same bytes
        res2 = run_cli("--config", workspace / "config.json", "prepare")
        assert res2.returncode == 0
        assert "prepared 2 glyphs: 2 rebuilt" in res2.stdout
        assert {p.name: p.read_bytes() for p in prep.iterdir()} == first

    def test_train_reads_nothing_from_prepared(self, workspace):
        # prepare's files are inspection output: train rebuilds every glyph
        # in memory, so damaged or edited files change nothing
        cfg = workspace / "config.json"
        out = workspace / "out"
        res = run_cli("--config", cfg, "train")
        assert res.returncode == 0, res.stderr
        assert not (out / "prepared").exists()
        assert "prepared" not in res.stdout + res.stderr
        fresh = (out / "checkpoint.ckpt").read_bytes()
        assert run_cli("--config", cfg, "prepare").returncode == 0
        prep = out / "prepared"
        (prep / "fam__A.sdf.grid").unlink()
        meta_a = json.loads((prep / "fam__A.json").read_text())
        del meta_a["corners"]
        (prep / "fam__A.json").write_text(json.dumps(meta_a))
        meta_b = json.loads((prep / "fam__B.json").read_text())
        meta_b["corners"][0]["position"] = [0.0, 0.0]
        (prep / "fam__B.json").write_text(json.dumps(meta_b))
        res = run_cli("--config", cfg, "train")
        assert res.returncode == 0, res.stderr
        assert (out / "checkpoint.ckpt").read_bytes() == fresh

    def test_corrupted_path_file_names_the_glyph(self, workspace):
        (workspace / "sq.path").write_text("M 0 0 X 1 1 Z")
        res = run_cli("--config", workspace / "config.json", "prepare")
        assert res.returncode == 1
        assert "sq.path" in res.stderr
        assert "unknown command" in res.stderr

    def test_undecodable_path_file_names_the_glyph(self, workspace):
        (workspace / "sq.path").write_bytes(b"M 0 0 L \xff 1 Z")
        res = run_cli("--config", workspace / "config.json", "prepare")
        assert res.returncode == 1
        assert len(res.stderr.splitlines()) == 1
        assert "sq.path" in res.stderr and "can't decode" in res.stderr

    def _prepare_in_case_folding_dir_then_not(self, workspace, capsys, argv):
        """(exit code, stderr lines, prepared file names) of an in-process
        prepare with the file system reported to fold case, then of one on
        the real file system, which keeps case."""
        from glyphsdf import cli

        def prepare():
            code = cli.main(["--config", str(workspace / "config.json"), *argv, "prepare"])
            prep = workspace / "out" / "prepared"
            names = sorted(p.name for p in prep.glob("*.pgm")) if prep.exists() else []
            return code, capsys.readouterr().err.splitlines(), names

        with mock.patch.object(cli, "_folds_case", return_value=True):
            folded = prepare()
        return [folded, prepare()]

    def test_case_probe_leaves_no_file(self, tmp_path):
        from glyphsdf import cli

        (tmp_path / "a").touch()
        assert cli._folds_case(tmp_path) == (tmp_path / "A").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["a"]

    def test_families_sharing_a_file_name_rejected(self, workspace, capsys):
        # Fam__A and fam__A are one file where the file system ignores case
        manifest = [
            {"family": "Fam", "label": "A", "file": "sq.path"},
            {"family": "fam", "label": "A", "file": "l.path"},
        ]
        (workspace / "manifest.json").write_text(json.dumps(manifest))
        assert self._prepare_in_case_folding_dir_then_not(workspace, capsys, []) == [
            (1, ["error: glyphs 'Fam/A' and 'fam/A' would both be written as prepared/fam__A.*"],
             []),
            (0, [], ["Fam__A.pgm", "fam__A.pgm"]),
        ]

    def test_labels_differing_in_case_rejected(self, workspace, capsys):
        # fam__A and fam__a are one file where the file system ignores case
        manifest = [
            {"family": "fam", "label": "A", "file": "sq.path"},
            {"family": "fam", "label": "a", "file": "l.path"},
        ]
        (workspace / "manifest.json").write_text(json.dumps(manifest))
        argv = ["--set", 'dataset.alphabet="Aa"']
        assert self._prepare_in_case_folding_dir_then_not(workspace, capsys, argv) == [
            (1, ["error: glyphs 'fam/A' and 'fam/a' would both be written as prepared/fam__a.*"],
             []),
            (0, [], ["fam__A.pgm", "fam__a.pgm"]),
        ]

    def test_missing_manifest(self, workspace):
        res = run_cli(
            "--config", workspace / "config.json",
            "--set", 'dataset.manifest="/nonexistent/m.json"', "prepare",
        )
        assert res.returncode == 1


class TestTrain:
    def test_train_writes_checkpoint_log_and_echo(self, workspace):
        res = run_cli("--config", workspace / "config.json", "train")
        assert res.returncode == 0, res.stderr
        out = workspace / "out"
        assert (out / "checkpoint.ckpt").is_file()
        log = (out / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,gamma,loss_total,loss_global,loss_local,loss_grad,latent_norm,wall_ms"
        assert len(log) == 21
        for line in log[1:]:
            for cell in line.split(","):
                float(cell)  # plain numbers, no numpy scalar reprs
        from glyphsdf import autodecoder as ad

        echo = ad.load_checkpoint(out / "checkpoint.ckpt").train_config
        assert echo["train"]["epochs"] == 20

    def test_seed_determinism_byte_identical(self, workspace):
        # same seed, same output dir (run, stash, rerun): files must match
        # byte for byte, including the embedded config echo
        cfg = workspace / "config.json"
        res = run_cli("--config", cfg, "--threads", "1", "train")
        assert res.returncode == 0, res.stderr
        out = workspace / "out"
        first_ckpt = (out / "checkpoint.ckpt").read_bytes()
        first_log = (out / "train_log.csv").read_bytes()
        res = run_cli("--config", cfg, "--threads", "1", "train")
        assert res.returncode == 0, res.stderr
        assert (out / "checkpoint.ckpt").read_bytes() == first_ckpt
        assert (out / "train_log.csv").read_bytes() == first_log

    def test_one_blas_mode_whatever_the_config_and_environment(self, workspace):
        # run A pins by flag; run B has no threads key and asks the
        # environment for four BLAS threads, which the CLI overrides before
        # numpy loads, so both train in the one mode, with the same bytes
        doc = json.loads((workspace / "config.json").read_text())
        doc["train"].update(hidden_layers=2, hidden_width=16)
        del doc["train"]["threads"]
        (workspace / "no_threads.json").write_text(json.dumps(doc))
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        # one output dir for both runs, as the checkpoint echoes the config
        out, outputs = workspace / "out", []
        for flags, run_env in [(["--threads", "1"], None),
                               ([], {**env, "OPENBLAS_NUM_THREADS": "4"})]:
            res = run_cli("--config", workspace / "no_threads.json", *flags, "train", env=run_env)
            assert res.returncode == 0, res.stderr
            outputs.append([(out / f).read_bytes() for f in ("checkpoint.ckpt", "train_log.csv")])
        assert outputs[0] == outputs[1]

    def test_resume_continues_bit_exactly(self, workspace):
        cfg = workspace / "config.json"
        full_dir = workspace / "full"
        res = run_cli("--config", cfg, "--set", f'paths.output_dir="{full_dir}"', "train")
        assert res.returncode == 0, res.stderr
        half_dir = workspace / "half"
        res = run_cli(
            "--config", cfg, "--set", f'paths.output_dir="{half_dir}"',
            "--set", "train.epochs=10", "train",
        )
        assert res.returncode == 0, res.stderr
        resumed_dir = workspace / "resumed"
        res = run_cli(
            "--config", cfg, "--set", f'paths.output_dir="{resumed_dir}"',
            "train", "--resume", half_dir / "checkpoint.ckpt",
        )
        assert res.returncode == 0, res.stderr
        import struct

        a = (full_dir / "checkpoint.ckpt").read_bytes()
        b = (resumed_dir / "checkpoint.ckpt").read_bytes()
        na = struct.unpack_from("<I", a, 8)[0]
        nb = struct.unpack_from("<I", b, 8)[0]
        assert a[12 + na :] == b[12 + nb :]

    def test_n1_mode(self, workspace):
        res = run_cli("--config", workspace / "config.json", "--set", "field.channels=1", "train")
        assert res.returncode == 0, res.stderr
        from glyphsdf import autodecoder as ad

        bundle = ad.load_checkpoint(workspace / "out" / "checkpoint.ckpt")
        # loading checks that the manifest's channel count is the network's
        assert bundle.network.out_channels == 1

    @staticmethod
    def _train_one_glyph(workspace, *overrides, resume=None):
        """Train a 2x16 network on the square glyph alone: one step an epoch."""
        (workspace / "one.json").write_text(
            json.dumps([{"family": "fam", "label": "A", "file": "sq.path"}])
        )
        return run_cli(
            "--config", workspace / "config.json",
            "--set", f"dataset.manifest={json.dumps(str(workspace / 'one.json'))}",
            "--set", "train.hidden_layers=2", "--set", "train.hidden_width=16",
            *(a for o in overrides for a in ("--set", o)), "train",
            *(["--resume", resume] if resume else []),
        )

    def test_divergence_to_nan_writes_the_last_good_checkpoint(self, workspace):
        # epoch 2's step diverges; epoch 1's end state was never proven, and
        # epoch 0's was, by epoch 1's step
        res = self._train_one_glyph(
            workspace, "train.epochs=3", "train.lr=2e76", "train.seed=0")
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr and "RuntimeWarning" not in res.stderr
        assert "training diverged at epoch 2; last good checkpoint written" in res.stderr
        from glyphsdf import autodecoder as ad

        ckpt = workspace / "out" / "checkpoint.diverged.ckpt"
        bundle = ad.load_checkpoint(ckpt)
        assert bundle.epoch == 1
        # the manifest echoes the diverged run's config
        assert bundle.train_config["train"]["lr"] == 2e76
        assert bundle.train_config["train"]["epochs"] == 3
        res = run_cli("--config", workspace / "config.json", "render", "--checkpoint", ckpt,
                      "--family", "fam", "--label", "A", "--res", "16")
        assert res.returncode == 0, res.stderr

    def test_resume_from_a_checkpoint_without_adam_moments(self, workspace):
        # the diverged checkpoint keeps epoch 1's parameters but no moments:
        # a resumed run starts ADAM afresh and takes epochs 1 and 2
        res = self._train_one_glyph(
            workspace, "train.epochs=3", "train.lr=2e76", "train.seed=0")
        assert res.returncode == 2, res.stderr
        from glyphsdf import autodecoder as ad

        ckpt = workspace / "out" / "checkpoint.diverged.ckpt"
        assert ad.load_checkpoint(ckpt).adam is None
        res = self._train_one_glyph(
            workspace, "train.epochs=3", "train.lr=1e-3", "train.seed=0", resume=ckpt)
        assert res.returncode == 0, res.stderr
        bundle = ad.load_checkpoint(workspace / "out" / "checkpoint.ckpt")
        assert bundle.epoch == 3
        assert bundle.adam.step_count == 2

    @pytest.mark.parametrize("lr", ["1e300", "1.7e308"])
    def test_unproven_snapshot_is_not_written(self, workspace, lr):
        # epoch 1's first step diverges, so epoch 0's end state, whose
        # network returns non-finite values, is never proven
        res = self._train_one_glyph(workspace, "train.epochs=2", f"train.lr={lr}")
        assert res.returncode == 2, res.stderr
        assert res.stderr.splitlines()[-1] == "training diverged at epoch 1"
        assert not list((workspace / "out").glob("*.ckpt"))

    @pytest.mark.parametrize("overrides", [
        # the latents reach about 1e300 a coordinate; their norm overflows
        ["train.lr=1e300"],
        # with the latents frozen, weight gradients above 1 overflow the update
        ["train.lr=1.79e308", "train.freeze_epoch=0", "train.alpha=1e3"],
        # finite weights near 1e300 whose outputs overflow
        ["train.lr=1e300", "train.freeze_epoch=0"],
    ], ids=["latents", "parameters", "outputs"])
    def test_overflowing_last_update_writes_nothing(self, workspace, overrides):
        # one epoch: no later step's loss would see the update
        res = self._train_one_glyph(workspace, "train.epochs=1", *overrides)
        assert res.returncode == 2, res.stderr
        assert res.stderr == "training diverged at epoch 0\n"
        assert not (workspace / "out" / "checkpoint.ckpt").exists()
        assert not (workspace / "out" / "train_log.csv").exists()


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """One training run shared by the module; its tests read the checkpoint."""
    ws = _write_workspace(tmp_path_factory.mktemp("trained"))
    res = run_cli("--config", ws / "config.json", "train")
    assert res.returncode == 0, res.stderr
    return ws / "out" / "checkpoint.ckpt"


@pytest.fixture()
def trained(workspace, trained_checkpoint):
    """A fresh workspace, with its own output dir, and the shared checkpoint."""
    return workspace, trained_checkpoint


def test_resume_at_train_epochs_keeps_the_arrays(trained):
    # the checkpoint has trained the configured 20 epochs: no step runs
    ws, ckpt = trained
    res = run_cli("--config", ws / "config.json", "train", "--resume", ckpt)
    assert res.returncode == 0, res.stderr
    a = ckpt.read_bytes()
    b = (ws / "out" / "checkpoint.ckpt").read_bytes()
    na = struct.unpack_from("<I", a, 8)[0]
    nb = struct.unpack_from("<I", b, 8)[0]
    assert a[12 + na :] == b[12 + nb :]
    before, after = json.loads(a[12 : 12 + na]), json.loads(b[12 : 12 + nb])
    assert after["epoch"] == before["epoch"] == 20
    assert after["adam"] == before["adam"]


def _payload_and_adam(ckpt):
    """A checkpoint's array bytes and its manifest's ADAM record."""
    raw = ckpt.read_bytes()
    n = struct.unpack_from("<I", raw, 8)[0]
    return raw[12 + n :], json.loads(raw[12 : 12 + n])["adam"]


def test_resume_trains_at_the_configured_lr(trained):
    # the checkpoint recorded ADAM at the default lr of 1e-3
    ws, ckpt = trained
    runs = {}
    for lr in (1e-3, 5e-3):
        out = ws / f"lr_{lr}"
        res = run_cli(
            "--config", ws / "config.json", "--set", f"paths.output_dir={json.dumps(str(out))}",
            "--set", "train.epochs=22", "--set", f"train.lr={lr}", "train", "--resume", ckpt,
        )
        assert res.returncode == 0, res.stderr
        runs[lr] = _payload_and_adam(out / "checkpoint.ckpt")
    assert runs[1e-3][1]["lr"] == 1e-3
    assert runs[5e-3][1]["lr"] == 5e-3
    assert runs[1e-3][0] != runs[5e-3][0]


def _resume_on_families(families, checkpoint_families=("fam",), glyph="sq.path"):
    """argv resuming the trained checkpoint, its latent table relabelled as
    ``checkpoint_families``, on a manifest giving each of ``families`` a
    glyph A read from ``glyph``."""

    def argv(ws, ckpt):
        from glyphsdf import autodecoder as ad

        bundle = ad.load_checkpoint(ckpt)
        codes = np.repeat(bundle.latents.codes, len(checkpoint_families), axis=0)
        bundle.latents = ad.LatentTable(codes, list(checkpoint_families))
        path = ws / "families.ckpt"
        ad.save_checkpoint(path, bundle)
        (ws / "families.json").write_text(
            json.dumps([{"family": f, "label": "A", "file": glyph} for f in families])
        )
        return ["--config", ws / "config.json",
                "--set", f"dataset.manifest={json.dumps(str(ws / 'families.json'))}",
                "train", "--resume", path]

    return argv


def test_resume_checks_the_families_before_parsing_a_glyph(trained):
    ws, ckpt = trained
    (ws / "broken.path").write_text("M 0 0 L")
    argv = _resume_on_families(["gam", "fam"], ["fam", "gam"], glyph="broken.path")
    res = run_cli(*argv(ws, ckpt))
    assert res.returncode == 1, res.stderr
    assert "cannot resume: the manifest lists families ['gam', 'fam']" in res.stderr


def test_csv_fields_with_commas_quotes_or_line_breaks_are_quoted(tmp_path):
    from glyphsdf.cli import _write_csv

    path = tmp_path / "metrics.csv"
    rows = [
        {"family": "a,b", "label": 'q"', "mse": 0.5},
        {"family": "l\nm", "label": "A", "mse": 16},
        {"family": "fam", "label": "B", "mse": 1e-20},
    ]
    _write_csv(path, ["family", "label", "mse"], rows)
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["family", "label", "mse"], ["a,b", 'q"', "0.5"], ["l\nm", "A", "16"],
            ["fam", "B", "1e-20"],
        ]
    # a row with no comma, quote or line break keeps the bytes str gives it
    assert path.read_bytes().endswith(b"\nfam,B,1e-20\n")


class TestRenderCommand:
    def test_renders_requested_resolutions(self, trained):
        ws, ckpt = trained
        res = run_cli(
            "--config", ws / "config.json", "render", "--checkpoint", ckpt,
            "--family", "fam", "--label", "A", "--res", "16,24,32,48",
        )
        assert res.returncode == 0, res.stderr
        files = sorted((ws / "out").glob("render_fam__A_implicit_*.pgm"))
        assert len(files) == 4

    def test_bilateral_and_channels(self, trained):
        ws, ckpt = trained
        res = run_cli(
            "--config", ws / "config.json", "render", "--checkpoint", ckpt,
            "--family", "fam", "--label", "B", "--res", "32",
            "--method", "bilateral", "--channels", "--contours",
        )
        assert res.returncode == 0, res.stderr
        out = ws / "out"
        assert (out / "render_fam__B_bilateral_32.pgm").is_file()
        for c in range(3):
            assert (out / f"render_fam__B_bilateral_32_c{c}.pgm").is_file()
        assert (out / "channels_fam__B.grid").is_file()
        assert (out / "render_fam__B_bilateral_32_contours.json").is_file()

    def test_bilateral_outputs_read_the_upsampled_training_grid(self, trained, monkeypatch):
        from glyphsdf import autodecoder as ad, cli, field, render

        ws, ckpt = trained
        field_grid, evaluated = render.field_grid, []

        def counting_field_grid(bundle, z, label, width):
            evaluated.append(width)
            return field_grid(bundle, z, label, width)

        monkeypatch.setattr(render, "field_grid", counting_field_grid)
        assert cli.main([
            "--config", str(ws / "config.json"), "render", "--checkpoint", str(ckpt),
            "--family", "fam", "--label", "B", "--res", "24,40",
            "--method", "bilateral", "--channels", "--contours",
        ]) == 0
        bundle = ad.load_checkpoint(ckpt)
        assert evaluated == [bundle.train_width]
        train_grid = field_grid(bundle, bundle.latents.codes[0], 1, bundle.train_width)
        out = ws / "out"
        for width in (24, 40):
            up = render.bilinear_resample(train_grid, width)
            name = f"render_fam__B_bilateral_{width}"
            want = render.extract_zero_level(field.compose_median(up, axis=0))
            got = json.loads((out / f"{name}_contours.json").read_text())
            assert got == [c.tolist() for c in want]
            for c in range(3):
                want_c, _ = render.compose(bundle, up[c : c + 1], width)
                render.write_image(out / "want.pgm", want_c)
                assert (out / f"{name}_c{c}.pgm").read_bytes() == (out / "want.pgm").read_bytes()

    def test_implicit_render_keeps_whole_chunk_bits(self, trained):
        # 91 px is 8192 + 89 rows: a chunk whose hidden layers run in
        # sub-blocks, then one whose head GEMM is small enough for OpenBLAS's
        # small-matrix kernel; every output must match whole-chunk evaluation
        from glyphsdf import autodecoder as ad, cli, geometry, render

        ws, ckpt = trained
        # evaluate on two threads of 512-row sub-blocks
        with helpers.row_threads(2):
            assert cli.main([
                "--config", str(ws / "config.json"), "render", "--checkpoint", str(ckpt),
                "--family", "fam", "--label", "B", "--res", "91", "--channels", "--contours",
            ]) == 0
            bundle = ad.load_checkpoint(ckpt)
            assert len(ad._row_parts(bundle.network, 8192)) > 1
        pts = geometry.pixel_centers(91).reshape(-1, 2)
        grid = helpers.reference_evaluate(
            bundle.network, bundle.params, pts, 1, bundle.latents.codes[0]
        ).T.reshape(3, 91, 91)
        out, name = ws / "out", "render_fam__B_implicit_91"
        image, level = render.compose(bundle, grid, 91)
        images = {name: image}
        for c in range(3):
            images[f"{name}_c{c}"] = render.compose(bundle, grid[c : c + 1], 91)[0]
        for stem, img in images.items():
            render.write_image(out / "want.pgm", img)
            assert (out / f"{stem}.pgm").read_bytes() == (out / "want.pgm").read_bytes(), stem
        want = render.extract_zero_level(level)
        got = json.loads((out / f"{name}_contours.json").read_text())
        assert got == [c.tolist() for c in want]

    def test_implicit_render_bits_do_not_depend_on_the_cpu_count(self, trained, monkeypatch):
        # evaluate's rows on one thread or two give the same files, and main
        # leaves the row threads as it finds them
        from glyphsdf import autodecoder as ad, cli, render

        ws, ckpt = trained
        field_grid, seen = render.field_grid, []

        def recording_field_grid(*args):
            seen.append(ad.ROW_THREADS)
            return field_grid(*args)

        monkeypatch.setattr(render, "field_grid", recording_field_grid)
        outputs = []
        for threads in (1, 2):
            out = ws / f"out_{threads}_threads"
            with helpers.row_threads(threads):
                assert cli.main([
                    "--config", str(ws / "config.json"),
                    "--set", f"paths.output_dir={json.dumps(str(out))}",
                    "render", "--checkpoint", str(ckpt), "--family", "fam", "--label", "A",
                    "--res", "16,91", "--contours",
                ]) == 0
                assert ad.ROW_THREADS == threads
            outputs.append({p.name: p.read_bytes() for p in out.glob("render_*")})
        assert seen == [1, 1, 2, 2]
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]

    def test_unknown_family(self, trained):
        ws, ckpt = trained
        res = run_cli(
            "--config", ws / "config.json", "render", "--checkpoint", ckpt,
            "--family", "nope", "--label", "A",
        )
        assert res.returncode == 1
        assert "unknown family" in res.stderr

    def test_unknown_label(self, trained):
        ws, ckpt = trained
        res = run_cli(
            "--config", ws / "config.json", "render", "--checkpoint", ckpt,
            "--family", "fam", "--label", "Z",
        )
        assert res.returncode == 1

    def test_missing_checkpoint_is_io_error(self, trained):
        ws, _ = trained
        res = run_cli(
            "--config", ws / "config.json", "render",
            "--checkpoint", ws / "nope.ckpt", "--family", "fam", "--label", "A",
        )
        assert res.returncode == 3


class TestInterpolateCommand:
    def test_steps_validation(self, trained):
        ws, ckpt = trained
        res = run_cli(
            "--config", ws / "config.json", "interpolate", "--checkpoint", ckpt,
            "--family-a", "fam", "--family-b", "fam", "--label", "A", "--steps", "1",
        )
        assert res.returncode == 1
        assert "steps" in res.stderr

    def test_endpoint_frames(self, trained):
        ws, ckpt = trained
        res = run_cli(
            "--config", ws / "config.json", "interpolate", "--checkpoint", ckpt,
            "--family-a", "fam", "--family-b", "fam", "--label", "A",
            "--steps", "3", "--res", "16",
        )
        assert res.returncode == 0, res.stderr
        frames = sorted((ws / "out").glob("interp_fam__A_fam__A_*.pgm"))
        assert len(frames) == 3
        # same family at both ends: all frames identical
        assert frames[0].read_bytes()[-256:] == frames[2].read_bytes()[-256:]


class TestFitCommand:
    def test_fit_writes_latent_and_completions(self, trained):
        ws, ckpt = trained
        from glyphsdf import autodecoder as ad, render as render_mod

        bundle = ad.load_checkpoint(ckpt)
        grid = render_mod.field_grid(bundle, bundle.latents.codes[0], 0, 16)
        img, _ = render_mod.compose(bundle, grid, 16)
        target = ws / "target.pgm"
        render_mod.write_image(target, img)
        res = run_cli(
            "--config", ws / "config.json",
            "--set", "train.fit_steps=10",
            "fit", "--checkpoint", ckpt, "--target", target,
            "--label", "A", "--res", "16",
        )
        assert res.returncode == 0, res.stderr
        out = ws / "out"
        z = json.loads((out / "fit_z.json").read_text())["z"]
        assert len(z) == 128
        assert (out / "completed_00_A.pgm").is_file()
        assert (out / "completed_01_B.pgm").is_file()

    def test_diverging_fit_is_one_line_and_writes_nothing(self, trained):
        # at lr 1e300 the first step moves the latent to about 1e300 a
        # coordinate, and the next objective overflows
        ws, ckpt = trained
        (ws / "blank.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(256))
        res = run_cli(
            "--config", ws / "config.json",
            "--set", "train.fit_lr=1e300", "--set", "train.fit_steps=5",
            "fit", "--checkpoint", ckpt, "--target", ws / "blank.pgm",
            "--label", "A", "--res", "16",
        )
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr and "RuntimeWarning" not in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr
        assert "fit diverged at step 1: non-finite objective" in res.stderr
        assert not (ws / "out").exists()

    def test_overflowing_last_step_writes_nothing(self, trained):
        # the one step's update moves the latent to about 1e300 a coordinate,
        # and no later objective would see it
        ws, ckpt = trained
        (ws / "blank.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(256))
        res = run_cli(
            "--config", ws / "config.json",
            "--set", "train.fit_lr=1e300", "--set", "train.fit_steps=1",
            "fit", "--checkpoint", ckpt, "--target", ws / "blank.pgm",
            "--label", "A", "--res", "16",
        )
        assert res.returncode == 2, res.stderr
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr
        assert "fit diverged at step 0: non-finite latent norm inf" in res.stderr
        assert not (ws / "out").exists()

    def test_mask_dimension_mismatch(self, trained):
        ws, ckpt = trained
        from glyphsdf import render as render_mod

        render_mod.write_image(ws / "t.pgm", np.zeros((16, 16)))
        render_mod.write_image(ws / "m.pgm", np.zeros((8, 8)))
        res = run_cli(
            "--config", ws / "config.json", "fit", "--checkpoint", ckpt,
            "--target", ws / "t.pgm", "--label", "A", "--mask", ws / "m.pgm",
        )
        assert res.returncode == 1
        assert "mask dimensions" in res.stderr


    @pytest.mark.parametrize(
        "raw", [b"P5\n16 16\n255\n" + bytes(100), b"P5\n16 sixteen\n255\n"]
    )
    def test_bad_target_image_is_io_error(self, trained, raw):
        ws, ckpt = trained
        target = ws / "bad.pgm"
        target.write_bytes(raw)
        res = run_cli(
            "--config", ws / "config.json", "fit", "--checkpoint", ckpt,
            "--target", target, "--label", "A",
        )
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1
        assert "PGM" in res.stderr


def test_labels_outside_letters_and_digits_are_escaped_in_file_names(workspace):
    # "/" would name a directory and NUL no file at all: prepare, render and
    # fit write them as u002f and u0000
    manifest = [
        {"family": "fam", "label": "A", "file": "sq.path"},
        {"family": "fam", "label": "/", "file": "l.path"},
        {"family": "fam", "label": "\u0000", "file": "sq.path"},
    ]
    (workspace / "manifest.json").write_text(json.dumps(manifest))
    cfg = ["--config", workspace / "config.json", "--set", 'dataset.alphabet="A/\\u0000"']
    out = workspace / "out"
    for command in (["prepare"], ["train"]):
        res = run_cli(*cfg, *command)
        assert res.returncode == 0, res.stderr
    prepared = sorted(p.name for p in (out / "prepared").iterdir())
    assert prepared == [
        f"fam__{label}.{ext}"
        for label in ("A", "u0000", "u002f") for ext in ("json", "pgm", "sdf.grid")
    ]
    assert json.loads((out / "prepared" / "fam__u0000.json").read_text())["label"] == "\u0000"
    ckpt = out / "checkpoint.ckpt"
    res = run_cli(
        *cfg, "render", "--checkpoint", ckpt, "--family", "fam", "--label", "/", "--res", "16",
    )
    assert res.returncode == 0, res.stderr
    assert (out / "render_fam__u002f_implicit_16.pgm").is_file()
    from glyphsdf import autodecoder as ad, render as render_mod

    bundle = ad.load_checkpoint(ckpt)
    grid = render_mod.field_grid(bundle, bundle.latents.codes[0], 1, 16)
    render_mod.write_image(workspace / "target.pgm", render_mod.compose(bundle, grid, 16)[0])
    res = run_cli(
        *cfg, "--set", "train.fit_steps=2", "fit", "--checkpoint", ckpt,
        "--target", workspace / "target.pgm", "--label", "/", "--res", "16",
    )
    assert res.returncode == 0, res.stderr
    assert sorted(p.name for p in out.glob("completed_*")) == [
        "completed_00_A.pgm", "completed_01_u002f.pgm", "completed_02_u0000.pgm",
    ]


def test_families_differing_outside_letters_and_digits_get_their_own_files(workspace):
    # "a.b" and "a_b" escape to au002eb and au005fb: neither render
    # overwrites the other
    manifest = [
        {"family": "a.b", "label": "A", "file": "sq.path"},
        {"family": "a_b", "label": "A", "file": "l.path"},
    ]
    (workspace / "manifest.json").write_text(json.dumps(manifest))
    cfg = ["--config", workspace / "config.json", "--set", 'dataset.alphabet="A"']
    res = run_cli(*cfg, "train")
    assert res.returncode == 0, res.stderr
    out = workspace / "out"
    for family in ("a.b", "a_b"):
        res = run_cli(
            *cfg, "render", "--checkpoint", out / "checkpoint.ckpt", "--family", family,
            "--label", "A", "--res", "16",
        )
        assert res.returncode == 0, res.stderr
    assert sorted(p.name for p in out.glob("render_*")) == [
        "render_au002eb__A_implicit_16.pgm", "render_au005fb__A_implicit_16.pgm",
    ]


class TestEvalCommand:
    def test_metrics_table_columns(self, trained):
        ws, ckpt = trained
        res = run_cli(
            "--config", ws / "config.json", "eval", "--checkpoint", ckpt
        )
        assert res.returncode == 0, res.stderr
        lines = (ws / "out" / "metrics.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["method", "res", "mse", "siou", "c_mse", "c_siou"]
        assert "lap" in header
        # 2 glyphs x 2 methods x 2 resolutions
        assert len(lines) == 1 + 8

    def test_family_missing_from_checkpoint_fails_before_parsing(self, trained):
        ws, ckpt = trained
        (ws / "ghost.path").write_text("M 0 0 X 1 1 Z")  # fails if parsed
        (ws / "ghost.json").write_text(json.dumps([
            {"family": "fam", "label": "A", "file": "sq.path"},
            {"family": "ghost", "label": "B", "file": "ghost.path"},
        ]))
        res = run_cli(
            "--config", ws / "config.json", "--set",
            f"dataset.manifest={json.dumps(str(ws / 'ghost.json'))}",
            "eval", "--checkpoint", ckpt,
        )
        assert res.returncode == 1
        assert "unknown family 'ghost'" in res.stderr
        assert not (ws / "out" / "metrics.csv").exists()

    def test_self_evaluation_scores_one(self, trained):
        # rendering a checkpoint against itself through the eval plumbing:
        # identical image pairs give siou 1; here just sanity-check ranges
        ws, ckpt = trained
        run_cli("--config", ws / "config.json", "eval", "--checkpoint", ckpt)
        rows = (ws / "out" / "metrics.csv").read_text().splitlines()[1:]
        for row in rows:
            parts = row.split(",")
            assert 0.0 <= float(parts[3]) <= 1.0


CKPT = object()  # stands for the trained checkpoint in a command


def _in_file(section, key, value, *command):
    """argv running ``command`` with one value of the config file replaced."""

    def argv(ws, ckpt):
        doc = json.loads((ws / "config.json").read_text())
        doc[section][key] = value
        (ws / "bad.json").write_text(json.dumps(doc))
        return ["--config", ws / "bad.json", *[ckpt if a is CKPT else a for a in command]]

    return argv


def _with_set(override):
    return lambda ws, ckpt: ["--config", ws / "config.json", "--set", override, "train"]


def _command(*command):
    return lambda ws, ckpt: [
        "--config", ws / "config.json", *[ckpt if a is CKPT else a for a in command]
    ]


def _render_edited(name, edit):
    """argv rendering from a copy of the checkpoint that ``edit(path)`` changed."""

    def argv(ws, ckpt):
        path = ws / f"{name}.ckpt"
        path.write_bytes(ckpt.read_bytes())
        edit(path)
        return ["--config", ws / "config.json", "render", "--checkpoint", path,
                "--family", "fam", "--label", "A"]

    return argv


def _ghost_manifest(ws, ckpt):
    """argv running eval on a manifest whose one family the checkpoint lacks."""
    (ws / "ghost.json").write_text(
        json.dumps([{"family": "ghost", "label": "A", "file": "sq.path"}])
    )
    return ["--config", ws / "config.json", "--set",
            f"dataset.manifest={json.dumps(str(ws / 'ghost.json'))}", "eval", "--checkpoint", ckpt]


def _fit_label(label):
    """argv fitting a blank 16x16 target as ``label``."""

    def argv(ws, ckpt):
        (ws / "blank.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(256))
        return ["--config", ws / "config.json", "--set", "train.fit_steps=2", "fit",
                "--checkpoint", ckpt, "--target", ws / "blank.pgm", "--label", label,
                "--res", "16"]

    return argv


def _mask_everything(ws, ckpt):
    """argv fitting a blank 16x16 target under a mask that hides every pixel."""
    (ws / "blank.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(256))
    (ws / "all.pgm").write_bytes(b"P5\n16 16\n255\n" + b"\xff" * 256)
    return ["--config", ws / "config.json", "fit", "--checkpoint", ckpt,
            "--target", ws / "blank.pgm", "--mask", ws / "all.pgm", "--label", "A",
            "--res", "16"]


def _families_escaping_alike(ws, ckpt):
    """argv training on families "a.b" and "au002eb", whose file name parts
    are both au002eb."""
    (ws / "alike.json").write_text(json.dumps(
        [{"family": f, "label": "A", "file": "sq.path"} for f in ("a.b", "au002eb")]
    ))
    return ["--config", ws / "config.json",
            "--set", f"dataset.manifest={json.dumps(str(ws / 'alike.json'))}", "train"]


def _empty_manifest(ws, ckpt):
    """argv training on a manifest with no records, into its own output dir."""
    (ws / "empty.json").write_text("[]")
    return ["--config", ws / "config.json",
            "--set", f"dataset.manifest={json.dumps(str(ws / 'empty.json'))}",
            "--set", f"paths.output_dir={json.dumps(str(ws / 'empty_out'))}", "train"]


def test_train_on_an_empty_manifest_writes_nothing(workspace):
    res = run_cli(*_empty_manifest(workspace, None))
    assert res.returncode == 1, res.stderr
    assert "no glyphs" in res.stderr
    assert not (workspace / "empty_out").exists()


def _prepare_outline(text):
    """argv preparing a manifest of one glyph with the outline ``text``."""

    def argv(ws, ckpt):
        (ws / "outline.path").write_text(text)
        (ws / "outline.json").write_text(
            json.dumps([{"family": "fam", "label": "A", "file": "outline.path"}])
        )
        return ["--config", ws / "config.json",
                "--set", f"dataset.manifest={json.dumps(str(ws / 'outline.json'))}", "prepare"]

    return argv


def _nested_config(ws, ckpt):
    (ws / "nest.json").write_text("[" * 100_000)
    return ["--config", ws / "nest.json", "prepare"]


def _latin1_config(ws, ckpt):
    (ws / "latin1.json").write_bytes('{"paths": {"output_dir": "é"}}'.encode("latin-1"))
    return ["--config", ws / "latin1.json", "prepare"]


def _nest_manifest(path):
    """Replace a checkpoint's manifest blob by 100,000 opening brackets."""
    raw = path.read_bytes()
    n = struct.unpack_from("<I", raw, 8)[0]
    blob = b"[" * 100_000
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n :])


BAD_INPUTS = [
    # (case, argv from (workspace, checkpoint), documented exit code)
    ("field.channels=2", _in_file("field", "channels", 2, "train"), 1),
    ("field.aa_k=0", _in_file("field", "aa_k", 0, "train"), 1),
    ("field.train_width=4", _in_file("field", "train_width", 4, "train"), 1),
    ("eval.resolutions=[4]", _in_file("eval", "resolutions", [4], "eval", "--checkpoint", CKPT), 1),
    ("eval.resolutions=[]", _in_file("eval", "resolutions", [], "eval", "--checkpoint", CKPT), 1),
    ("eval.resolutions=[16,16]", _in_file(
        "eval", "resolutions", [16, 16], "eval", "--checkpoint", CKPT), 1),
    ("eval.resolutions=[70000]", _in_file(
        "eval", "resolutions", [70000], "eval", "--checkpoint", CKPT), 1),
    ("eval.methods=[]", _in_file("eval", "methods", [], "eval", "--checkpoint", CKPT), 1),
    ('eval.methods=["bilateral","bilateral"]', _in_file(
        "eval", "methods", ["bilateral", "bilateral"], "eval", "--checkpoint", CKPT), 1),
    ("field.train_width=70000", _in_file("field", "train_width", 70000, "train"), 1),
    ("train --mode n1", _command("train", "--mode", "n1"), 1),
    ("train.hidden_layers=0", _in_file("train", "hidden_layers", 0, "train"), 1),
    ("train.hidden_layers=1", _with_set("train.hidden_layers=1"), 1),
    ("train.epochs=-3", _with_set("train.epochs=-3"), 1),
    ("train.lr=-1", _with_set("train.lr=-1"), 1),
    ("train.samples_cap=0", _with_set("train.samples_cap=0"), 1),
    ("train.supervision=bogus", _with_set('train.supervision="bogus"'), 1),
    ("train.alpha=-1", _with_set("train.alpha=-1"), 1),
    ("train.epochs=1.5", _with_set("train.epochs=1.5"), 1),
    ("field.channels=true", _with_set("field.channels=true"), 1),
    ("train.gamma_start=0", _with_set("train.gamma_start=0"), 1),
    ("train.threads=0", _with_set("train.threads=0"), 1),
    ("train.threads=2", _with_set("train.threads=2"), 1),
    ("--threads 2", _command("--threads", "2", "train"), 1),
    ("train.seed=-1", _with_set("train.seed=-1"), 1),
    ("--seed -1", _command("--seed", "-1", "train"), 1),
    ("train.anneal_epochs=-1", _with_set("train.anneal_epochs=-1"), 1),
    ("train.freeze_epoch=-1", _with_set("train.freeze_epoch=-1"), 1),
    ("train.fit_steps=-1", _with_set("train.fit_steps=-1"), 1),
    ("train.rho=-0.5", _with_set("train.rho=-0.5"), 1),
    ("train.min_homogeneous=-1", _with_set("train.min_homogeneous=-1"), 1),
    ('dataset.alphabet=""', _with_set('dataset.alphabet=""'), 1),
    ('dataset.alphabet="ABA"', _with_set('dataset.alphabet="ABA"'), 1),
    ("field.corner_threshold=0", _with_set("field.corner_threshold=0"), 1),
    ("field.corner_threshold=3.2", _with_set("field.corner_threshold=3.2"), 1),
    ("dataset.margin=1", _with_set("dataset.margin=1"), 1),
    ("dataset.margin=-0.1", _with_set("dataset.margin=-0.1"), 1),
    ("train --resume with field.channels=1 on 3 channels", _command(
        "--set", "field.channels=1", "train", "--resume", CKPT), 1),
    ("train --resume with other hidden_layers", _command(
        "--set", "train.hidden_layers=2", "train", "--resume", CKPT), 1),
    ("train --resume with other hidden_width", _command(
        "--set", "train.hidden_width=8", "train", "--resume", CKPT), 1),
    ("train --resume past train.epochs", _command(
        "--set", "train.epochs=5", "train", "--resume", CKPT), 1),
    ('eval with dataset.alphabet="BA"', _command(
        "--set", 'dataset.alphabet="BA"', "eval", "--checkpoint", CKPT), 3),
    ('eval with dataset.alphabet="BAC"', _command(
        "--set", 'dataset.alphabet="BAC"', "eval", "--checkpoint", CKPT), 3),
    ("eval of a family the checkpoint lacks", _ghost_manifest, 1),
    ("train --resume with the families reordered", _resume_on_families(
        ["gam", "fam"], ["fam", "gam"]), 1),
    ("train --resume with a family the checkpoint lacks", _resume_on_families(
        ["fam", "gam"]), 1),
    ("render --label AB", _command(
        "render", "--checkpoint", CKPT, "--family", "fam", "--label", "AB", "--res", "16"), 1),
    ('interpolate --label ""', _command(
        "interpolate", "--checkpoint", CKPT, "--family-a", "fam", "--family-b", "fam",
        "--label", "", "--steps", "2", "--res", "16"), 1),
    ("fit --label AB", _fit_label("AB"), 1),
    ("fit --mask hiding every pixel", _mask_everything, 1),
    ("train on an empty manifest", _empty_manifest, 1),
    ("train on families a.b and au002eb", _families_escaping_alike, 1),
    ("render --res 4", _command(
        "render", "--checkpoint", CKPT, "--family", "fam", "--label", "A", "--res", "4"), 1),
    ("render --res 16,16", _command(
        "render", "--checkpoint", CKPT, "--family", "fam", "--label", "A", "--res", "16,16"), 1),
    ("render --res 10000000000", _command(
        "render", "--checkpoint", CKPT, "--family", "fam", "--label", "A",
        "--res", "10000000000"), 1),
    ("interpolate --res 0", _command(
        "interpolate", "--checkpoint", CKPT, "--family-a", "fam", "--family-b", "fam",
        "--label", "A", "--steps", "2", "--res", "0"), 1),
    ("field.aa_k=true", _with_set("field.aa_k=true"), 1),
    ('train.lr="x"', _with_set('train.lr="x"'), 1),
    ("dataset.manifest=5", _with_set("dataset.manifest=5"), 1),
    ("paths.output_dir=5", _with_set("paths.output_dir=5"), 1),
    ("checkpoint without latents", _render_edited(
        "no_latents", lambda p: drop_checkpoint_entry(p, "latents")), 3),
    ("checkpoint with alphabet AA", _render_edited(
        "alphabet_AA",
        lambda p: edit_checkpoint_manifest(p, lambda m: m.update(alphabet="AA"))), 3),
    ("checkpoint without the input skip", _render_edited(
        "skip_0",
        lambda p: edit_checkpoint_manifest(p, lambda m: m["network"].update(skip_layer=0))), 3),
    ("checkpoint with families 5", _render_edited(
        "families_5", lambda p: edit_checkpoint_manifest(p, lambda m: m.update(families=5))), 3),
    ("config nested 100,000 deep", _nested_config, 1),
    ("--set nested 100,000 deep", _with_set("train.epochs=" + "[" * 100_000), 1),
    ("checkpoint manifest nested 100,000 deep", _render_edited("nested", _nest_manifest), 3),
    ("train.rho=1e400", _with_set("train.rho=1e400"), 1),
    ("field.aa_k=1e400", _with_set("field.aa_k=1e400"), 1),
    ("config not UTF-8", _latin1_config, 1),
    ("checkpoint with aa_k Infinity", _render_edited(
        "aa_k_inf",
        lambda p: edit_checkpoint_manifest(p, lambda m: m.update(aa_k=float("inf")))), 3),
    ("outline whose extent overflows", _prepare_outline("M -1e308 0 L 1e308 0 L 0 1e308 Z"), 1),
    ("outline whose scale overflows", _prepare_outline("M 0 0 L 1e-320 0 L 0 1e-320 Z"), 1),
]


@pytest.mark.parametrize("case, argv, code", BAD_INPUTS, ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_is_one_line_error(trained, case, argv, code):
    ws, ckpt = trained
    res = run_cli(*argv(ws, ckpt))
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1, res.stderr


def test_out_of_memory_is_one_line_error(trained, monkeypatch, capsys):
    # a width inside the limit that the host cannot hold; no test allocates
    # one for real
    from glyphsdf import cli, render

    ws, ckpt = trained

    def field_grid(bundle, z, label, width):
        raise MemoryError(f"Unable to allocate the grid at width {width}")

    monkeypatch.setattr(render, "field_grid", field_grid)
    assert cli.main([
        "--config", str(ws / "config.json"), "render", "--checkpoint", str(ckpt),
        "--family", "fam", "--label", "A", "--res", "60000",
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and len(err.strip().splitlines()) == 1, err


NAN_HEAD_COMMANDS = {
    "render --contours": ["render", "--family", "fam", "--label", "A", "--res", "16", "--contours"],
    "interpolate": ["interpolate", "--family-a", "fam", "--family-b", "fam", "--label", "A",
                    "--steps", "2", "--res", "16"],
    "fit": ["--set", "train.fit_steps=2", "fit", "--label", "A", "--res", "16"],
    "eval": ["eval"],
}


@pytest.mark.parametrize("command", NAN_HEAD_COMMANDS.values(), ids=NAN_HEAD_COMMANDS)
def test_non_finite_network_is_numerical_error(trained, command):
    from glyphsdf import autodecoder as ad, render

    ws, ckpt = trained
    bundle = ad.load_checkpoint(ckpt)
    bundle.params.biases[-1][:] = np.nan
    path = ws / "nan_head.ckpt"
    ad.save_checkpoint(path, bundle)
    render.write_image(ws / "target.pgm", np.zeros((16, 16)))
    extra = ["--checkpoint", path] + (["--target", ws / "target.pgm"] if "fit" in command else [])
    res = run_cli("--config", ws / "config.json", *command, *extra)
    assert res.returncode == 2, res.stderr
    assert len(res.stderr.strip().splitlines()) == 1, res.stderr
    assert "non-finite" in res.stderr and "Warning" not in res.stderr


@pytest.mark.parametrize("command", NAN_HEAD_COMMANDS.values(), ids=NAN_HEAD_COMMANDS)
def test_overflowing_network_is_one_line_error(trained, command):
    # weights near 1e300 overflow the first hidden layers to inf and then
    # to nan, which numpy would warn about before the one-line error
    from glyphsdf import autodecoder as ad, render

    ws, ckpt = trained
    bundle = ad.load_checkpoint(ckpt)
    for w in bundle.params.weights:
        w *= 1e300
    path = ws / "overflow.ckpt"
    ad.save_checkpoint(path, bundle)
    render.write_image(ws / "target.pgm", np.zeros((16, 16)))
    extra = ["--checkpoint", path] + (["--target", ws / "target.pgm"] if "fit" in command else [])
    res = run_cli("--config", ws / "config.json", *command, *extra)
    assert res.returncode == 2, res.stderr
    assert len(res.stderr.strip().splitlines()) == 1, res.stderr
    assert "non-finite" in res.stderr and "RuntimeWarning" not in res.stderr


_PIN_SCRIPT = """
import os, sys
assert "numpy" not in sys.modules
import glyphsdf.cli
from glyphsdf import autodecoder
pins = [os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")]
print(*pins, autodecoder.ROW_THREADS)
"""


def test_importing_the_cli_pins_blas_before_numpy_loads():
    # a fresh interpreter whose environment asks for four BLAS threads: the
    # CLI's import pins one before numpy loads, so the row threads take the
    # CPUs, at most two
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "4"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    res = subprocess.run([sys.executable, "-c", _PIN_SCRIPT], capture_output=True, text=True,
                         env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["1", "1", "1", str(min(2, cpus))]


_LATE_PIN_SCRIPT = """
import os
import numpy
import glyphsdf.cli
from glyphsdf import autodecoder
print(os.environ["OPENBLAS_NUM_THREADS"], autodecoder.ROW_THREADS)
"""


def test_importing_the_cli_after_numpy_keeps_the_blas_threads():
    # numpy loaded first and read four BLAS threads: the CLI's import
    # leaves the pin as BLAS read it, so the row threads stay off
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "4"
    res = subprocess.run([sys.executable, "-c", _LATE_PIN_SCRIPT], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["4", "1"]


def test_eval_threads_follow_the_blas_threads(monkeypatch):
    # one BLAS thread per call: evaluate takes the CPUs, at most two; else
    # BLAS spreads each GEMM
    from glyphsdf import autodecoder as ad

    def rule():
        threads = []
        for pin in (None, "1", "2"):
            if pin is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", pin)
            threads.append(ad._row_threads())
        return threads

    for cpus, want in [(1, 1), (2, 2), (3, 2)]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert rule() == [1, want, 1]
    monkeypatch.delattr(os, "sched_getaffinity")
    for cpus, want in [(None, 1), (1, 1), (5, 2)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert rule() == [1, want, 1]


def test_eval_threads_on_a_large_host_keep_sub_blocks(monkeypatch):
    # at 128 CPUs the production network must still run its hidden layers
    # in sub-blocks and stay under test_peak_memory's 45 MB bound; whole
    # 8192-row chunks would hold about 100 MB of buffers
    import tracemalloc

    from glyphsdf import autodecoder as ad

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(128)), raising=False)
    cfg = ad.NetworkConfig(alphabet_size=52)
    params = ad.init_parameters(cfg, np.random.default_rng(0))
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, size=(16384, 2))
    with helpers.row_threads(ad._row_threads()):
        assert len(ad._row_parts(cfg, ad.CHUNK_ROWS)) > 1
        tracemalloc.start()
        try:
            ad.evaluate(cfg, params, pts, 0, np.zeros(cfg.latent_dim))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 45e6


def test_env_var_config(workspace, monkeypatch):
    env = dict(os.environ)
    env["GLYPHSDF_CONFIG"] = str(workspace / "config.json")
    res = subprocess.run(
        [sys.executable, "-m", "glyphsdf", "prepare"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    assert (workspace / "out" / "prepared").is_dir()
