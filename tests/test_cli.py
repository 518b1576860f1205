"""End-to-end command-line tests (subprocess, tiny configs)."""
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import L_PATH, SQUARE_PATH, drop_checkpoint_entry, edit_checkpoint_manifest


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "glyphsdf", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
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

    def test_families_sharing_a_file_name_rejected(self, workspace):
        # "a b" and "a_b" both become the file stem a_b__A
        manifest = [
            {"family": "a b", "label": "A", "file": "sq.path"},
            {"family": "a_b", "label": "A", "file": "l.path"},
        ]
        (workspace / "manifest.json").write_text(json.dumps(manifest))
        res = run_cli("--config", workspace / "config.json", "prepare")
        assert res.returncode == 1
        assert res.stderr.splitlines() == [
            "error: glyphs 'a b/A' and 'a_b/A' would both be written as prepared/a_b__A.*"
        ]
        assert not (workspace / "out" / "prepared").exists()

    def test_labels_differing_in_case_rejected(self, workspace):
        # fam__A and fam__a are one file where the filesystem ignores case
        manifest = [
            {"family": "fam", "label": "A", "file": "sq.path"},
            {"family": "fam", "label": "a", "file": "l.path"},
        ]
        (workspace / "manifest.json").write_text(json.dumps(manifest))
        res = run_cli(
            "--config", workspace / "config.json",
            "--set", 'dataset.alphabet="Aa"', "prepare",
        )
        assert res.returncode == 1
        assert res.stderr.splitlines() == [
            "error: glyphs 'fam/A' and 'fam/a' would both be written as prepared/fam__a.*"
        ]
        assert not (workspace / "out" / "prepared").exists()

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
        echo = json.loads((out / "config.echo.json").read_text())
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
        res = run_cli("--config", workspace / "config.json", "train", "--mode", "n1")
        assert res.returncode == 0, res.stderr
        from glyphsdf import autodecoder as ad

        bundle = ad.load_checkpoint(workspace / "out" / "checkpoint.ckpt")
        # loading checks that the manifest's channel count is the network's
        assert bundle.network.out_channels == 1


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
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)  # restored after the test
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
                want_c = render.opacity(up[c], width, bundle.aa_k, bundle.supervision)
                render.write_image(out / "want.pgm", want_c)
                assert (out / f"{name}_c{c}.pgm").read_bytes() == (out / "want.pgm").read_bytes()

    def test_implicit_render_keeps_whole_chunk_bits(self, trained, monkeypatch):
        # 91 px is 8192 + 89 rows: a chunk whose hidden layers run in
        # sub-blocks, then one whose head GEMM is small enough for OpenBLAS's
        # small-matrix kernel; every output must match whole-chunk evaluation
        import helpers
        from glyphsdf import autodecoder as ad, cli, geometry, render

        ws, ckpt = trained
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")  # restored after the test
        assert cli.main([
            "--config", str(ws / "config.json"), "render", "--checkpoint", str(ckpt),
            "--family", "fam", "--label", "B", "--res", "91", "--channels", "--contours",
        ]) == 0
        bundle = ad.load_checkpoint(ckpt)
        assert len(ad._sub_blocks(bundle.network, 8192)) > 1
        pts = geometry.pixel_centers(91).reshape(-1, 2)
        grid = helpers.reference_evaluate(
            bundle.network, bundle.params, pts, 1, bundle.latents.codes[0]
        ).T.reshape(3, 91, 91)
        out, name = ws / "out", "render_fam__B_implicit_91"
        images = {name: render.compose_image(grid, 91, bundle.aa_k, bundle.supervision)}
        for c in range(3):
            images[f"{name}_c{c}"] = render.opacity(grid[c], 91, bundle.aa_k, bundle.supervision)
        for stem, img in images.items():
            render.write_image(out / "want.pgm", img)
            assert (out / f"{stem}.pgm").read_bytes() == (out / "want.pgm").read_bytes(), stem
        want = render.extract_zero_level(render.zero_level_field(grid, bundle.supervision))
        got = json.loads((out / f"{name}_contours.json").read_text())
        assert got == [c.tolist() for c in want]

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
        img = render_mod.render_implicit(bundle, bundle.latents.codes[0], 0, 16)
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


def _nested_config(ws, ckpt):
    (ws / "nest.json").write_text("[" * 100_000)
    return ["--config", ws / "nest.json", "prepare"]


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
    ("train.hidden_layers=0", _in_file("train", "hidden_layers", 0, "train"), 1),
    ("train.epochs=-3", _with_set("train.epochs=-3"), 1),
    ("train.lr=-1", _with_set("train.lr=-1"), 1),
    ("train.samples_cap=0", _with_set("train.samples_cap=0"), 1),
    ("train.supervision=bogus", _with_set('train.supervision="bogus"'), 1),
    ("train.alpha=-1", _with_set("train.alpha=-1"), 1),
    ("train.epochs=1.5", _with_set("train.epochs=1.5"), 1),
    ("field.channels=true", _with_set("field.channels=true"), 1),
    ("train.gamma_start=0", _with_set("train.gamma_start=0"), 1),
    ("train --resume --mode n1 on 3 channels", _command(
        "train", "--resume", CKPT, "--mode", "n1"), 1),
    ("train --resume with other hidden_layers", _command(
        "--set", "train.hidden_layers=2", "train", "--resume", CKPT), 1),
    ("train --resume with other hidden_width", _command(
        "--set", "train.hidden_width=8", "train", "--resume", CKPT), 1),
    ("render --res 4", _command(
        "render", "--checkpoint", CKPT, "--family", "fam", "--label", "A", "--res", "4"), 1),
    ("interpolate --res 0", _command(
        "interpolate", "--checkpoint", CKPT, "--family-a", "fam", "--family-b", "fam",
        "--label", "A", "--steps", "2", "--res", "0"), 1),
    ("field.aa_k=true", _with_set("field.aa_k=true"), 1),
    ('train.lr="x"', _with_set('train.lr="x"'), 1),
    ("dataset.manifest=5", _with_set("dataset.manifest=5"), 1),
    ("paths.output_dir=5", _with_set("paths.output_dir=5"), 1),
    ("checkpoint without latents", _render_edited(
        "no_latents", lambda p: drop_checkpoint_entry(p, "latents")), 3),
    ("checkpoint with families 5", _render_edited(
        "families_5", lambda p: edit_checkpoint_manifest(p, lambda m: m.update(families=5))), 3),
    ("config nested 100,000 deep", _nested_config, 1),
    ("--set nested 100,000 deep", _with_set("train.epochs=" + "[" * 100_000), 1),
    ("checkpoint manifest nested 100,000 deep", _render_edited("nested", _nest_manifest), 3),
]


@pytest.mark.parametrize("case, argv, code", BAD_INPUTS, ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_is_one_line_error(trained, case, argv, code):
    ws, ckpt = trained
    res = run_cli(*argv(ws, ckpt))
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1, res.stderr


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


_PIN_SCRIPT = """
import os, sys
from glyphsdf import cli
argv = ["--config", sys.argv[1], "prepare"]
cli._load_config(cli._build_parser().parse_args(argv))
assert "numpy" not in sys.modules, "the config loaded numpy"
assert cli.main(argv) == 0
print(os.environ["OPENBLAS_NUM_THREADS"])
"""


def test_config_threads_pin_blas_before_numpy_loads(workspace):
    # the workspace config sets "threads": 1 and no flag repeats it
    import os
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    res = subprocess.run(
        [sys.executable, "-c", _PIN_SCRIPT, str(workspace / "config.json")],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "1"


def test_env_var_config(workspace, monkeypatch):
    import os
    env = dict(os.environ)
    env["GLYPHSDF_CONFIG"] = str(workspace / "config.json")
    res = subprocess.run(
        [sys.executable, "-m", "glyphsdf", "prepare"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    assert (workspace / "out" / "prepared").is_dir()
