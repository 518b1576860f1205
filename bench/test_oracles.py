"""Tests of bench/oracles.py against closed forms.

Run with ``python3 -m pytest bench/test_oracles.py`` or ``python3
bench/test_oracles.py``; every benchmark run also calls ``run_all()``
first and counts a failure as a failed operation.
"""
from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

import numpy as np

import inputs
import oracles

HALF = 0.85  # a unit-square outline normalizes to the box [-0.85, 0.85]^2
SCRATCH = Path(__file__).resolve().parent.parent / ".bench_work" / "oracle-tests"


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def box_sdf(x, y, half):
    """Closed-form signed distance of an origin-centered square, + inside."""
    qx, qy = np.abs(x) - half, np.abs(y) - half
    outside = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
    return -(outside + np.minimum(np.maximum(qx, qy), 0.0))


def centers(width):
    c = oracles.pixel_coords(width)
    return np.meshgrid(c, c)


def test_square_matches_box_sdf():
    square = [inputs._polygon((0, 0), (1, 0), (1, 1), (0, 1))]
    X, Y = centers(64)
    err = np.max(np.abs(oracles.signed_distance(square, 64) - box_sdf(X, Y, HALF)))
    check(err < 1e-12, f"square SDF off the box SDF by {err}")


def test_band_keeps_exact_values_near_the_outline():
    square = [inputs._polygon((0, 0), (1, 0), (1, 1), (0, 1))]
    X, Y = centers(96)
    want = box_sdf(X, Y, HALF)
    got = oracles.signed_distance(square, 96, band=0.1)
    near = np.abs(want) < 0.1
    check(np.max(np.abs(got[near] - want[near])) < 1e-12, "banded SDF wrong near the outline")
    check(np.all(np.sign(got) == np.sign(want)), "banded SDF has the wrong sign")
    check(np.all(np.abs(got[~near]) >= 0.1), "banded SDF reads inside the band far away")


def test_ring_is_outer_box_minus_inner_box():
    a = 0.3
    X, Y = centers(80)
    want = np.minimum(box_sdf(X, Y, HALF), -box_sdf(X, Y, (0.5 - a) * 2 * HALF))
    err = np.max(np.abs(oracles.signed_distance(inputs.ring(a), 80) - want))
    check(err < 1e-12, f"ring SDF off the closed form by {err}")


def test_cubic_circle_matches_circle_sdf():
    k = 0.5522847498 * 0.5  # four cubics approximate a circle of radius 0.5
    c = lambda *p: tuple(0.5 + v for v in p)
    circle = [[
        [c(0.5, 0), c(0.5, k), c(k, 0.5), c(0, 0.5)],
        [c(0, 0.5), c(-k, 0.5), c(-0.5, k), c(-0.5, 0)],
        [c(-0.5, 0), c(-0.5, -k), c(-k, -0.5), c(0, -0.5)],
        [c(0, -0.5), c(k, -0.5), c(0.5, -k), c(0.5, 0)],
    ]]
    X, Y = centers(64)
    want = HALF - np.hypot(X, Y)
    err = np.max(np.abs(oracles.signed_distance(circle, 64, per_cubic=256) - want))
    check(err < 3e-4 * HALF, f"cubic circle off the circle SDF by {err}")


def test_corners_of_polygons_and_d():
    check(len(oracles.corner_points(inputs.t_shape(0.3))) == 8, "T has 8 corners")
    check(len(oracles.corner_points(inputs.d_shape(0.5, 0.1, 0.5, 0.9))) == 2, "D has 2 corners")


def test_bilinear_reproduces_an_affine_field():
    n, width = 16, 100
    X, Y = centers(n)
    grid = np.stack([0.3 + 2.0 * X - 0.7 * Y, -1.0 + 0.5 * X + 0.25 * Y])
    up = oracles.bilinear(grid, width)
    U, V = centers(width)
    inner = (np.abs(U) <= 1 - 1 / n) & (np.abs(V) <= 1 - 1 / n)
    for ch, want in zip(up, (0.3 + 2.0 * U - 0.7 * V, -1.0 + 0.5 * U + 0.25 * V)):
        check(np.max(np.abs(ch[inner] - want[inner])) < 1e-12, "bilinear not exact on affine data")
    check(np.array_equal(oracles.bilinear(grid, n), grid), "bilinear at the source width moved data")


def write_checkpoint(path, arrays, manifest):
    specs, offset = [], 0
    for name, arr in arrays.items():
        specs.append({"name": name, "shape": list(arr.shape), "dtype": "<f8", "offset": offset})
        offset += arr.size * 8
    blob = json.dumps({**manifest, "arrays": specs}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"GSDFCKP1" + struct.pack("<I", len(blob)) + blob)
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def test_network_oracle_on_an_affine_network():
    """Two hidden units carry x + s and y + s (all positive, so LeakyReLU is
    the identity), the skip layer passes them on, and the head mixes them:
    the outputs are affine in (x, y) and the median channel is known."""
    alphabet, latent = "AB", 4
    in_dim = 2 + len(alphabet) + latent
    shift = 10.0
    w0 = np.zeros((in_dim, 2))
    w0[0, 0] = w0[1, 1] = 1.0
    w1 = np.zeros((2 + in_dim, 2))
    w1[0, 0] = w1[1, 1] = 1.0
    head = np.array([[1.0, 1.0, 1.0], [0.0, 0.5, -0.5]])
    bias = np.array([-shift - 0.2, -1.5 * shift, -0.5 * shift + 0.3])
    arrays = {"w0": w0, "b0": np.full(2, shift), "w1": w1, "b1": np.zeros(2),
              "w2": head, "b2": bias, "latents": np.zeros((1, latent))}
    manifest = {"alphabet": alphabet, "families": ["f"], "aa_k": 4.0, "train_width": 16,
                "network": {"hidden_layers": 2, "skip_layer": 1, "leaky_slope": 0.01}}
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / "affine.ckpt"
    write_checkpoint(path, arrays, manifest)
    net = oracles.NetworkOracle(path)
    pts = np.random.default_rng(0).uniform(-1, 1, (200, 2))
    x, y = pts[:, 0], pts[:, 1]
    want = np.stack([x - 0.2, x + 0.5 * y, x - 0.5 * y + 0.3], axis=1)
    got = net.channels(pts, "B", net.latent("f"))
    check(np.max(np.abs(got - want)) < 1e-12, "network oracle not affine")
    med = np.sort(want, axis=1)[:, 1]
    check(np.max(np.abs(net.median(pts, "A", np.zeros(latent)) - med)) < 1e-12, "median wrong")
    op = net.opacity(pts, "A", np.zeros(latent), 64)
    t = np.clip(med / (4.0 / 64), -1, 1)
    check(np.max(np.abs(op - (0.5 + 0.75 * t - 0.25 * t**3))) < 1e-12, "opacity wrong")


def test_kernel_and_metric_closed_forms():
    g = 0.1
    check(oracles.kernel(np.array([-g, 0.0, g, 5.0]), g).tolist() == [0.0, 0.5, 1.0, 1.0],
          "kernel band edges")
    a = np.array([[1.0, 0.0], [1.0, 0.5]])
    check(abs(oracles.soft_iou(a, a) - 2.25 / 3.0) < 1e-15, "soft IoU")
    X, Y = centers(32)
    check(oracles.laplacian(3 * X - Y + 2) < 1e-9, "Laplacian of an affine field")
    check(abs(oracles.laplacian(X * X) - 2.0) < 1e-9, "Laplacian of x^2")
    check(oracles.corner_window_mask([(0.0, 0.0)], 128).sum() == 49, "7x7 window at 128")


def run_all():
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()


if __name__ == "__main__":
    run_all()
    print("oracle tests passed")
    sys.exit(0)
