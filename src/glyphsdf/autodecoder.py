"""Auto-decoder network: fixed MLP + per-family latent table.

The network maps [x, y, one-hot(label), z] to n signed-distance channels.
Default shape (the production configuration): 8 hidden layers of 384
LeakyReLU units with the input concatenated onto the output of hidden
layer 3, then a linear head.  Forward/backward are hand-written reverse
mode over float64 numpy so training is bit-reproducible and gradients are
exact; tests verify them against central finite differences.

Each hidden layer runs as one matmul into a preallocated buffer, an
in-place bias add and an in-place leaky ReLU; the activation feeding the
skip layer is written straight into the left block of one ``[a | X]``
buffer.

The elementwise passes run per block of ``BLOCK_ROWS`` rows: the bias
add and the leaky ReLU of the hidden layers, and in :func:`backward` the
slope mask and its product with the incoming gradient.  A block stays in
L2 cache from one pass to the next, where a whole 8192-row activation
would stream through L3 three times, and the scratch these passes need
shrinks to one block.

:func:`evaluate` (rendering, no gradients) bounds its memory instead.  It
takes the points in chunks of ``CHUNK_ROWS`` (8192) rows, a module
constant that tests patch to get short chunks; each chunk runs its hidden
layers in the row blocks of :func:`_row_parts`, which write their last
activation into one chunk-sized buffer, and then its head as one GEMM over
the whole chunk.  At 8x384 that holds about 37 MB of buffers where whole
chunks held about 93 MB.

The bits stay those of whole arrays, since OpenBLAS gives a row of a GEMM
the same bits at any row count, with two exceptions.  First, it sends a
GEMM with M*N*K at or below ``SMALL_GEMM`` to a small-matrix kernel with
other bits, so a split is made only where every hidden GEMM on the
smaller part stays above it (:func:`_sub_blocks`), and a head keeps all
its rows (a 3-channel head on 868 rows or fewer already takes that
kernel).  Second, split rows of ``dz @ W.T`` changed bits where that
product has 135 or 519 columns, layer 0's and the skip layer's input
gradients at alphabet 5: at 614 rows, a cut at row 256, 296, 304, 307 or
320 changed the last 7 columns of ``dX`` by up to 6.5e-19, in the rows
before the cut and in rows 604-609 (cuts at 300 and 312 kept them).  Those
two products therefore stay whole, as does ``d_out @ W_head.T``; a
384-column one held its bits at every cut from row 20 to 594 of 614.
Both rules are facts of OpenBLAS's AVX-512 kernels (0.3.31, with its 10^6
small-matrix permit), so the tests compare every split against
whole-array references at production size.

The rows are independent, so the network spreads its work over
``ROW_THREADS`` row threads, fixed when this module loads: the CPUs the
process may run on, at most 2, when ``OPENBLAS_NUM_THREADS`` is ``"1"``
(``--threads 1`` sets it before numpy loads), else 1, since BLAS then
spreads each GEMM over its own threads.  :func:`_in_threads` runs one
call's tasks, the first on the calling thread and the others on one pool
of ``ROW_THREADS - 1`` workers per process, opened by the first call that
has more than one task and kept, so a training step starts no thread; a
forked child drops the pool it inherits and opens its own.  A thread
writes its own rows, or its own arrays, of buffers the one-thread path
allocates too, with scratch that :func:`_spread` makes for it, and no
result depends on the thread count.  One rule, :func:`_row_parts`, cuts
the rows of every pass: T blocks per ``SUB_ROWS`` rows, rounded up, of one
size but the last, which takes the remainder; thread t runs blocks t,
t + T, ... (:func:`_spread`).
:func:`forward` and :func:`evaluate` run their hidden layers in these
blocks and :func:`backward` each layer's slope pass, with the
``width``-column input gradients when no weight gradient is wanted (latent
fitting); then one :func:`_in_threads` call runs the weight gradient
``a_in.T @ dz`` (with the bias gradient) beside the whole input gradient,
wherever either is needed.  Every sum keeps its order: ``gw``, ``gb``, the
head's gradients and the latent sum ``total_loss`` takes of ``dX`` are
whole-array on one thread.  With two hidden layers or more, a width under
32, 45 and 55 runs evaluate's full chunks whole at one, two and three
threads; a short last chunk's smaller blocks fall back at larger widths.
:func:`adam_step` runs on the row threads too, in blocks of
``ADAM_BLOCK`` elements of each tensor's flat view.

The cache of :func:`forward` is the tuple ``(X, acts, skip_in)``:

* ``X``: the input rows;
* ``acts``: one post-activation array per hidden layer.  Since the slope
  is in (0, 1], an activation is ``>= 0`` exactly where its pre-activation
  is, so :func:`backward` takes the slope mask from it and rebuilds
  nothing.  (The one exception is a negative pre-activation so small that
  ``slope * z`` rounds to -0.0, below about 2.5e-322 at slope 0.01.);
* ``skip_in``: the ``[a | X]`` input of the skip layer (its left block is
  ``acts[skip_layer - 1]``), or None without a skip.

A cache serves one :func:`backward`, which consumes it.  From the top
layer down, backward writes each layer's gradient ``dz`` over that layer's
activation, whose last use is its own slope mask, and drops the activation
from ``acts`` once the layer's weight gradient and the gradient of the
layer below are computed.  The memory of the upper layers then serves the
skip layer's input gradient, the weight gradients and ADAM's scratch: one
training step at 8x384 and 1,895 rows peaks at about 56 MB of buffers,
where keeping the whole cache to the end and a separate ``dz`` took about
82 MB.  A second backward on a spent cache raises the stale-cache error.

Every output, gradient and ADAM update is byte-identical to the
straightforward form with a fresh array per step (whole-array temporaries,
``np.where`` activations rebuilt from cached pre-activations, a
concatenated skip input): the BLAS calls see the same operands and every
elementwise operation is the same IEEE operation in the same order.
``tests/helpers.py`` keeps that form as the reference the tests compare
against.
"""
from __future__ import annotations

import json
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import DatasetSettings, FieldSettings, TrainSettings, require_types
from .errors import CheckpointError, ConfigError, NumericalError

LATENT_DIM = 128

# rows per block of the elementwise passes: 128 rows of a 384-wide float64
# activation are 384 KB, which stays in a core's L2 between passes
BLOCK_ROWS = 128

# elements per block of adam_step's update: on a 2-vCPU AVX-512 Xeon, one
# step of the 8x384 network took 10 ms in 64K-element blocks at two threads
# and 16-18 ms in whole-tensor passes; 8K-element blocks took 25 ms, 128K 12
ADAM_BLOCK = 1 << 16

# rows per chunk of evaluate, and rows a pass cuts into one block per row thread
CHUNK_ROWS = 8192
SUB_ROWS = 1024
# the row threads were measured at 2 CPUs, where two threads of evaluate's
# 512-row sub-blocks ran 1.6-1.9x the rows/s of one and a training step's
# forward and backward took about 0.6x the time of one thread; more are not
# taken until they are measured
_MAX_ROW_THREADS = 2


def _row_threads():
    """Threads of :func:`evaluate`, :func:`forward`, :func:`backward` and
    :func:`adam_step`: when BLAS runs one thread per call, the CPUs the
    process may run on, at most ``_MAX_ROW_THREADS``, else 1."""
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_ROW_THREADS)


# fixed at import, as BLAS reads its pin when numpy loads
ROW_THREADS = _row_threads()
# OpenBLAS runs a GEMM with M*N*K at or below this through its small-matrix
# kernel, whose output bits differ from the blocked kernel's
SMALL_GEMM = 10**6


# the row threads' pool: None, or (workers, ThreadPoolExecutor) with
# ROW_THREADS - 1 workers, kept from the first call that needs it
_pool = None
_pool_lock = threading.Lock()


def _row_pool(needed):
    """The pool of the row threads beside the calling one, of ROW_THREADS - 1
    workers; a pool of another size is shut down first.  Opened only if
    ``needed``, else None when none is kept."""
    global _pool
    workers = ROW_THREADS - 1
    with _pool_lock:
        if _pool is not None and _pool[0] != workers:
            _pool[1].shutdown()
            _pool = None
        if _pool is None and needed:
            _pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix="glyphsdf-row"))
        return None if _pool is None else _pool[1]


def _drop_pool():
    # a forked child has none of its parent's threads: the pool it inherits
    # would queue every task forever, so the child opens its own
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork outside POSIX
    os.register_at_fork(after_in_child=_drop_pool)


def _in_threads(tasks):
    """The results of calling each of ``tasks``, at most ROW_THREADS at once.

    The first task runs on the calling thread and the others on the row
    threads' pool, one per process: the first call with more than one task
    opens it and later calls reuse it; a call after ROW_THREADS changed
    shuts it down first.  One task, or ROW_THREADS 1, starts no thread.  A
    task must not call this function itself: it would wait for a worker
    that waits for it.  An exception from any task reaches the caller once
    every task has ended.
    """
    threads = min(ROW_THREADS, len(tasks))
    pool = _row_pool(threads > 1)
    if threads <= 1:
        return [task() for task in tasks]
    futures = [pool.submit(task) for task in tasks[1:]]
    try:
        first = tasks[0]()
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def _spread(blocks, run, workspace):
    """Call ``run(block, space)`` for every block on up to ROW_THREADS
    threads: thread t takes the blocks t, t + threads, ... in turn, and
    thread 0 is the calling thread.  ``space`` is the thread's own
    ``workspace()``, made on the calling thread before any block runs, like
    every buffer of a pass, so that ``run`` allocates nothing: memory a
    thread allocates stays in its malloc arena, which raised the
    benchmark's peak RSS by about 15 MB."""
    threads = min(ROW_THREADS, len(blocks))
    spaces = [workspace() for _ in range(threads)]
    _in_threads([
        lambda t=t: [run(b, spaces[t]) for b in blocks[t::threads]] for t in range(threads)
    ])


@dataclass
class NetworkConfig:
    alphabet_size: int
    hidden_layers: int = TrainSettings.hidden_layers
    width: int = TrainSettings.hidden_width
    skip_layer: int = 3          # input concat after this hidden layer; 0 disables
    out_channels: int = FieldSettings.channels
    leaky_slope: float = 0.01
    latent_dim: int = LATENT_DIM

    def __post_init__(self):
        # the in-place leaky ReLU and the slope mask need it; first, so NaN fails it
        if not 0.0 < self.leaky_slope <= 1.0:
            raise ValueError(f"leaky_slope must be in (0, 1], got {self.leaky_slope}")
        require_types(self, "network")
        if self.hidden_layers < 1 or self.width < 1:
            raise ValueError("network needs at least one hidden unit/layer")
        if not 0 <= self.skip_layer < self.hidden_layers:
            raise ValueError(
                f"skip_layer must be in [0, hidden_layers), got {self.skip_layer}"
            )

    @property
    def in_dim(self):
        return 2 + self.alphabet_size + self.latent_dim

    def layer_dims(self):
        """(fan_in, fan_out) per layer including the linear head."""
        dims = []
        for l in range(self.hidden_layers):
            fan_in = self.in_dim if l == 0 else self.width
            if self.skip_layer and l == self.skip_layer:
                fan_in = self.width + self.in_dim
            dims.append((fan_in, self.width))
        dims.append((self.width, self.out_channels))
        return dims


@dataclass
class Parameters:
    weights: list
    biases: list

    def named(self):
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            yield f"w{l}", w
            yield f"b{l}", b

    def copy(self):
        return Parameters([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_parameters(config, rng):
    """Kaiming fan-in init (LeakyReLU gain), zero biases, float64."""
    gain = np.sqrt(2.0 / (1.0 + config.leaky_slope**2))
    weights, biases = [], []
    for fan_in, fan_out in config.layer_dims():
        std = gain / np.sqrt(fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Parameters(weights, biases)


@dataclass
class LatentTable:
    codes: np.ndarray            # (families, latent_dim) float64
    family_ids: list

    def mean_code(self):
        return self.codes.mean(axis=0)


def init_latents(family_ids, rng, latent_dim=LATENT_DIM, std=0.01):
    codes = rng.normal(0.0, std, size=(len(family_ids), latent_dim))
    return LatentTable(codes=codes, family_ids=list(family_ids))


def _row_blocks(m):
    """Slices covering rows [0, m) in blocks of at most BLOCK_ROWS."""
    for s in range(0, m, BLOCK_ROWS):
        yield slice(s, min(s + BLOCK_ROWS, m))


def assemble_inputs(points, label, z, alphabet_size):
    """Rows [x, y, one-hot(label), z] for a batch sharing one conditioning."""
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    X = np.zeros((len(P), 2 + alphabet_size + len(z)))
    X[:, :2] = P
    X[:, 2 + label] = 1.0
    X[:, 2 + alphabet_size :] = z
    return X


def _hidden_layers(config, params, X, skip_in, buffer, scratch):
    """Run the hidden layers on the rows X; allocates nothing.

    Layer l writes into ``buffer(l)``, an (m, width) array, except the layer
    feeding the skip, which writes into the left block of ``skip_in``, the
    (m, width + in_dim) input of the skip layer.  The last output is the
    head's input.  ``scratch`` has width columns and min(m, BLOCK_ROWS) rows.
    """
    if X.shape[1] != config.in_dim:
        raise ValueError(f"input width {X.shape[1]} != expected {config.in_dim}")
    slope = config.leaky_slope
    width, skip = config.width, config.skip_layer
    m = len(X)
    if skip:
        skip_in[:, width:] = X
    a = X
    for l in range(config.hidden_layers):
        h = skip_in[:, :width] if skip and l == skip - 1 else buffer(l)
        np.matmul(a, params.weights[l], out=h)
        for rows in _row_blocks(m):
            hb = h[rows]
            sb = scratch[: len(hb)]
            hb += params.biases[l]
            # leaky ReLU in place: max(h, slope*h) is where(h >= 0, h, slope*h)
            # bit for bit when 0 < slope <= 1
            np.multiply(hb, slope, out=sb)
            np.maximum(hb, sb, out=hb)
        a = skip_in if skip and l == skip - 1 else h


def _sub_blocks(config, m, rows):
    """Row slices of m rows for the hidden layers or their gradients.

    Blocks of ``rows`` rows, the last taking the remainder, when every
    hidden layer's GEMM on ``rows`` rows stays above SMALL_GEMM; otherwise
    the whole m rows.
    """
    if any(rows * k * n <= SMALL_GEMM for k, n in config.layer_dims()[:-1]):
        return [slice(0, m)]
    starts = [i * rows for i in range(max(1, m // rows))]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [m])]


def _row_parts(config, m):
    """Row slices of m rows: ROW_THREADS blocks per SUB_ROWS rows, rounded
    up, by :func:`_sub_blocks`."""
    blocks = ROW_THREADS * max(1, math.ceil(m / SUB_ROWS))
    return _sub_blocks(config, m, max(1, m // blocks))


def forward(config, params, X):
    """Evaluate the network on rows of X; returns (out, cache).

    The hidden layers run in row blocks on the row threads, the head whole.
    The cache ``(X, acts, skip_in)`` holds what :func:`backward` needs (see
    the module docstring).
    """
    m, width, skip = len(X), config.width, config.skip_layer
    skip_in = np.empty((m, width + config.in_dim)) if skip else None
    acts = [skip_in[:, :width] if skip and l == skip - 1 else np.empty((m, width))
            for l in range(config.hidden_layers)]

    def run(p, scratch):
        part_skip_in = None if skip_in is None else skip_in[p]
        _hidden_layers(config, params, X[p], part_skip_in, lambda l: acts[l][p], scratch)

    _spread(_row_parts(config, m), run, lambda: np.empty((min(m, BLOCK_ROWS), width)))
    out = acts[-1] @ params.weights[-1] + params.biases[-1]
    return out, (X, acts, skip_in)


def _slope_times(act, da, dz, slope, scratch):
    """dz = da * where(pre-activation >= 0, 1, slope), per block of rows.

    The activations ``act`` have the pre-activations' signs, and
    max(0 or 1, slope) is that factor exactly; unlike a masked select it
    does not branch per entry.  ``scratch`` is a (factor, mask) pair of
    one block.
    """
    factor, nonneg = scratch
    for rows in _row_blocks(len(act)):
        n = rows.stop - rows.start
        np.greater_equal(act[rows], 0.0, out=nonneg[:n])
        np.maximum(nonneg[:n], slope, out=factor[:n])
        np.multiply(da[rows], factor[:n], out=dz[rows])


def backward(config, params, cache, d_out, need_param_grads=True):
    """Exact reverse-mode gradients for a cached forward pass.

    Returns (grads, dX) where ``grads`` mirrors :class:`Parameters` and
    ``dX`` is the gradient w.r.t. the assembled input rows (spatial
    coordinates in the first two columns, latent in the last block).
    ``need_param_grads=False`` skips the weight-gradient matmuls (useful
    when only the input/latent gradient is wanted) and returns None for
    the first element.

    Each layer runs in row blocks on the row threads, its weight gradient
    beside its whole input gradient (see the module docstring).

    The cache serves one backward and is consumed by it: each layer's
    gradient is written over its activation, which then leaves ``acts``.
    A second call on the same cache raises the stale-cache ValueError.
    """
    if cache is None:
        raise ValueError("backward needs the cache from a forward call")
    X, acts, skip_in = cache
    if len(acts) != config.hidden_layers or len(X) != len(d_out):
        raise ValueError("stale cache: shapes do not match this backward call")
    slope = config.leaky_slope
    width, skip = config.width, config.skip_layer
    gw = [None] * (config.hidden_layers + 1)
    gb = [None] * (config.hidden_layers + 1)

    if need_param_grads:
        gw[-1] = acts[-1].T @ d_out
        gb[-1] = d_out.sum(axis=0)
    da = d_out @ params.weights[-1].T
    da_buf = da
    m = len(X)
    parts = _row_parts(config, m)
    block = (min(m, BLOCK_ROWS), width)
    for l in range(config.hidden_layers - 1, -1, -1):
        # dz is written over the activation, whose last use is its slope
        # mask.  Layer skip - 1's activation is the left block of skip_in,
        # a strided view, and a strided dz can give X.T @ dz other bits (a
        # one-wide dz does), so that layer's dz goes to da_buf instead,
        # which is free there: da is a view of the skip layer's d_in
        dz = da_buf if skip and l == skip - 1 else acts[l]
        wt = params.weights[l].T
        # the input gradient of every layer but 0 and the skip layer has
        # width columns, and its rows may be split
        row_local = l != 0 and not (skip and l == skip)
        # with no weight gradient to pair it with, it runs in the slope pass
        split_d_in = row_local and not need_param_grads
        if l == skip:  # the first layer down that adds to dX (layer 0 without a skip)
            dX = np.zeros_like(X)
        # the input gradient goes to da's buffer, except where it is wider
        # (layer 0 and the skip layer) or dz took that buffer (layer skip -
        # 1); a new one is allocated here, as _spread asks
        d_in = da_buf if row_local and dz is not da_buf else np.empty((m, wt.shape[1]))

        def run(p, scratch):
            _slope_times(acts[l][p], da[p], dz[p], slope, scratch)
            if split_d_in:
                np.matmul(dz[p], wt, out=d_in[p])

        # a (factor, mask) block per row thread for the slope pass
        _spread(parts, run, lambda: (np.empty(block), np.empty(block, dtype=bool)))
        a_in = X if l == 0 else skip_in if skip and l == skip else acts[l - 1]
        # the weight gradient first, so that the calling thread allocates it
        tasks = [lambda: (a_in.T @ dz, dz.sum(axis=0))] if need_param_grads else []
        if not split_d_in:
            tasks.append(lambda: np.matmul(dz, wt, out=d_in))
        done = _in_threads(tasks)
        if need_param_grads:
            gw[l], gb[l] = done[0]
        if l == 0:
            dX += d_in
        elif skip and l == skip:
            da = d_in[:, :width]
            dX += d_in[:, width:]
        else:
            da = da_buf = d_in
        # the layer's gradient is spent: release its memory for the layers
        # below (the skip layer's d_in goes with da, one layer down)
        del acts[l], dz, d_in
    grads = Parameters(gw, gb) if need_param_grads else None
    return grads, dX


def evaluate(config, params, points, label, z):
    """Forward without caching, chunked over points; returns (N, n).

    The head runs once per chunk, the hidden layers once per sub-block of
    the chunk, spread over the row threads (see the module docstring).
    """
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, width = len(P), config.width
    out = np.empty((n, config.out_channels))
    if n == 0:
        return out
    last = np.empty((min(n, CHUNK_ROWS), width))
    for s in range(0, n, CHUNK_ROWS):
        chunk = slice(s, min(s + CHUNK_ROWS, n))
        m = chunk.stop - chunk.start
        blocks = _row_parts(config, m)
        rows = max(b.stop - b.start for b in blocks)

        def workspace():
            # the pair of hidden buffers, the skip input, the input rows (one
            # label and latent on every row) and the scratch of _hidden_layers
            return ((np.empty((rows, width)), np.empty((rows, width))),
                    np.empty((rows, width + config.in_dim)) if config.skip_layer else None,
                    assemble_inputs(np.zeros((rows, 2)), label, z, config.alphabet_size),
                    np.empty((min(rows, BLOCK_ROWS), width)))

        def run(b, space):
            # each sub-block writes its last activations into its rows of last
            pair, skip_in, X, scratch = space
            k = b.stop - b.start
            X[:k, :2] = P[chunk][b]
            _hidden_layers(
                config, params, X[:k], None if skip_in is None else skip_in[:k],
                lambda l: last[b] if l == config.hidden_layers - 1 else pair[l % 2][:k],
                scratch,
            )

        _spread(blocks, run, workspace)
        np.matmul(last[:m], params.weights[-1], out=out[chunk])
        out[chunk] += params.biases[-1]
    return out


# ---------------------------------------------------------------------------
# ADAM


@dataclass
class AdamState:
    lr: float = TrainSettings.lr
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def ensure(self, name, array):
        if name not in self.m:
            self.m[name] = np.zeros_like(array)
            self.v[name] = np.zeros_like(array)


def adam_step(state, arrays, grads):
    """One ADAM update, in place, over named parameter arrays.

    ``arrays`` and ``grads`` are dicts name -> ndarray with matching
    shapes.  A non-finite gradient aborts with the offending tensor named,
    and a bad one of either kind before any parameter, moment or the step
    count changes; so does a parameter or moment array whose flat view
    would be a copy, since the update writes through that view.

    The update runs on the row threads in blocks of ``ADAM_BLOCK`` elements
    of each tensor's flat view, each thread with its own scratch: every
    element sees the same IEEE operations in the same order as in one
    whole-tensor pass, at any thread count.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for tensor {name!r}")
        if arrays[name].shape != g.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        for a in (arrays[name], state.m.get(name), state.v.get(name)):
            if a is not None and a.size and not np.may_share_memory(a.reshape(-1), a):
                raise ValueError(f"tensor {name!r} cannot be updated in place: "
                                 "its flat view would be a copy")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    blocks = []
    for name, g in grads.items():
        p = arrays[name]
        state.ensure(name, p)
        flat = [a.reshape(-1) for a in (p, state.m[name], state.v[name], g)]
        blocks += [(flat, slice(s, s + ADAM_BLOCK)) for s in range(0, g.size, ADAM_BLOCK)]
    size = min(ADAM_BLOCK, max((g.size for g in grads.values()), default=0))

    def run(block, scratch):
        flat, elements = block
        p, m, v, g = (a[elements] for a in flat)
        s, u = (a[: g.size] for a in scratch)
        # in place, the same operations in the same order as
        #   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*(g*g)
        #   p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=s)
        v *= state.beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - state.beta2
        v += s
        np.divide(m, bc1, out=s)
        s *= state.lr
        np.divide(v, bc2, out=u)
        np.sqrt(u, out=u)
        u += state.eps
        s /= u
        p -= s

    _spread(blocks, run, lambda: (np.empty(size), np.empty(size)))


# ---------------------------------------------------------------------------
# checkpoints: JSON manifest + raw little-endian float64 payload

CKPT_MAGIC = b"GSDFCKP1"
CKPT_VERSION = 1


@dataclass
class ModelBundle:
    """Everything needed to render or keep training."""

    network: NetworkConfig
    params: Parameters
    latents: LatentTable
    alphabet: str
    aa_k: float = FieldSettings.aa_k
    train_width: int = FieldSettings.train_width
    supervision: str = TrainSettings.supervision
    train_config: dict = field(default_factory=dict)
    epoch: int = 0
    adam: AdamState | None = None


def _manifest_arrays(bundle):
    arrays = list(bundle.params.named())
    arrays.append(("latents", bundle.latents.codes))
    if bundle.adam is not None:
        for name in sorted(bundle.adam.m):
            arrays.append((f"adam.m.{name}", bundle.adam.m[name]))
            arrays.append((f"adam.v.{name}", bundle.adam.v[name]))
    return arrays


def save_checkpoint(path, bundle):
    arrays = _manifest_arrays(bundle)
    manifest = {
        "format": "glyphsdf-checkpoint",
        "version": CKPT_VERSION,
        "alphabet": bundle.alphabet,
        "families": bundle.latents.family_ids,
        "network": asdict(bundle.network),
        "channels": bundle.network.out_channels,
        "aa_k": bundle.aa_k,
        "train_width": bundle.train_width,
        "supervision": bundle.supervision,
        "train_config": bundle.train_config,
        "epoch": bundle.epoch,
        "adam": None
        if bundle.adam is None
        else {
            "lr": bundle.adam.lr,
            "beta1": bundle.adam.beta1,
            "beta2": bundle.adam.beta2,
            "eps": bundle.adam.eps,
            "step_count": bundle.adam.step_count,
        },
        "arrays": [],
    }
    offset = 0
    for name, arr in arrays:
        manifest["arrays"].append(
            {"name": name, "shape": list(arr.shape), "dtype": "<f8", "offset": offset}
        )
        offset += arr.size * 8
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path, expect_alphabet=None):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < len(CKPT_MAGIC) + 4 or raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckpointError(f"not a checkpoint file: {path}")
    (blob_len,) = struct.unpack_from("<I", raw, len(CKPT_MAGIC))
    start = len(CKPT_MAGIC) + 4
    try:
        manifest = json.loads(raw[start : start + blob_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deeply to decode
        raise CheckpointError(f"corrupt checkpoint manifest in {path}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"corrupt checkpoint manifest in {path}")
    if manifest.get("version") != CKPT_VERSION:
        raise CheckpointError(
            f"checkpoint version {manifest.get('version')} unsupported (want {CKPT_VERSION})"
        )
    try:
        # a view, not a copy: each array is copied out of it once
        return _bundle_from(manifest, memoryview(raw)[start + blob_len :], path, expect_alphabet)
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path} has no {exc.args[0]!r} entry") from None


def _is_array_spec(spec):
    """An array table record: a name, and a shape and byte offset of ints >= 0."""
    if not (isinstance(spec, dict) and isinstance(spec.get("name"), str)
            and isinstance(spec.get("shape"), list)):
        return False
    return all(type(n) is int and n >= 0 for n in [spec.get("offset"), *spec["shape"]])


def _check(ok, entry, value, path):
    if not ok:
        raise CheckpointError(f"bad {entry} {value!r} in {path}")


def _bundle_from(manifest, payload, path, expect_alphabet):
    """The bundle a decoded manifest and its array payload describe; a
    missing manifest or array entry raises KeyError, a bad value
    CheckpointError.  Entries this loader does not know, such as the
    ``frozen_latents`` flag older checkpoints carry, are ignored."""
    alphabet = manifest["alphabet"]
    channels, aa_k, train_width = manifest["channels"], manifest["aa_k"], manifest["train_width"]
    supervision = manifest.get("supervision", TrainSettings.supervision)
    try:
        # the values the config schema accepts for these settings
        DatasetSettings(alphabet=alphabet)
        FieldSettings(channels=channels, aa_k=aa_k, train_width=train_width)
        TrainSettings(supervision=supervision)
    except ConfigError as exc:
        raise CheckpointError(f"bad settings in {path}: {exc}") from None
    if expect_alphabet is not None and alphabet != expect_alphabet:
        raise CheckpointError(
            "checkpoint alphabet does not match the configured alphabet"
        )
    try:
        config = NetworkConfig(**manifest["network"])
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise CheckpointError(f"bad network description in {path}: {exc}") from exc
    if (channels, len(alphabet)) != (config.out_channels, config.alphabet_size):
        raise CheckpointError(f"channels or alphabet in {path} do not match its network")
    families = manifest["families"]
    _check(
        isinstance(families, list) and all(isinstance(f, str) for f in families),
        "families", families, path,
    )
    epoch = manifest.get("epoch", 0)
    _check(type(epoch) is int and epoch >= 0, "epoch", epoch, path)
    train_config = manifest.get("train_config", {})
    _check(isinstance(train_config, dict), "train_config", train_config, path)
    adam_meta = manifest.get("adam")
    _check(
        adam_meta is None or (
            isinstance(adam_meta, dict)
            and all(type(v) in (int, float) for v in adam_meta.values())
            and type(adam_meta.get("step_count")) is int and adam_meta["step_count"] >= 0
        ),
        "adam", adam_meta, path,
    )
    if not isinstance(manifest["arrays"], list) or not all(map(_is_array_spec, manifest["arrays"])):
        raise CheckpointError(f"bad array table in {path}")
    arrays = {}
    for spec in manifest["arrays"]:
        size = math.prod(spec["shape"])
        end = spec["offset"] + size * 8
        if end > len(payload):
            raise CheckpointError(f"truncated checkpoint payload in {path}")
        try:
            arrays[spec["name"]] = (
                np.frombuffer(payload, dtype="<f8", count=size, offset=spec["offset"])
                .reshape(spec["shape"])
                .copy()
            )
        except ValueError as exc:  # an empty array with a huge dimension
            raise CheckpointError(f"bad array {spec['name']!r} in {path}: {exc}") from None
    # two arrays per layer: checked before a huge hidden_layers is expanded
    if 2 * (config.hidden_layers + 1) > len(arrays):
        raise CheckpointError(f"checkpoint {path} has fewer arrays than its network has layers")
    dims = config.layer_dims()
    weights, biases = [], []
    for l, (fan_in, fan_out) in enumerate(dims):
        w = arrays.get(f"w{l}")
        b = arrays.get(f"b{l}")
        if w is None or b is None:
            raise CheckpointError(f"checkpoint missing layer {l} arrays")
        if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
            raise CheckpointError(
                f"layer {l} shape {w.shape} does not match config {(fan_in, fan_out)}"
            )
        weights.append(w)
        biases.append(b)
    codes = arrays["latents"]
    if codes.shape != (len(families), config.latent_dim):
        raise CheckpointError("latent table shape does not match config")
    adam = None
    if adam_meta is not None:
        adam = AdamState(
            lr=adam_meta["lr"], beta1=adam_meta["beta1"], beta2=adam_meta["beta2"],
            eps=adam_meta["eps"], step_count=adam_meta["step_count"],
        )
        for name, arr in arrays.items():
            if name.startswith("adam.m."):
                adam.m[name[len("adam.m."):]] = arr
            elif name.startswith("adam.v."):
                adam.v[name[len("adam.v."):]] = arr
        # adam_step updates each moment pair in place with its tensor's gradient
        shapes = {name: w.shape for name, w in Parameters(weights, biases).named()}
        shapes.update((f"z{i}", (config.latent_dim,)) for i in range(len(families)))
        if adam.m.keys() != adam.v.keys() or any(
            shapes.get(name) != m.shape or adam.v[name].shape != m.shape
            for name, m in adam.m.items()
        ):
            raise CheckpointError(f"ADAM moments in {path} do not match the parameters")
    return ModelBundle(
        network=config,
        params=Parameters(weights, biases),
        latents=LatentTable(codes=codes, family_ids=families),
        alphabet=alphabet,
        aa_k=aa_k,
        train_width=train_width,
        supervision=supervision,
        train_config=train_config,
        epoch=epoch,
        adam=adam,
    )
