"""Small dense MLP classifiers with exact parameter and input gradients.

Arrays are 64-bit floats throughout; model parameters and their gradients
are read-only flat vectors with named segment views (``ParamVector``), so
states can be shared freely between threads and attacks.
One layer loop (``_forward``) computes every forward pass; ``DiffModel``
records each layer's input, and ``backward`` carries a gradient with respect
to the logits back to the parameters or the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import as_f64, finite_diff_grad
from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("relu", "tanh")

# numpy refuses, before allocating, an array of more bytes than this
MAX_ARRAY_BYTES = np.iinfo(np.intp).max


class ParamVector:
    """Ordered, named parameter arrays (weights/biases per layer), stored as
    one read-only float64 vector in layout order; each named segment is a
    view of it, and ``flatten`` returns it with no copy.

    Two vectors with the same layout support elementwise ``+``/``-`` and
    scalar ``*``, each one pass over the vector into one fresh array;
    ``flatten``/``unflatten`` round-trip exactly. The constructor and
    ``unflatten`` copy their arrays, which come from outside; ``views``
    adopts a vector its caller has just made.
    """

    __slots__ = ("_flat", "_layout", "_arrays", "_sha256")

    def __init__(self, segments):
        segments = [(name, as_f64(arr)) for name, arr in segments]
        self._keep(np.concatenate([a.reshape(-1) for _, a in segments] or [np.zeros(0)]),
                   tuple((name, a.shape) for name, a in segments))

    def _keep(self, flat, layout):
        flat.setflags(write=False)
        self._flat = flat
        self._layout = tuple(layout)
        self._arrays = _segment_views(flat, self._layout)
        self._sha256 = None

    @classmethod
    def views(cls, flat, layout) -> "ParamVector":
        """A vector over the 1-D float64 array ``flat``, which its caller has
        just made: made read-only and kept, with no copy. ``flat`` holds
        exactly the values of ``layout``, a sequence of (name, shape)."""
        pv = cls.__new__(cls)
        pv._keep(flat, layout)
        return pv

    def items(self):
        return self._arrays.items()

    def __getitem__(self, name):
        return self._arrays[name]

    def size(self) -> int:
        return self._flat.size

    def layout(self):
        return self._layout

    def _check_layout(self, other: "ParamVector"):
        if self._layout != other._layout:
            raise ShapeError("parameter vectors have different layouts")

    def __add__(self, other):
        self._check_layout(other)
        return ParamVector.views(self._flat + other._flat, self._layout)

    def __sub__(self, other):
        self._check_layout(other)
        return ParamVector.views(self._flat - other._flat, self._layout)

    def __mul__(self, c):
        return ParamVector.views(self._flat * float(c), self._layout)

    __rmul__ = __mul__

    def zeros_like(self):
        return ParamVector.views(np.zeros_like(self._flat), self._layout)

    def flatten(self) -> np.ndarray:
        return self._flat

    def unflatten(self, flat) -> "ParamVector":
        """A vector with this layout over a copy of the flat array ``flat``."""
        return ParamVector.views(as_f64(flat).reshape(-1).copy(), self._layout)

    def sha256(self) -> str:
        """Hex sha256 of the flat vector as little-endian float64: the
        parameter bytes a checkpoint stores. The vector is read-only, so it
        is computed once."""
        if self._sha256 is None:
            import hashlib  # imported here: not on the command-line start-up path

            flat = np.ascontiguousarray(self._flat, dtype="<f8")
            self._sha256 = hashlib.sha256(flat).hexdigest()
        return self._sha256

    def allfinite(self) -> bool:
        return bool(np.isfinite(self._flat).all())

    def equals(self, other: "ParamVector") -> bool:
        """Bitwise equality of all segments."""
        return self._layout == other._layout and np.array_equal(self._flat, other._flat)

    def __repr__(self):
        return f"ParamVector({self._layout})"


def _segment_views(flat, layout) -> dict:
    """{name: view of the 1-D array ``flat``} for each (name, shape) of
    ``layout`` in order, with no copy; ``flat`` holds exactly their values."""
    views = {}
    pos = 0
    for name, shape in layout:
        if name in views:
            raise ConfigError(f"duplicate parameter segment {name!r}")
        size = math.prod(shape)
        views[name] = flat[pos : pos + size].reshape(shape)
        pos += size
    if pos != flat.size:
        raise ShapeError(f"expected {pos} values, got {flat.size}")
    return views


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a feed-forward classifier.

    ``layer_widths`` lists every layer width including the final-class count,
    e.g. ``(64, 64, 4)`` is two hidden layers of 64 units and 4 classes.
    """

    input_dim: int
    layer_widths: tuple
    activation: str = "relu"
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be positive, got {self.input_dim}")
        if not self.layer_widths:
            raise ConfigError("layer_widths must not be empty")
        if any(w < 1 for w in self.layer_widths):
            raise ConfigError(f"layer widths must be positive, got {self.layer_widths}")
        if self.layer_widths[-1] < 2:
            raise ConfigError("final layer width (class count) must be at least 2")
        if any(8 * fan_in * fan_out > MAX_ARRAY_BYTES for fan_in, fan_out in self.layer_dims()):
            raise ConfigError(f"layer widths {self.layer_widths} make a weight matrix larger "
                              "than numpy can hold")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    @property
    def num_classes(self) -> int:
        return self.layer_widths[-1]

    def layer_dims(self):
        """(fan_in, fan_out) per layer, in order."""
        fan_ins = (self.input_dim,) + self.layer_widths[:-1]
        return tuple(zip(fan_ins, self.layer_widths))


@dataclass(frozen=True)
class ModelState:
    spec: ModelSpec
    params: ParamVector

    def __post_init__(self):
        expected = tuple(
            (name, shape)
            for i, (fi, fo) in enumerate(self.spec.layer_dims())
            for name, shape in ((f"w{i}", (fi, fo)), (f"b{i}", (fo,)))
        )
        if self.params.layout() != expected:
            raise ShapeError(
                f"parameter layout {self.params.layout()} does not match spec {expected}"
            )


def init_model(spec: ModelSpec) -> ModelState:
    """Initialise a model deterministically from its spec.

    Every weight and bias of a layer with fan-in f is drawn uniformly from
    [-1/sqrt(f), +1/sqrt(f)] using a PCG64 generator seeded with
    ``spec.init_seed``, so the same (spec, seed) pair always produces a
    bitwise-identical parameter vector. A model too large to allocate is a
    ``ConfigError``.
    """
    rng = np.random.default_rng(int(spec.init_seed) & ((1 << 64) - 1))
    segments = []
    try:
        for i, (fan_in, fan_out) in enumerate(spec.layer_dims()):
            bound = 1.0 / np.sqrt(fan_in)
            segments.append((f"w{i}", rng.uniform(-bound, bound, size=(fan_in, fan_out))))
            segments.append((f"b{i}", rng.uniform(-bound, bound, size=fan_out)))
    except MemoryError as exc:
        raise ConfigError(f"layer widths {spec.layer_widths} make a model too large to "
                          "allocate") from exc
    return ModelState(spec, ParamVector(segments))


def _as_rows(x, input_dim: int):
    """Promote a single input to a one-row batch; report whether it was single."""
    x = as_f64(x)
    if x.ndim == 1:
        if x.shape[0] != input_dim:
            raise ShapeError(f"input has dim {x.shape[0]}, model expects {input_dim}")
        return x[None, :], True
    if x.ndim == 2:
        if x.shape[1] != input_dim:
            raise ShapeError(f"input has dim {x.shape[1]}, model expects {input_dim}")
        return x, False
    raise ShapeError(f"input must be 1-D or 2-D, got shape {x.shape}")


def _forward(model: ModelState, rows, dm=None):
    """The MLP layer loop over a row batch; each hidden activation overwrites
    its pre-activation in place. With ``dm``, each layer's input goes on
    ``dm.tape`` and the hidden layers' outputs live in ``dm``'s buffers; the
    logits are always a fresh array. Non-finite logits raise ``NumericError``,
    with no numpy overflow warning before it."""
    use_relu = model.spec.activation == "relu"
    params = model.params
    n = rows.shape[0]
    z = rows
    last = len(model.spec.layer_widths) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(last + 1):
            w = params[f"w{i}"]
            hidden = i < last
            if dm is not None:
                dm.tape.append(z)
            z = np.matmul(z, w, out=dm._buffer(("out", i), n, w.shape[1])
                          if dm is not None and hidden else None)
            z += params[f"b{i}"]
            if hidden:
                z = np.maximum(z, 0.0, out=z) if use_relu else np.tanh(z, out=z)
    if not np.isfinite(z).all():
        raise NumericError("forward pass produced non-finite logits")
    return z


def forward_logits(model: ModelState, x) -> np.ndarray:
    """Logits of ``x`` under ``model``; accepts a single input or a row batch."""
    rows, single = _as_rows(x, model.spec.input_dim)
    z = _forward(model, rows)
    return z[0] if single else z


def predict_label(model: ModelState, x):
    """Argmax class of the logits; ties resolve to the lowest class index."""
    logits = forward_logits(model, x)
    return int(np.argmax(logits)) if logits.ndim == 1 else np.argmax(logits, axis=-1)


class DiffModel:
    """One recorded forward pass of a model, for ``backward``.

    ``logits`` keeps each layer's input on ``tape``: the input rows, then each
    hidden layer's activation; a second call replaces the record. The
    activations and ``backward``'s chain live in buffers the DiffModel owns,
    sized by the largest batch it has seen, so repeated passes (the steps of
    one attack) allocate them once. A second call overwrites them: read the
    tape before the next ``logits``.
    """

    def __init__(self, model: ModelState):
        self.model = model
        self.tape = []
        self._buffers = {}

    def _buffer(self, key, n, width):
        """The first ``n`` rows of the owned (rows, width) array ``key``."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < n:
            buf = self._buffers[key] = np.empty((n, width))
        return buf[:n]

    def logits(self, x) -> np.ndarray:
        x = as_f64(x)
        if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != self.model.spec.input_dim:
            raise ShapeError(
                f"logits expects a non-empty (B, {self.model.spec.input_dim}) batch, "
                f"got {x.shape}"
            )
        self.tape = []
        return _forward(self.model, x, self)


def backward(dm: DiffModel, dlogits, inputs=False):
    """Carry a gradient with respect to ``dm``'s logits back through its
    recorded forward pass.

    Returns the gradient with respect to every parameter as a ParamVector
    over one fresh flat array, each layer's segments written in place, or,
    with ``inputs``, the gradient with respect to the recorded input rows,
    the parameters held fixed, in a fresh array. The hidden layers'
    gradients reuse ``dm``'s buffers. Each activation's slope comes from the
    recorded layer input ``x``: ``1 - x*x`` for tanh, and for relu ``x > 0``,
    which is ``pre > 0`` since ``x = max(pre, 0)``.
    """
    params = dm.model.params
    use_relu = dm.model.spec.activation == "relu"
    if not inputs:
        flat = np.empty(params.size())
        grads = _segment_views(flat, params.layout())
    g = dlogits
    n = g.shape[0]
    for i in reversed(range(len(dm.tape))):
        x = dm.tape[i]
        w = params[f"w{i}"]
        if not inputs:
            np.matmul(x.T, g, out=grads[f"w{i}"])
            g.sum(axis=0, out=grads[f"b{i}"])
            if i == 0:
                return ParamVector.views(flat, params.layout())
        if i == 0:
            return g @ w.T
        g = np.matmul(g, w.T, out=dm._buffer(("grad", i), n, w.shape[0]))
        # x is this layer's input: the previous layer's activation
        g *= (x > 0.0) if use_relu else 1.0 - x * x
    return g


def finite_diff_param_grad(loss_of_params, params: ParamVector, h=1e-5) -> ParamVector:
    """Central-difference gradient over a flattened parameter vector.

    ``loss_of_params(ParamVector) -> float`` is the independent evaluation
    path used by the gradient-check oracles.
    """
    flat = finite_diff_grad(lambda v: loss_of_params(params.unflatten(v)), params.flatten(), h)
    return params.unflatten(flat)
