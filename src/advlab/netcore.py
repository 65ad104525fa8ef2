"""Small dense MLP classifiers with exact parameter and input gradients.

Arrays are 64-bit floats throughout; model parameters are immutable once
constructed, so states can be shared freely between threads and attacks.
One layer loop (``_forward``) computes every forward pass; ``DiffModel``
records its layer inputs and pre-activations, and ``backward`` carries a
gradient with respect to the logits back to the parameters or the input.
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
    """Ordered, named collection of parameter arrays (weights/biases per layer).

    Two vectors with the same layout support elementwise ``+``/``-`` and
    scalar ``*``; ``flatten``/``unflatten`` round-trip exactly. Every array is
    read-only. The constructor copies its arrays, which come from outside; a
    result the class computes itself is kept as computed, with no second copy.
    """

    __slots__ = ("_names", "_arrays", "_sha256")

    def __init__(self, segments):
        self._keep((name, as_f64(arr).copy()) for name, arr in segments)

    def _keep(self, segments):
        names = []
        arrays = {}
        for name, a in segments:
            if name in arrays:
                raise ConfigError(f"duplicate parameter segment {name!r}")
            a.setflags(write=False)
            names.append(name)
            arrays[name] = a
        self._names = tuple(names)
        self._arrays = arrays
        self._sha256 = None

    @classmethod
    def _adopt(cls, segments):
        """A vector over arrays just allocated for it: kept, not copied."""
        pv = cls.__new__(cls)
        pv._keep(segments)
        return pv

    @property
    def names(self):
        return self._names

    def items(self):
        for name in self._names:
            yield name, self._arrays[name]

    def __getitem__(self, name):
        return self._arrays[name]

    def __len__(self):
        return len(self._names)

    def size(self) -> int:
        return sum(a.size for a in self._arrays.values())

    def layout(self):
        return tuple((n, self._arrays[n].shape) for n in self._names)

    def _check_layout(self, other: "ParamVector"):
        if self.layout() != other.layout():
            raise ShapeError("parameter vectors have different layouts")

    def map(self, fn, *others):
        """The vector of ``fn(segment, *the same segment of each of others)``.

        ``fn`` must return an array it has just allocated: the result keeps
        it without a copy and makes it read-only."""
        for other in others:
            self._check_layout(other)
        return ParamVector._adopt(
            (n, fn(self._arrays[n], *(o._arrays[n] for o in others))) for n in self._names
        )

    def __add__(self, other):
        return self.map(np.add, other)

    def __sub__(self, other):
        return self.map(np.subtract, other)

    def __mul__(self, c):
        c = float(c)
        return self.map(lambda a: a * c)

    __rmul__ = __mul__

    def zeros_like(self):
        return self.map(np.zeros_like)

    def flatten(self) -> np.ndarray:
        if not self._names:
            return np.zeros(0)
        return np.concatenate([self._arrays[n].reshape(-1) for n in self._names])

    def unflatten(self, flat) -> "ParamVector":
        """Rebuild a vector with this layout from a flat array."""
        flat = as_f64(flat).reshape(-1)
        if flat.size != self.size():
            raise ShapeError(f"expected {self.size()} values, got {flat.size}")
        return ParamVector(ParamVector.views(flat, self.layout()).items())

    def sha256(self) -> str:
        """Hex sha256 of the segments' bytes in order, as little-endian float64:
        the parameter bytes a checkpoint stores. The arrays are read-only, so
        it is computed once."""
        if self._sha256 is None:
            import hashlib  # imported here: not on the command-line start-up path

            digest = hashlib.sha256()
            for name in self._names:
                digest.update(np.ascontiguousarray(self._arrays[name], dtype="<f8"))
            self._sha256 = digest.hexdigest()
        return self._sha256

    @classmethod
    def views(cls, flat, layout) -> "ParamVector":
        """A vector of read-only views into the 1-D array ``flat``, one per
        (name, shape) of ``layout`` in order, with no copy; ``flat`` holds
        exactly the layout's values."""
        out = []
        pos = 0
        for name, shape in layout:
            size = math.prod(shape)
            out.append((name, flat[pos : pos + size].reshape(shape)))
            pos += size
        return cls._adopt(out)

    def allfinite(self) -> bool:
        return all(np.isfinite(a).all() for a in self._arrays.values())

    def equals(self, other: "ParamVector") -> bool:
        """Bitwise equality of all segments."""
        if self.layout() != other.layout():
            return False
        return all(np.array_equal(self._arrays[n], other._arrays[n]) for n in self._names)

    def __repr__(self):
        return f"ParamVector({self.layout()})"


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
    bitwise-identical parameter vector.
    """
    rng = np.random.default_rng(int(spec.init_seed) & ((1 << 64) - 1))
    segments = []
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims()):
        bound = 1.0 / np.sqrt(fan_in)
        segments.append((f"w{i}", rng.uniform(-bound, bound, size=(fan_in, fan_out))))
        segments.append((f"b{i}", rng.uniform(-bound, bound, size=fan_out)))
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
    """The MLP layer loop over a row batch. With ``dm``, each layer's (input,
    pre-activation) goes on ``dm.tape``, the hidden layers' arrays in ``dm``'s
    own buffers; the logits are always a fresh array. Non-finite logits raise
    ``NumericError``, with no numpy overflow warning before it."""
    use_relu = model.spec.activation == "relu"
    params = model.params
    n = rows.shape[0]
    z = rows
    last = len(model.spec.layer_widths) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(last + 1):
            x = z
            w = params[f"w{i}"]
            hidden = i < last
            z = np.matmul(x, w, out=dm._buffer(("pre", i), n, w.shape[1])
                          if dm is not None and hidden else None)
            z += params[f"b{i}"]
            if dm is not None:
                dm.tape.append((x, z))
            if hidden:
                # without a tape the activation overwrites the pre-activation
                act = z if dm is None else dm._buffer(("act", i), n, w.shape[1])
                z = np.maximum(z, 0.0, out=act) if use_relu else np.tanh(z, out=act)
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

    ``logits`` keeps every layer's input and pre-activation; a second call
    replaces the record. The hidden layers' arrays and ``backward``'s chain
    live in buffers the DiffModel owns, sized by the largest batch it has
    seen, so repeated passes (the steps of one attack) allocate them once. A
    second call overwrites them: read the tape before the next ``logits``.
    """

    def __init__(self, model: ModelState):
        self.model = model
        self.tape = []
        self._buffers = {}

    def _buffer(self, key, n, width, dtype=np.float64):
        """The first ``n`` rows of the owned (rows, width) array ``key``."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < n:
            buf = self._buffers[key] = np.empty((n, width), dtype)
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
    or, with ``inputs``, the gradient with respect to the recorded input
    rows, the parameters held fixed. Either comes back in fresh arrays; the
    hidden layers' gradients reuse ``dm``'s buffers.
    """
    params = dm.model.params
    use_relu = dm.model.spec.activation == "relu"
    grads = {}
    g = dlogits
    n = g.shape[0]
    for i in reversed(range(len(dm.tape))):
        x, _ = dm.tape[i]
        w = params[f"w{i}"]
        if not inputs:
            grads[f"w{i}"] = x.T @ g
            grads[f"b{i}"] = g.sum(axis=0)
            if i == 0:
                return ParamVector._adopt((name, grads[name]) for name in params.names)
        if i == 0:
            return g @ w.T
        g = np.matmul(g, w.T, out=dm._buffer(("grad", i), n, w.shape[0]))
        # x is this layer's input: the previous layer's activation
        if use_relu:
            g *= np.greater(dm.tape[i - 1][1], 0.0,
                            out=dm._buffer(("mask", i), n, w.shape[0], bool))
        else:
            slope = np.multiply(x, x, out=dm._buffer(("slope", i), n, w.shape[0]))
            g *= np.subtract(1.0, slope, out=slope)
    return g


def finite_diff_param_grad(loss_of_params, params: ParamVector, h=1e-5) -> ParamVector:
    """Central-difference gradient over a flattened parameter vector.

    ``loss_of_params(ParamVector) -> float`` is the independent evaluation
    path used by the gradient-check oracles.
    """
    flat = finite_diff_grad(lambda v: loss_of_params(params.unflatten(v)), params.flatten(), h)
    return params.unflatten(flat)
