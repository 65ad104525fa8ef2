import numpy as np
import pytest

from advlab import workers
from advlab.netcore import ModelSpec, ModelState, ParamVector


def model_from_arrays(input_dim, layers, activation="relu"):
    """Build a ModelState from explicit [(W, b), ...] layer arrays."""
    widths = tuple(np.asarray(w).shape[1] for w, _ in layers)
    spec = ModelSpec(input_dim, widths, activation, init_seed=0)
    segments = []
    for i, (w, b) in enumerate(layers):
        segments.append((f"w{i}", np.asarray(w, dtype=np.float64)))
        segments.append((f"b{i}", np.asarray(b, dtype=np.float64)))
    return ModelState(spec, ParamVector(segments))


@pytest.fixture
def worker_count(monkeypatch):
    """Set the CPU count ``Workers`` sees; more than one needs a pinnable BLAS."""
    def set_count(n):
        if n > 1 and workers.blas_threads() is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be pinned here")
        monkeypatch.setattr(workers, "cpu_count", lambda: n)
    return set_count


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def linear_2d_model():
    """Single affine layer: logits = x @ W + b with W=[[1,0],[0,1]], b=0."""
    return model_from_arrays(2, [(np.eye(2), np.zeros(2))])
