"""Shared builders for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

import mdrank
from mdrank.autodiff import ShapeError, Tensor, _accumulate, _record, _relu_mask
from mdrank.data import QuerySession
from mdrank.models import ModelConfig


def make_session(
    rng: np.random.Generator,
    n_items: int,
    feature_dim: int,
    domain: int = 0,
    query_id: str = "q",
    timestamp: int = 0,
    ensure_positive: bool = True,
) -> QuerySession:
    """Random session with binary labels; at least one positive by default."""
    features = rng.normal(size=(n_items, feature_dim))
    labels = (rng.random(n_items) < 0.3).astype(float)
    if ensure_positive and labels.sum() == 0:
        labels[int(rng.integers(n_items))] = 1.0
    return QuerySession(query_id=query_id, domain=domain, timestamp=timestamp,
                        features=features, grades=labels)


def source_env() -> dict[str, str]:
    """This process's environment with the mdrank package the suite
    imported first on PYTHONPATH, for a subprocess to import it too."""
    env = dict(os.environ)
    checkout = str(Path(mdrank.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [checkout, env.get("PYTHONPATH")]))
    return env


def tiny_config(variant: str = "baseline", **overrides) -> ModelConfig:
    """Small dimensions so gradient and equality checks stay fast."""
    base = dict(
        variant=variant,
        feature_dim=5,
        n_domains=2,
        trunk_hidden=(6,),
        token_dim=4,
        transformer_layers=1,
        heads=1,
        final_hidden=(5,),
        classifier_hidden=(4,),
    )
    base.update(overrides)
    return ModelConfig(**base)


def mul_const(x: Tensor, c) -> Tensor:
    """Elementwise product with a constant array; gradient harnesses use it
    to weight an op's output before summing it to a scalar."""
    cv = np.asarray(c, dtype=np.float64)
    if cv.shape != x.shape:
        raise ShapeError(f"mul_const: constant shape {cv.shape} != tensor shape {x.shape}")
    out = Tensor(x.values * cv, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, cv * g)

    _record("mul_const", out, bwd)
    return out


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of every entry, as a scalar tensor on the active tape."""
    out = Tensor(x.values.sum(), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, np.full_like(x.values, float(g)))

    _record("reduce_sum", out, bwd)
    return out


def relu(x: Tensor) -> Tensor:
    """``max(x, 0)`` elementwise, as its own node; the models run relu
    inside ``linear``, and the gradient tests compare the two."""
    # np.maximum (not np.where) so NaN inputs propagate instead of clipping to 0
    out = Tensor(np.maximum(x.values, 0.0), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, _relu_mask(g, out.values))

    _record("relu", out, bwd)
    return out


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(7)
