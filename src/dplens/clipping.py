"""Per-sample gradient clipping and privatized-gradient assembly.

Two clipping rules are supported, both normalised so that every clipped
per-sample contribution has norm at most 1 (unit sensitivity):

* re-parameterised: ``C = min(1/|g|, 1/R)``
* AUTO:             ``C = 1/|g|``

The privatized gradient of a batch is ``(sum_i C_i g_i + sigma * N(0, I)) / B``.

This module owns the clip policy; tasks only see it as a map from per-sample
gradient norms to weights (:func:`clip_weights`).  ``trainer.dp_step`` is the
one training step: the task's fused ``loss_and_weighted_gradient_sum`` returns
the mean batch loss and ``sum_i C_i g_i`` from one forward and one backward
pass, and :func:`noised_mean` then adds the Gaussian noise and averages.
:func:`noised_mean` is the one noise step of every DP gradient in the
package.  :func:`weighted_gradient_sums` weights explicit per-sample
gradients, as the quadratic task's closed form and the Monte-Carlo oracle
give them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray
NormWeights = Callable[[Array], Array]


@dataclass(frozen=True)
class ClippingRule:
    """Per-sample clipping rule; ``ClippingRule()`` is re-parameterised at R = 1."""

    kind: str = "reparam"
    r: float = 1.0

    def __post_init__(self):
        if self.kind not in ("auto", "reparam"):
            raise ValueError(f"unknown clipping kind {self.kind!r}")
        if self.kind == "reparam" and self.r <= 0:
            raise ValueError("clipping threshold R must be positive")

    @classmethod
    def auto(cls) -> "ClippingRule":
        return cls(kind="auto")


def clip_factors(g_norms: Array, rule: ClippingRule) -> Array:
    """The clip factor C of each per-sample gradient norm in ``g_norms``.

    A zero norm gets 1/R under re-parameterised clipping and 0.0 under AUTO:
    the sample's contribution C g is the zero vector either way, and this
    keeps every factor finite.
    """
    g_norms = np.asarray(g_norms, dtype=float)
    if (g_norms < 0).any():
        raise ValueError("gradient norms must be nonnegative")
    if rule.kind == "auto":
        return np.divide(1.0, g_norms, out=np.zeros_like(g_norms), where=g_norms > 0)
    # min(1/|g|, 1/R), and 1/R for a zero norm
    return 1.0 / np.maximum(g_norms, rule.r)


def clip_weights(rule: ClippingRule | None) -> NormWeights | None:
    """The map from per-sample gradient norms to the clip weights C_i of ``rule``.

    ``None`` (no clipping) maps to ``None``: every weight is 1 and the
    weighted sum is the plain sum.
    """
    if rule is None:
        return None
    return lambda g_norms: clip_factors(g_norms, rule)


def weighted_gradient_sums(
    grads: Array, weight_of_norms: NormWeights | None, scratch: Array | None = None
) -> Array:
    """``sum_i C_i g_i`` along axis -2, with ``C = weight_of_norms(|g_i|)``.

    ``weight_of_norms=None`` gives the raw sum.  The squares of ``grads``
    go into ``scratch``, an array of its shape, or a new one without it.
    """
    if weight_of_norms is None:
        return grads.sum(axis=-2)
    # what np.linalg.norm computes, without its copy from grads.conj()
    squares = np.multiply(grads, grads, out=scratch)
    factors = weight_of_norms(np.sqrt(np.add.reduce(squares, axis=-1)))
    return np.einsum("...i,...ij->...j", factors, grads)


def noised_mean(
    totals: Array, b: int, sigma: float, rng: np.random.Generator | None
) -> Array:
    """``(totals + sigma * N(0, I)) / b``, with one noise draw per row of ``totals``.

    The noise is ``sigma * rng.standard_normal(totals.shape)``; with
    ``sigma=0`` nothing is drawn and the generator is left untouched.
    """
    if b < 1:
        raise ValueError("need a nonempty batch of 1-D gradients")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma > 0:
        if rng is None:
            raise ValueError("sigma > 0 requires a random generator")
        # sigma * z + totals, then / b, in the one new array; totals is left as is
        noised = rng.standard_normal(totals.shape)
        noised *= sigma
        noised += totals
        noised /= b
        return noised
    return totals / b
