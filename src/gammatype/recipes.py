"""Sampler recipes: expression trees over primitive random draws.

A recipe is a small immutable tree whose leaves are primitive laws and
whose nodes combine independent draws elementwise.  Leaves are indexed by
a depth-first walk; the sampling driver hands every (chunk, leaf) pair its
own deterministic substream, which is what makes chunked generation
reproduce the sequential stream exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ValidationError

__all__ = [
    "Leaf", "Product", "Power", "Scale", "NegLog", "Abs", "Sum",
    "Discriminant", "Recipe", "uniform", "exponential", "gamma", "beta",
    "normal", "positive_stable", "symmetric_stable", "gumbel", "cauchy",
    "leaf_count", "evaluate_recipe",
]

@dataclass(frozen=True)
class Leaf:
    kind: str
    args: tuple = ()

    def __post_init__(self):
        if self.kind not in _LEAF_LAWS:
            raise ValidationError(f"unknown leaf law {self.kind!r}")
        arity = _LEAF_LAWS[self.kind][0]
        if len(self.args) != arity:
            raise ValidationError(f"leaf {self.kind!r} takes "
                                  f"{arity} parameter(s)")
        object.__setattr__(self, "args", tuple(float(a) for a in self.args))


@dataclass(frozen=True)
class Product:
    parts: tuple


@dataclass(frozen=True)
class Power:
    base: "Recipe"
    exponent: float


@dataclass(frozen=True)
class Scale:
    base: "Recipe"
    factor: float

    def __post_init__(self):
        if self.factor == 0:
            raise ValidationError("scale factor must be nonzero")


@dataclass(frozen=True)
class NegLog:
    base: "Recipe"


@dataclass(frozen=True)
class Abs:
    base: "Recipe"


@dataclass(frozen=True)
class Sum:
    parts: tuple


@dataclass(frozen=True)
class Discriminant:
    """Squared Vandermonde determinant of n iid draws from one leaf law."""

    n: int
    leaf: Leaf


Recipe = Union[Leaf, Product, Power, Scale, NegLog, Abs, Sum, Discriminant]


# convenience constructors -------------------------------------------------

def uniform() -> Leaf:
    return Leaf("uniform")


def exponential() -> Leaf:
    return Leaf("exponential")


def gamma(shape: float) -> Leaf:
    return Leaf("gamma", (shape,))


def beta(a: float, b: float) -> Leaf:
    return Leaf("beta", (a, b))


def normal() -> Leaf:
    return Leaf("normal")


def positive_stable(alpha: float) -> Leaf:
    return Leaf("positive_stable", (alpha,))


def symmetric_stable(alpha: float) -> Leaf:
    return Leaf("symmetric_stable", (alpha,))


def gumbel() -> Leaf:
    return Leaf("gumbel")


def cauchy() -> Leaf:
    return Leaf("cauchy")


def leaf_count(recipe: Recipe) -> int:
    if isinstance(recipe, (Leaf, Discriminant)):
        return 1
    if isinstance(recipe, (Product, Sum)):
        return sum(leaf_count(p) for p in recipe.parts)
    return leaf_count(recipe.base)


# leaf samplers ------------------------------------------------------------

def _draw_positive_stable(rng: np.random.Generator, alpha: float,
                          size) -> np.ndarray:
    """One-sided stable S_alpha with Laplace transform exp(-t^alpha).

    Kanter's representation via Zolotarev's integral, exact for
    0 < alpha < 1; alpha = 1 is the unit point mass.
    """
    if not 0 < alpha <= 1:
        raise ValidationError("positive_stable requires 0 < alpha <= 1")
    if alpha == 1.0:
        return np.ones(size)
    theta = rng.uniform(0.0, np.pi, size)
    w = rng.standard_exponential(size)
    a = (np.sin(alpha * theta) ** (alpha / (1 - alpha))
         * np.sin((1 - alpha) * theta)
         / np.sin(theta) ** (1 / (1 - alpha)))
    return (a / w) ** ((1 - alpha) / alpha)


def _draw_symmetric_stable(rng: np.random.Generator, alpha: float,
                           size) -> np.ndarray:
    """Symmetric stable with characteristic function exp(-|t|^alpha).

    Chambers-Mallows-Stuck construction; exact for 0 < alpha <= 2.
    """
    if not 0 < alpha <= 2:
        raise ValidationError("symmetric_stable requires 0 < alpha <= 2")
    v = rng.uniform(-np.pi / 2, np.pi / 2, size)
    if alpha == 1.0:
        return np.tan(v)
    w = rng.standard_exponential(size)
    return (np.sin(alpha * v) / np.cos(v) ** (1 / alpha)
            * (np.cos((1 - alpha) * v) / w) ** ((1 - alpha) / alpha))


# law -> (parameter count, draw(rng, *args, size))
_LEAF_LAWS = {
    "uniform": (0, lambda rng, size: rng.uniform(0.0, 1.0, size)),
    "exponential": (0, lambda rng, size: rng.standard_exponential(size)),
    "gamma": (1, lambda rng, a, size: rng.gamma(a, 1.0, size)),
    "beta": (2, lambda rng, a, b, size: rng.beta(a, b, size)),
    "normal": (0, lambda rng, size: rng.standard_normal(size)),
    "positive_stable": (1, _draw_positive_stable),
    "symmetric_stable": (1, _draw_symmetric_stable),
    "gumbel": (0, lambda rng, size: -np.log(rng.standard_exponential(size))),
    "cauchy": (0, lambda rng, size: rng.standard_cauchy(size)),
}


def _draw_leaf(leaf: Leaf, rng: np.random.Generator, size) -> np.ndarray:
    return _LEAF_LAWS[leaf.kind][1](rng, *leaf.args, size)


def evaluate_recipe(recipe: Recipe, rng_for_leaf, n: int,
                    _counter=None) -> np.ndarray:
    """Draw n values; ``rng_for_leaf(i)`` supplies leaf i's generator."""
    if _counter is None:
        _counter = [0]
    if isinstance(recipe, Leaf):
        rng = rng_for_leaf(_counter[0])
        _counter[0] += 1
        return _draw_leaf(recipe, rng, n)
    if isinstance(recipe, Discriminant):
        rng = rng_for_leaf(_counter[0])
        _counter[0] += 1
        draws = _draw_leaf(recipe.leaf, rng, (n, recipe.n))
        out = np.ones(n)
        for i in range(recipe.n):
            for j in range(i + 1, recipe.n):
                out *= draws[:, j] - draws[:, i]
        return out ** 2
    if isinstance(recipe, Product):
        out = np.ones(n)
        for part in recipe.parts:
            out = out * evaluate_recipe(part, rng_for_leaf, n, _counter)
        return out
    if isinstance(recipe, Sum):
        out = np.zeros(n)
        for part in recipe.parts:
            out = out + evaluate_recipe(part, rng_for_leaf, n, _counter)
        return out
    if isinstance(recipe, Power):
        base = evaluate_recipe(recipe.base, rng_for_leaf, n, _counter)
        return base ** recipe.exponent
    if isinstance(recipe, Scale):
        return recipe.factor * evaluate_recipe(recipe.base, rng_for_leaf,
                                               n, _counter)
    if isinstance(recipe, NegLog):
        return -np.log(evaluate_recipe(recipe.base, rng_for_leaf, n, _counter))
    if isinstance(recipe, Abs):
        return np.abs(evaluate_recipe(recipe.base, rng_for_leaf, n, _counter))
    raise ValidationError(f"unknown recipe node {recipe!r}")
