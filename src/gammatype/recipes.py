"""Sampler recipes: expression trees over primitive random draws.

A recipe is a small immutable tree whose leaves are primitive laws and
whose nodes combine independent draws elementwise.  This module holds only
the tree data; ``gammatype.stochastics`` draws from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import ValidationError

__all__ = [
    "Leaf", "Product", "Power", "Scale", "NegLog", "Abs", "Sum",
    "Discriminant", "Recipe", "uniform", "exponential", "gamma", "beta",
    "normal", "positive_stable", "symmetric_stable", "gumbel", "cauchy",
    "leaf_count", "LEAF_ARITY",
]

# law -> parameter count; stochastics holds a draw for each of these laws
LEAF_ARITY = {
    "uniform": 0, "exponential": 0, "gamma": 1, "beta": 2, "normal": 0,
    "positive_stable": 1, "symmetric_stable": 1, "gumbel": 0, "cauchy": 0,
}


@dataclass(frozen=True)
class Leaf:
    kind: str
    args: tuple = ()

    def __post_init__(self):
        if self.kind not in LEAF_ARITY:
            raise ValidationError(f"unknown leaf law {self.kind!r}")
        if len(self.args) != LEAF_ARITY[self.kind]:
            raise ValidationError(f"leaf {self.kind!r} takes "
                                  f"{LEAF_ARITY[self.kind]} parameter(s)")
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
