"""Sampler recipes: expression trees over primitive random draws.

A recipe is a small immutable tree whose leaves are primitive laws and
whose nodes combine independent draws elementwise.  This module holds only
the tree data; ``gammatype.stochastics`` draws from it.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Union

from .errors import ValidationError
from .record import Record

__all__ = [
    "Leaf", "Product", "Power", "Scale", "NegLog", "Abs", "Sum",
    "Discriminant", "Recipe", "uniform", "exponential", "gamma", "beta",
    "normal", "positive_stable", "symmetric_stable", "gumbel", "cauchy",
    "leaf_count", "LEAF_ARITY",
]

# law -> parameter count; stochastics holds a draw for each of these laws
LEAF_ARITY = {
    "uniform": 0, "exponential": 0, "gamma": 1, "beta": 2, "normal": 0,
    "positive_stable": 1, "symmetric_stable": 1,
}


_set = object.__setattr__


def _finite(value, what: str) -> float:
    if not (isinstance(value, Real) and math.isfinite(value)):
        raise ValidationError(f"{what} must be a finite real, got {value!r}")
    return float(value)


def _recipe(value, what: str):
    if not isinstance(value, _NODES):
        raise ValidationError(f"{what} must be a recipe, got {value!r}")
    return value


def _recipes(parts, what: str) -> tuple:
    if not isinstance(parts, tuple):
        raise ValidationError(f"{what} parts must be a tuple of recipes, "
                              f"got {parts!r}")
    for part in parts:
        _recipe(part, f"{what} part")
    return parts


class Leaf(Record):
    __slots__ = _fields = ("kind", "args")

    def __init__(self, kind: str, args: tuple = ()):
        if kind not in LEAF_ARITY:
            raise ValidationError(f"unknown leaf law {kind!r}")
        if len(args) != LEAF_ARITY[kind]:
            raise ValidationError(f"leaf {kind!r} takes "
                                  f"{LEAF_ARITY[kind]} parameter(s)")
        if not all(isinstance(a, Real) for a in args):
            raise ValidationError(f"leaf {kind!r} parameters must be real "
                                  f"numbers, got {args!r}")
        _set(self, "kind", kind)
        _set(self, "args", tuple(float(a) for a in args))


class Product(Record):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple):
        _set(self, "parts", _recipes(parts, "product"))


class Power(Record):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: "Recipe", exponent: float):
        _set(self, "base", _recipe(base, "power base"))
        _set(self, "exponent", _finite(exponent, "power exponent"))


class Scale(Record):
    __slots__ = _fields = ("base", "factor")

    def __init__(self, base: "Recipe", factor: float):
        factor = _finite(factor, "scale factor")
        if factor == 0:
            raise ValidationError("scale factor must be nonzero")
        _set(self, "base", _recipe(base, "scale base"))
        _set(self, "factor", factor)


class NegLog(Record):
    __slots__ = _fields = ("base",)

    def __init__(self, base: "Recipe"):
        _set(self, "base", _recipe(base, "neglog base"))


class Abs(Record):
    __slots__ = _fields = ("base",)

    def __init__(self, base: "Recipe"):
        _set(self, "base", _recipe(base, "abs base"))


class Sum(Record):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple):
        _set(self, "parts", _recipes(parts, "sum"))


class Discriminant(Record):
    """Squared Vandermonde determinant of n iid draws from one leaf law."""

    __slots__ = _fields = ("n", "leaf")

    def __init__(self, n: int, leaf: Leaf):
        if not (isinstance(n, Integral) and n >= 1):
            raise ValidationError(f"discriminant needs an integer n >= 1, "
                                  f"got {n!r}")
        if not isinstance(leaf, Leaf):
            raise ValidationError(f"discriminant draws from a Leaf, "
                                  f"got {leaf!r}")
        _set(self, "n", int(n))
        _set(self, "leaf", leaf)


_NODES = (Leaf, Product, Power, Scale, NegLog, Abs, Sum, Discriminant)
Recipe = Union[_NODES]


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


def gumbel() -> NegLog:
    """-log of a standard exponential."""
    return NegLog(exponential())


def cauchy() -> Leaf:
    """The standard Cauchy law, symmetric stable of index 1."""
    return symmetric_stable(1.0)


def leaf_count(recipe: Recipe) -> int:
    if isinstance(recipe, (Leaf, Discriminant)):
        return 1
    if isinstance(recipe, (Product, Sum)):
        return sum(leaf_count(p) for p in recipe.parts)
    return leaf_count(recipe.base)
