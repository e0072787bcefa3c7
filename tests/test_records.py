"""Value semantics of the immutable record classes."""

import copy
import math
from fractions import Fraction

import pytest

from gammatype import catalog, recipes as rc, stochastics
from gammatype.forms import (
    AnalyticityStrip, AsymptoticProfile, ConsistencyReport, GammaFactor,
    GammaTypeForm,
)

LEAF = rc.gamma(2)
FACTOR = GammaFactor(Fraction(1, 2), 1.0)
STRIP = AnalyticityStrip(-2.0, math.inf)
FORM = GammaTypeForm(1.0, 0.5, (FACTOR,), ())
SPEC = catalog.ParamSpec("a", "float", "a > 0")
POINT = stochastics.VerificationPoint(0.5, 1.1, 0.1, 1.0, 1.0, True, True)

# every record class with the arguments of one instance, in field order
RECORDS = [
    (rc.Leaf, ("gamma", (2.0,))),
    (rc.Product, ((LEAF, LEAF),)),
    (rc.Power, (LEAF, 0.5)),
    (rc.Scale, (LEAF, 2.0)),
    (rc.NegLog, (LEAF,)),
    (rc.Abs, (LEAF,)),
    (rc.Sum, ((LEAF, LEAF),)),
    (rc.Discriminant, (3, rc.normal())),
    (GammaFactor, (Fraction(1, 2), 1.0)),
    (AnalyticityStrip, (-2.0, math.inf)),
    (AsymptoticProfile, (0.5, 0.5, 0.5, 0.0, 1.7)),
    (ConsistencyReport, (True, STRIP, None)),
    (GammaTypeForm, (1.0, 0.5, (FACTOR,), ())),
    (catalog.Support, (0.0, math.inf, False)),
    (catalog.ParamSpec, ("a", "float", "a > 0")),
    (catalog.DistributionEntry, (FORM, "mellin", LEAF, None, {"gamma": 0.5},
                                 "x", {"a": 2.0}, True)),
    (catalog._EntryDef, ("label", (SPEC,), print)),
    (stochastics.MCEstimate, (1.1, 0.1, 10, 0.5, True)),
    (stochastics.VerificationPoint, (0.5, 1.1, 0.1, 1.0, 1.0, True, True)),
    (stochastics.VerificationReport, ("x", (POINT,), True)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, args", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(cls, args):
    a, b = cls(*args), cls(**dict(zip(cls._fields, args)))
    assert a == b and not a != b
    assert tuple(getattr(a, name) for name in cls._fields) == args
    if cls is catalog.DistributionEntry:  # its dict fields are unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(args)
    assert copy.copy(a) == a == copy.deepcopy(a)


@pytest.mark.parametrize("cls, args", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args):
    record = cls(*args)
    for name, value in zip(cls._fields, args):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.other = 1


def test_records_of_different_classes_differ():
    parts = (LEAF, rc.exponential())
    assert rc.Product(parts) != rc.Sum(parts)
    assert rc.Abs(LEAF) != rc.NegLog(LEAF)
    assert rc.Product(parts) != rc.Product(parts[::-1])
    assert FACTOR != (FACTOR.slope, FACTOR.offset)


def test_repr_names_the_fields():
    assert repr(rc.Leaf("gamma", (2,))) == "Leaf(kind='gamma', args=(2.0,))"
    assert repr(STRIP) == "AnalyticityStrip(rho_minus=-2.0, rho_plus=inf)"
    assert repr(rc.NegLog(rc.uniform())) == (
        "NegLog(base=Leaf(kind='uniform', args=()))")


def test_defaults_and_the_cached_walk():
    entry = catalog.DistributionEntry(FORM, "mellin")
    assert (entry.recipe, entry.density, entry.tabulated, entry.name,
            entry.params, entry.symmetric) == (None, None, {}, "", {}, False)
    assert catalog.Support(0, 1).symmetric is False
    assert ConsistencyReport(True, STRIP).zero_location is None
    assert rc.Leaf("normal").args == ()
    form = GammaTypeForm(1.0, 0.5, (FACTOR,), ())
    assert form._poles is form._poles  # walked once per form
    assert form.asymptotic_profile() is form.asymptotic_profile()
    assert form == FORM and hash(form) == hash(FORM)


def test_entry_replace_changes_only_the_named_fields():
    entry = catalog.DistributionEntry(FORM, "mellin", LEAF, None,
                                      {"gamma": 0.5}, "x", {"a": 2.0})
    recipe, params = rc.exponential(), {"a": 3.0}
    changed = entry.replace(recipe=recipe, params=params)
    assert type(changed) is catalog.DistributionEntry
    assert changed.recipe is recipe and changed.params is params
    assert (entry.recipe, entry.params) == (LEAF, {"a": 2.0})
    for name in ("form", "kind", "density", "tabulated", "name", "symmetric"):
        assert getattr(changed, name) is getattr(entry, name)
    assert changed.support == entry.support
    assert entry.replace() == entry
    with pytest.raises(TypeError, match=r"^DistributionEntry\(\).*'other'"):
        entry.replace(other=1)


# a store-only record, and one whose last field has a default
@pytest.mark.parametrize("cls, args, kwargs", [
    pytest.param(AnalyticityStrip, (-2.0,), {}, id="strip-missing"),
    pytest.param(AnalyticityStrip, (-2.0, 1.0), {"other": 1},
                 id="strip-unknown"),
    pytest.param(AnalyticityStrip, (-2.0, 1.0), {"rho_minus": -2.0},
                 id="strip-repeated"),
    pytest.param(AnalyticityStrip, (-2.0, 1.0, 3.0), {}, id="strip-extra"),
    pytest.param(ConsistencyReport, (True,), {}, id="report-missing"),
    pytest.param(ConsistencyReport, (True, STRIP), {"other": 1},
                 id="report-unknown"),
    pytest.param(ConsistencyReport, (True, STRIP), {"passed": True},
                 id="report-repeated"),
    pytest.param(ConsistencyReport, (True, STRIP, None, 1.0), {},
                 id="report-extra"),
])
def test_the_shared_constructor_names_the_class(cls, args, kwargs):
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\)"):
        cls(*args, **kwargs)
