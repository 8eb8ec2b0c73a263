"""Exception types shared across the package, and the config field checker."""

import functools
import numbers
import operator
from dataclasses import fields
from sys import float_info
from typing import get_origin, get_type_hints


class ConfigurationError(ValueError):
    """Bad static configuration: unknown dataset, unsupported step count, ..."""


class DomainError(ValueError):
    """A time or argument lies outside the schedule's domain."""


class StateError(RuntimeError):
    """Operation applied to an object in an unusable state (e.g. empty dataset)."""


class NumericsError(ArithmeticError):
    """Non-finite values where finite ones are required."""


class TrainingDivergence(NumericsError):
    """Loss or parameters became non-finite during training."""

    def __init__(self, iteration, message=""):
        self.iteration = iteration
        super().__init__(f"training diverged at iteration {iteration}" +
                         (f": {message}" if message else ""))


# metadata key of a field's domain -> (test the value passes, word for the message)
_DOMAIN = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<="),
           "choices": (lambda v, c: v in c, "one of")}

field_types = functools.cache(get_type_hints)   # a dataclass's resolved field annotations


def _type_problem(v, tp):
    """What ``v`` must be to hold a value of the annotated type ``tp``, or None."""
    if tp is float:  # an exact bound: NaN fails it, and no int is too large for it
        ok = isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= float_info.max
        return None if ok else "a finite number"
    if get_origin(tp) is tuple:
        ok = isinstance(v, tuple) and v and all(_type_problem(e, float) is None for e in v)
        return None if ok else "a non-empty tuple of finite numbers"
    ok = type(v) is int if tp is int else isinstance(v, tp)
    return None if ok else f"of type {tp.__name__}"


def check_fields(obj):
    """Check each field of the dataclass ``obj`` against its annotated type and
    the domain in its metadata (bounds ``ge``, ``gt``, ``le``; ``choices``), and
    raise ``ConfigurationError`` naming the first field that fails. Types are
    exact: an ``int`` takes no bool or float, a ``float`` a finite int or float,
    and a ``tuple[float, ...]`` a non-empty tuple of such floats, each in the domain."""
    for f in fields(obj):
        v, dom = getattr(obj, f.name), f.metadata
        elems = v if isinstance(v, tuple) else (v,)
        want = _type_problem(v, field_types(type(obj))[f.name]) or next(
            (f"{word} {dom[k]!r}" for k, (ok, word) in _DOMAIN.items()
             if k in dom and not all(ok(e, dom[k]) for e in elems)), None)
        if want:
            raise ConfigurationError(f"{type(obj).__name__}.{f.name} must be {want}, not {v!r}")


def check_sigma_d(v):
    """A data scale sigma_d as a float; ``ConfigurationError`` unless finite and positive."""
    if not 0 < v <= float_info.max:
        raise ConfigurationError(f"sigma_d must be finite and positive, not {v!r}")
    return float(v)


def check_counts(**counts):
    """``ValueError`` naming the first of ``counts`` (name=value) that is not an
    integer (a bool is not one) of at least 1."""
    for name, v in counts.items():
        if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < 1:
            raise ValueError(f"{name} must be an integer of at least 1, not {v!r}")
