"""Node dynamics: nonlinear integrators x' = gamma(u), y = x.

Every built-in gamma satisfies the sector condition u * gamma(u) >= 0 with
equality only at u = 0, which makes the agreement space invariant and the
steady-state input/output relation {0} x R for every node.  Like the edge
functions, gamma is one numpy expression that applies elementwise to a
float or an array of inputs, also with array-valued parameters, so a
network evaluates every node of one kind in one call.  Only this
integrator family is implemented; output maps other than y = x are out of
scope.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np

from .errors import ValidationError
from .edgefn import GridSpec, FloatOrArray, check_parameters, power

_SECTOR_EQ_TOL = 1e-12


class NodeDynamics:
    """Base class: drift gamma with gamma(0) = 0, elementwise on arrays."""

    def __post_init__(self):
        check_parameters(self)
        # A cheap guard on a coarse grid, after the parameter checks, for
        # the kinds whose sector condition depends on their parameters.
        if fields(self) and not sector_check(self, GridSpec(10.0, 101)):
            raise ValidationError(
                f"{type(self).__name__}: u*gamma(u) must be positive off 0"
            )

    def gamma(self, u: FloatOrArray) -> FloatOrArray:
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(NodeDynamics):
    """Single integrator: x' = u."""

    def gamma(self, u: FloatOrArray) -> FloatOrArray:
        return u


@dataclass(frozen=True)
class SignPower(NodeDynamics):
    """gamma(u) = c * sign(u) * |u| ** beta with c > 0, 0 < beta <= 1."""

    c: float
    beta: float
    # beta <= 1 keeps gamma locally Lipschitz away from 0.
    _bounds = (
        ("c", lambda c: c > 0, "gain c must be > 0, got {}"),
        ("beta", lambda beta: (0.0 < beta) & (beta <= 1.0),
         "exponent beta must be in (0, 1], got {}"),
    )

    def gamma(self, u: FloatOrArray) -> FloatOrArray:
        return np.copysign(power(np.abs(u), self.beta), u) * self.c


@dataclass(frozen=True)
class Saturating(NodeDynamics):
    """gamma(u) = c * tanh(u / s) with c, s > 0."""

    c: float
    s: float
    _bounds = (
        ("c", lambda c: c > 0, "saturating dynamics need c > 0 and s > 0"),
        ("s", lambda s: s > 0, "saturating dynamics need c > 0 and s > 0"),
    )

    def gamma(self, u: FloatOrArray) -> FloatOrArray:
        return self.c * np.tanh(u / self.s)


def sector_check(
    d: Union[NodeDynamics, Callable[[np.ndarray], np.ndarray]], grid: GridSpec
) -> bool:
    """True iff u * gamma(u) >= 0 on the grid with equality only near 0.

    Accepts either a NodeDynamics instance or a bare callable taking the
    array of grid points, so adversarial drifts can be screened without
    constructing a dynamics object.
    """
    grid.validate(min_samples=3)
    fn = d.gamma if isinstance(d, NodeDynamics) else d
    u = grid.points()
    p = u * fn(u)
    return bool(np.all((p > 0.0) | ((p == 0.0) & (np.abs(u) <= _SECTOR_EQ_TOL))))

