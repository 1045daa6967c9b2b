"""Named analytic forms for demos, convergence studies and tests.

Identifiers follow ``<family><n>d-<p>``: the ``sin`` family are products
of sines and cosines of pi * x_i (smooth, nonpolynomial, with exact
partials), ``linear`` entries are degree-one polynomials that every
discrete space reproduces exactly, and ``exp`` is a convenient
non-separable smooth scalar field.  A ``sin`` form evaluates each factor
sin or cos of pi * x_i once per axis and call, shared by its components
and multiplied in axis order, so the values keep every bit of its
per-component callables.
"""

from __future__ import annotations

import numpy as np

from .forms import AnalyticForm

_PI = np.pi


def _trig_value(letters: str):
    def value(x):
        out = None
        for axis, letter in enumerate(letters):
            f = np.sin if letter == "s" else np.cos
            term = f(_PI * x[..., axis])
            out = term if out is None else out * term
        return out

    return value


def _trig_partial(letters: str, axis: int):
    # d/dx sin(pi x) = pi cos(pi x); d/dx cos(pi x) = -pi sin(pi x)
    toggled = letters[:axis] + ("c" if letters[axis] == "s" else "s") + letters[axis + 1 :]
    factor = _PI if letters[axis] == "s" else -_PI
    base = _trig_value(toggled)

    def part(x):
        return factor * base(x)

    return part


def _trig_values(letters_by_dirs: dict):
    """Every component at once: sin or cos of pi x_i is evaluated once per
    axis and call, and the factors multiplied in axis order, as
    :func:`_trig_value` does; only one axis's factors are held at a time."""
    letters_at = [sorted(set(column)) for column in zip(*letters_by_dirs.values())]

    def values(x):
        out = {}
        for axis, letters in enumerate(letters_at):
            angle = _PI * x[..., axis]
            factors = {c: (np.sin if c == "s" else np.cos)(angle) for c in letters}
            for dirs, L in letters_by_dirs.items():
                out[dirs] = factors[L[0]] if axis == 0 else out[dirs] * factors[L[axis]]
        return out

    return values


def _trig_form(dimension: int, degree: int, letters_by_dirs: dict, name: str) -> AnalyticForm:
    components = {dirs: _trig_value(L) for dirs, L in letters_by_dirs.items()}
    partials = {
        dirs: tuple(_trig_partial(L, axis) for axis in range(dimension))
        for dirs, L in letters_by_dirs.items()
    }
    return AnalyticForm(
        dimension, degree, components, partials, name, _evaluate_all=_trig_values(letters_by_dirs)
    )


def _const(c: float):
    return lambda x: np.full(x.shape[:-1], c)


def _coord(axis: int):
    return lambda x: x[..., axis]


def _build_catalog() -> dict[str, AnalyticForm]:
    forms = {}
    forms["sin2d-0"] = _trig_form(2, 0, {(): "ss"}, "sin2d-0")
    forms["sin2d-1"] = _trig_form(2, 1, {(0,): "ss", (1,): "cc"}, "sin2d-1")
    forms["sin2d-2"] = _trig_form(2, 2, {(0, 1): "ss"}, "sin2d-2")
    forms["sin3d-0"] = _trig_form(3, 0, {(): "sss"}, "sin3d-0")
    forms["sin3d-1"] = _trig_form(
        3, 1, {(0,): "sss", (1,): "ccc", (2,): "scs"}, "sin3d-1"
    )
    forms["sin3d-2"] = _trig_form(
        3, 2, {(0, 1): "sss", (0, 2): "ccc", (1, 2): "scs"}, "sin3d-2"
    )
    forms["sin3d-3"] = _trig_form(3, 3, {(0, 1, 2): "sss"}, "sin3d-3")
    forms["linear2d-1"] = AnalyticForm(
        2,
        1,
        {(0,): _coord(1)},
        {(0,): (_const(0.0), _const(1.0))},
        "linear2d-1",
    )
    forms["linear3d-2"] = AnalyticForm(
        3,
        2,
        {(0, 1): _coord(2)},
        {(0, 1): (_const(0.0), _const(0.0), _const(1.0))},
        "linear3d-2",
    )

    def _exp(x):
        return np.exp(x[..., 0] + 2.0 * x[..., 1])

    forms["exp2d-1"] = AnalyticForm(
        2,
        1,
        {(0,): _exp},
        {(0,): (_exp, lambda x: 2.0 * _exp(x))},
        "exp2d-1",
    )
    return forms


_CATALOG = _build_catalog()


def list_forms() -> list[str]:
    """Available form identifiers, sorted."""
    return sorted(_CATALOG)


def get_form(form_id: str) -> AnalyticForm:
    """Look up a catalog form; unknown ids raise KeyError with the list."""
    try:
        return _CATALOG[form_id]
    except KeyError:
        raise KeyError(
            f"unknown form {form_id!r}; available: {', '.join(list_forms())}"
        ) from None
