"""Numeric kernel: compensated summation, exp-exp quadrature on
(0, inf) for exponentially decaying integrands, K-Bessel evaluation,
hypergeometric series and Hurwitz zeta.
Everything above this layer builds on these primitives.

The names below are re-exported lazily (PEP 562): each imports its
submodule on first use, so code that needs one primitive loads only it.
"""

from __future__ import annotations

# public name -> the submodule that defines it
_EXPORTS = {
    "SeriesSum": "summation",
    "accelerated_alternating_complex": "summation",
    "bernoulli_even": "zeta",
    "csum": "summation",
    "gamma_real": "hyper",
    "hurwitz_zeta": "zeta",
    "integrate": "quadrature",
    "kv_complex": "bessel",
    "pfq_series": "hyper",
    "sum_terms": "summation",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
