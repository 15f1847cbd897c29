"""Rate-memory-subpacketization tradeoff tables and plot data.

The new-scheme rows are computed through the parameter calculus: prior
published family tuples (label counts included) are lifted by one another
and the result applied to a measured base PDA.  The prior arrays themselves
are not constructible here, only their parameter tuples are consumed, so
comparison rows from other papers are embedded as literal reference data.

All ratios are exact rationals; decimal rendering is fixed at four
fractional digits with round-half-even.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .constructions import h_array, mn, odd_tiling
from .core import _params_of, params
from .lifting import ParamTuple, lift_family_params, lifted_params, measure_family

__all__ = [
    "PRIOR_FAMILIES",
    "TradeoffRow",
    "format_decimal4",
    "new_scheme_rows",
    "table1_rows",
    "fig2_rows",
    "render_table1_csv",
    "render_fig2_csv",
]


def format_decimal4(x: Fraction) -> str:
    """Render an exact rational with 4 fractional digits, round half even."""
    n = round(abs(x) * 10000)
    return f"{'-' if x < 0 else ''}{n // 10000}.{n % 10000:04d}"


# Compatible-family tuples from earlier lifting literature, used as opaque
# inputs: (K, f)_{Z_member, Z_ref}^{family_size, ref_regularity} plus the
# member/reference label-set sizes the calculus needs.
PRIOR_FAMILIES = {
    "b6_3": ParamTuple(6, 6, 1, 5, 3, 6, member_labels=15, ref_labels=1),
    "b6_2": ParamTuple(6, 6, 1, 4, 2, 4, member_labels=15, ref_labels=3),
    "b8_2": ParamTuple(8, 8, 1, 5, 2, 4, member_labels=28, ref_labels=6),
    "b10_2": ParamTuple(10, 10, 1, 6, 2, 4, member_labels=45, ref_labels=10),
    "c3": ParamTuple(3, 3, 1, 3, 3, 6, member_labels=3, ref_labels=0),
    "t16": ParamTuple(16, 16, 6, 13, 2, 8, member_labels=40, ref_labels=6),
    "f4": ParamTuple(4, 4, 1, 3, 2, 4, member_labels=6, ref_labels=1),
}


class TradeoffRow(NamedTuple):
    scheme: str
    g: int
    k: int
    f: int
    z: int
    s: int
    memory_ratio: Fraction
    rate: Fraction

    def csv(self) -> str:
        return (
            f"{self.scheme},{self.g},{self.k},{self.f},{self.z},{self.s},"
            f"{format_decimal4(self.memory_ratio)},{format_decimal4(self.rate)}"
        )


def _row(scheme: str, p) -> TradeoffRow:
    return TradeoffRow(scheme, p.g, p.k, p.f, p.z, p.s, p.memory_ratio, p.rate)


def odd_family_tuple(g: int) -> ParamTuple:
    fam = odd_tiling(g)
    return measure_family([fam.p0, fam.p1], fam.pstar)


def new_scheme_rows() -> list:
    """The six computed rows: one odd-tiling lift and five family-lift chains."""
    pf = PRIOR_FAMILIES
    chains = [
        (mn(4, 2), "b6_3", "b10_2"),
        (mn(5, 2), "b6_3", "b8_2"),
        (h_array(5), "b6_2", "b8_2"),
        (h_array(4), "b8_2", "b8_2"),
        (h_array(4), "f4", "t16"),
    ]
    odd = lifted_params(params(h_array(2)), odd_family_tuple(11))
    return [_row("odd-tiling-lift", odd)] + [
        _row("family-lift", lifted_params(params(base), lift_family_params(pf[p], pf[q])))
        for base, p, q in chains
    ]


def table1_rows() -> list:
    """The computed rows interleaved with the comparison rows as printed.
    The comparison schemes are reference data, not constructed: each is its
    published (K, f, Z, S, g) with M/N and R derived, except cheng2020,
    whose rate is stored as printed even though it differs from S/f."""
    new = new_scheme_rows()
    return [
        new[0],
        _row("prior-lifting", _params_of(22, 22, 20, 4, 11)),
        new[1],
        new[2],
        _row("prior-lifting", _params_of(240, 960, 588, 7440, 12)),
        TradeoffRow("cheng2020", 12, 240, 64, 60, 80, Fraction(60, 64), Fraction(1)),
        _row("huang2021", _params_of(240, 64, 48, 384, 10)),
        new[3],
        _row("prior-lifting", _params_of(240, 240, 78, 4860, 8)),
        new[4],
        _row("prior-lifting", _params_of(256, 256, 80, 5632, 8)),
        new[5],
        _row("prior-lifting", _params_of(256, 256, 160, 1536, 16)),
    ]


def render_table1_csv() -> str:
    lines = ["scheme,g,K,f,Z,S,MN,R"]
    lines.extend(row.csv() for row in table1_rows())
    return "\n".join(lines) + "\n"


# (M/N, R) point series for the 240-user comparison plot, as plotted.
_FIG2_USERS = 240
_FIG2_POINTS = {
    "prior-lifting": [
        ("0", "240"),
        ("0.004166667", "119.5"),
        ("0.1083333", "71.33333"),
        ("0.09166667", "54.5"),
        ("0.4833333", "24.8"),
        ("0.371875", "25.125"),
        ("0.325", "20.25"),
        ("0.60625", "9.45"),
        ("0.6125", "7.75"),
        ("0.6458333", "5.3125"),
        ("0.775", "2.7"),
        ("0.8166667", "1.375"),
        ("0.9125", "0.4375"),
        ("0.9541667", "0.1375"),
        ("0.9791667", "0.04166667"),
        ("0.9916667", "0.0125"),
        ("0.9958333", "0.004166667"),
    ],
    "family-lift": [
        ("0.3083", "20.75"),
        ("0.4667", "10.6667"),
        ("0.6208", "5.6875"),
        ("0.7125", "2.875"),
    ],
    "huang2021": [("0.75", "6"), ("0.625", "15"), ("0.75", "20")],
    "cheng2020": [("0.9375", "1"), ("0.85", "3")],
    "cheng2021": [("0.88333", "1"), ("0.8375", "1")],
    "uncoded": [("0", "240"), ("1", "0")],
}


def fig2_rows() -> list:
    """The 240-user MN rate curve sampled at every integer cache size plus
    the plotted comparison points: rows of (series, M/N, R)."""
    k = _FIG2_USERS
    rows = [
        ("mn", format_decimal4(Fraction(x, k)), format_decimal4(Fraction(k - x, 1 + x)))
        for x in range(k + 1)
    ]
    for series, points in _FIG2_POINTS.items():
        rows.extend((series, mn_val, r_val) for mn_val, r_val in points)
    return rows


def render_fig2_csv() -> str:
    lines = ["series,MN,R"]
    lines.extend(f"{series},{m},{r}" for series, m, r in fig2_rows())
    return "\n".join(lines) + "\n"
