"""Regenerate the Debye polynomial coefficient tables embedded in specfun.

The uniform large-order expansions of the modified Bessel pair (DLMF
10.41.3) use the polynomials u_k(t) defined by u_0 = 1 and the recurrence

    u_{k+1}(t) = t^2 (1 - t^2) u_k'(t) / 2
                 + (1/8) * integral_0^t (1 - 5 s^2) u_k(s) ds ,

and those of their derivatives (DLMF 10.41.4) use the polynomials v_k(t)
that follow from them through DLMF 10.41.11,

    v_0 = 1,   v_k(t) = u_k(t) + t (t^2 - 1) (u_{k-1}(t) / 2 + t u_{k-1}'(t)) .

Each u_k and v_k is t^k times an even polynomial in t; the tables
``_UK`` and ``_VK`` in ``coaxcasimir.specfun`` store those
even-polynomial coefficients as floats.  Run this script to re-derive
them exactly with sympy and print both tables in the embedded format:

    python scripts/gen_debye_tables.py [K_MAX]
"""

import sys

import sympy as sp


def debye_polynomials(k_max: int):
    """Return t and the lists [u_0..u_k_max], [v_0..v_k_max]."""
    t, s = sp.symbols("t s")
    us = [sp.Integer(1)]
    vs = [sp.Integer(1)]
    for _ in range(k_max):
        u = us[-1]
        u_next = sp.expand(
            t**2 * (1 - t**2) * sp.diff(u, t) / 2
            + sp.integrate((1 - 5 * s**2) * u.subs(t, s), (s, 0, t)) / 8
        )
        vs.append(sp.expand(
            u_next + t * (t**2 - 1) * (u / 2 + t * sp.diff(u, t))
        ))
        us.append(u_next)
    return t, us, vs


def _rows(t, polys):
    """Rows C[k][j] with p_k(t) = t**k * sum_j C[k][j] * t**(2 j)."""
    rows = []
    for k, poly in enumerate(polys):
        p = sp.Poly(sp.expand(poly / t**k) if k else poly, t)
        coeffs = {}
        for (power,), coeff in p.terms():
            assert power % 2 == 0, "p_k / t^k must be even in t"
            coeffs[power // 2] = coeff
        rows.append([float(coeffs.get(j, 0)) for j in range(max(coeffs) + 1)])
    return rows


def coefficient_tables(k_max: int = 8):
    """The (u_k rows, v_k rows) pair, as embedded in specfun."""
    t, us, vs = debye_polynomials(k_max)
    return _rows(t, us), _rows(t, vs)


def _print_table(name: str, rows) -> None:
    print(f"{name} = (")
    for row in rows:
        body = ", ".join(repr(c) for c in row)
        print(f"    ({body}{',' if len(row) == 1 else ''}),")
    print(")")


def main() -> None:
    k_max = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    u_rows, v_rows = coefficient_tables(k_max)
    _print_table("_UK", u_rows)
    _print_table("_VK", v_rows)


if __name__ == "__main__":
    main()
