"""Regenerate the frozen expected values used across the test suite.

Every hard-coded constant in these tests was produced by one of the
routines below, running mpmath at 30+ significant digits — independent
of the library under test (different algorithms: mpmath's arbitrary
precision Bessel functions and ``mp.quad`` tanh-sinh quadrature versus
the library's scaled double-precision kernels and Gauss-Kronrod rules).
Re-run manually after any intentional change of conventions:

    python tests/oracles.py            # fast pins (~seconds)
    python tests/oracles.py --contact  # adds near-contact eccentric pins (~1 min)
    python tests/oracles.py --slow     # adds reduced-energy pins (~minutes)

Values marked "regression" in the tests (best-fit exponents, the
numeric eccentric-force ratios) are *not* produced here: they pin the
library's own first validated output to guard against silent drift.
"""

import argparse

import mpmath as mp

mp.mp.dps = 30


# --------------------------------------------------------------------
# scaled Bessel pairs
# --------------------------------------------------------------------

def besseli_prime(n, x):
    """I_n'(x) by the stable recurrence (I_{n-1} + I_{n+1}) / 2."""
    if n == 0:
        return mp.besseli(1, x)
    return (mp.besseli(n - 1, x) + mp.besseli(n + 1, x)) / 2


def besselk_prime(n, x):
    """K_n'(x) = -(K_{n-1} + K_{n+1}) / 2, negative for all n, x > 0.

    mpmath's ``besselk`` silently ignores a ``derivative`` keyword, so
    the recurrence is written out.
    """
    if n == 0:
        return -mp.besselk(1, x)
    return -(mp.besselk(n - 1, x) + mp.besselk(n + 1, x)) / 2


def scaled_pair(n, x):
    """(i, k, i', k') with i = e^-x I_n(x), k = e^x K_n(x)."""
    x = mp.mpf(x)
    em, ep = mp.e**-x, mp.e**x
    return (
        em * mp.besseli(n, x),
        ep * mp.besselk(n, x),
        em * besseli_prime(n, x),
        ep * besselk_prime(n, x),
    )


def log_pair(n, x):
    """(log i, log k, log i', log |k'|) for the same four values."""
    i, k, ip, kp = scaled_pair(n, x)
    return mp.log(i), mp.log(k), mp.log(ip), mp.log(-kp)


def log_dirichlet(n, y, ratio):
    y, ratio = mp.mpf(y), mp.mpf(ratio)
    return mp.log(
        mp.besseli(n, y)
        * mp.besselk(n, ratio * y)
        / (mp.besseli(n, ratio * y) * mp.besselk(n, y))
    )


def log_neumann(n, y, ratio):
    y, ratio = mp.mpf(y), mp.mpf(ratio)
    return mp.log(
        besseli_prime(n, y)
        * besselk_prime(n, ratio * y)
        / (besseli_prime(n, ratio * y) * besselk_prime(n, y))
    )


# --------------------------------------------------------------------
# mode factor and reduced interaction energy
# --------------------------------------------------------------------

def log_mode_factor(n, y, ratio):
    """ln[(1 - dirichlet ratio)(1 - neumann ratio)]."""
    return mp.log(
        (1 - mp.e ** log_dirichlet(n, y, ratio))
        * (1 - mp.e ** log_neumann(n, y, ratio))
    )


def log_mode_factor_dalpha(n, y, ratio):
    """d/d(ratio) of ln M_n by mpmath's numerical differentiation."""
    return mp.diff(lambda r: log_mode_factor(n, y, r), mp.mpf(ratio))


def order_term(n, ratio):
    """T_n = integral_0^inf y ln M_n(y) dy by tanh-sinh quadrature."""
    cut = 1 / (mp.mpf(ratio) - 1)
    return mp.quad(
        lambda y: y * log_mode_factor(n, y, ratio),
        [0, cut, 4 * cut, 16 * cut, 64 * cut, mp.inf],
    )


def reduced_energy(ratio, tol=mp.mpf("1e-18")):
    """Dimensionless interaction energy: (T_0 + 2 sum T_n) / 4 pi."""
    total = order_term(0, ratio)
    n = 0
    while True:
        n += 1
        term = 2 * order_term(n, ratio)
        total += term
        if abs(term) < tol * abs(total) and n >= 3:
            break
    return total / (4 * mp.pi)


def reduced_pressure(ratio, h=mp.mpf("1e-3")):
    """2 e + ratio de/d(ratio), Richardson two-step finite difference."""
    ratio = mp.mpf(ratio)
    d1 = (reduced_energy(ratio + h) - reduced_energy(ratio - h)) / (2 * h)
    d2 = (
        reduced_energy(ratio + h / 2) - reduced_energy(ratio - h / 2)
    ) / h
    deriv = (4 * d2 - d1) / 3
    return 2 * reduced_energy(ratio) + ratio * deriv


# --------------------------------------------------------------------
# eccentric-cylinder integrals (dimensionless theta integrals)
# --------------------------------------------------------------------

def eccentric_integrals(a, b, offset):
    """(energy integrand integral, force integrand integral) over theta.

    Breakpoints close in on the narrowest gap at 3 pi / 2 to within
    (pi / 2) 1e-6 rad, so tanh-sinh resolves the peak the integrands
    grow there as the offset approaches the gap.
    """
    a, b, e = mp.mpf(a), mp.mpf(b), mp.mpf(offset)

    def r(t):
        return mp.sqrt(b * b - (e * mp.cos(t)) ** 2) + e * mp.sin(t)

    def g(t):
        return mp.sqrt(a * b + e * a * mp.sin(t))

    def energy_integrand(t):
        return g(t) / (r(t) - a) ** 3

    def force_integrand(t):
        rr = r(t)
        dr = -e * mp.cos(t) ** 2 / mp.sqrt(b * b - (e * mp.cos(t)) ** 2) \
            + mp.sin(t)
        dg = a * mp.sin(t) / (2 * g(t))
        return dg / (rr - a) ** 3 - 3 * g(t) * dr / (rr - a) ** 4

    narrowest = 3 * mp.pi / 2
    pts = sorted([0, mp.pi / 2, mp.pi, narrowest, 2 * mp.pi]
                 + [narrowest + side * mp.pi / 2 * mp.mpf(10) ** -k
                    for side in (-1, 1) for k in range(1, 7)])
    return (
        mp.quad(energy_integrand, pts),
        mp.quad(force_integrand, pts),
    )


# --------------------------------------------------------------------
# quadrature check integrals
# --------------------------------------------------------------------

def trig_quartic_value(coefficient=mp.mpf("0.05"), base=mp.mpf("0.1")):
    """integral_0^2pi sin t / (base + c sin t)^4 dt, for 0 < c < base.

    Has the closed form -4 pi (f + f^3/4) / (base^4 (1 - f^2)^(7/2))
    with f = c/base; the tanh-sinh evaluation below cross-checks it
    without transcription risk.  Divergent (not integrable) at c = base.
    """
    return mp.quad(
        lambda t: mp.sin(t) / (base + coefficient * mp.sin(t)) ** 4,
        [0, mp.pi / 2, mp.pi, 3 * mp.pi / 2, 2 * mp.pi],
    )


# --------------------------------------------------------------------
# driver
# --------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--contact", action="store_true",
                        help="include the near-contact eccentric pins "
                             "(about a minute)")
    parser.add_argument("--slow", action="store_true",
                        help="include the reduced-energy pins (minutes)")
    args = parser.parse_args()

    def show(label, value):
        print(f"{label} = {mp.nstr(value, 22)}")

    print("# scaled Bessel pairs")
    for n, x in ((0, 1.0), (7, 0.35), (60, 10.0)):
        i, k, ip, kp = scaled_pair(n, x)
        show(f"exp(log_i) at ({n}, {x})", i)
        show(f"exp(log_k) at ({n}, {x})", k)
        show(f"exp(log_iprime) at ({n}, {x})", ip)
        show(f"-exp(log_kprime) at ({n}, {x})", kp)
        li, lk, lip, lkp = log_pair(n, x)
        show(f"pair({n}, {x}).log_i", li)
        show(f"pair({n}, {x}).log_k", lk)
        show(f"pair({n}, {x}).log_iprime", lip)
        show(f"pair({n}, {x}).log_kprime", lkp)

    for label, cases in (
        ("SciPy-regime logs at its highest order",
         ((40, 0.01), (40, 1.0), (40, 300.0))),
        ("SciPy-regime logs at small arguments, orders 28-40",
         ((28, 0.04), (30, 0.022), (34, 0.01), (36, 0.022), (39, 0.016),
          (40, 0.014))),
        ("large-order expansion logs at the extremes of t",
         ((1000, 1.0), (200, 100.0), (41, 1000.0))),
        ("large-order expansion logs at real orders",
         ((mp.mpf("144.5"), 100.0), (mp.mpf("1000.25"), 5.0),
          (mp.mpf("2500.5"), 800.0))),
    ):
        print(f"# {label}")
        for n, x in cases:
            li, lk, lip, lkp = log_pair(n, x)
            show(f"pair({n}, {x}).log_i", li)
            show(f"pair({n}, {x}).log_k", lk)
            show(f"pair({n}, {x}).log_iprime", lip)
            show(f"pair({n}, {x}).log_kprime", lkp)

    print("# reflection log-ratios")
    show("log_dirichlet(0, 1, 2)", log_dirichlet(0, 1, 2))
    show("log_neumann(0, 1, 2)", log_neumann(0, 1, 2))
    show("log_neumann(1, 1, 2)", log_neumann(1, 1, 2))
    show("log_dirichlet(1, 1, 2)", log_dirichlet(1, 1, 2))

    print("# mode factor logs")
    show("log_mode_factor(0, 1, 2)", log_mode_factor(0, 1, 2))
    show("log_mode_factor(3, 2.5, 1.3)", log_mode_factor(3, 2.5, 1.3))

    print("# alpha-derivatives of mode factor logs")
    for n, y, ratio in ((0, "0.5", 2), (1, 3, "1.5"), (40, 20, "1.2"),
                        (41, 20, "1.2"), (200, 150, "1.1")):
        show(f"log_mode_factor_dalpha({n}, {y}, {ratio})",
             log_mode_factor_dalpha(n, mp.mpf(y), mp.mpf(ratio)))

    print("# eccentric theta integrals at a=1, b=1.1, offset=0.05")
    e_int, f_int = eccentric_integrals(1, "1.1", "0.05")
    show("energy integral", e_int)
    show("force integral", f_int)

    if args.contact:
        print("# eccentric theta integrals near contact, computed at 40 "
              "digits, at the float inputs a, b and "
              "offset = fraction * (b - a)")
        with mp.workdps(40):
            for a, b in ((1.0, 1.01), (0.01, 0.0101), (1.0, 1.5)):
                for fraction in (0.5, 0.999, 0.9999, 0.99999, 0.999999):
                    e_int, f_int = eccentric_integrals(
                        a, b, fraction * (b - a))
                    print(f"({a!r}, {b!r}, {fraction!r}): "
                          f"({mp.nstr(e_int, 22)}, {mp.nstr(f_int, 22)}),")

    print("# quadrature reference integral")
    show("trig quartic (c=0.05)", trig_quartic_value())

    print("# order-0 term at ratio 2")
    show("T_0(2)", order_term(0, 2))

    if args.slow:
        print("# reduced interaction energies (slow)")
        for ratio in ("1.5", "2", "4", "50"):
            show(f"e({ratio})", reduced_energy(mp.mpf(ratio)))
        print("# reduced pressures (very slow)")
        show("p(2)", reduced_pressure(2))
        show("p(4)", reduced_pressure(4))


if __name__ == "__main__":
    main()
