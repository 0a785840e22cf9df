"""Worked example: vacuum-force frequency shift of a suspended cylinder.

An inner cylinder of radius 10 mm hangs inside an outer shell of radius
10.001 mm (a 1-micron vacuum gap) over a length of 5 cm.  The inner
cylinder, of mass 10 g, oscillates transversally at 100 Hz.  The script
evaluates the vacuum force over a range of axis offsets, compares the
numerical quadrature against the closed-form expression, and reports
the fractional shift of the oscillation frequency.

    python scripts/resonator_example.py
"""

from coaxcasimir import (
    ConcentricGeometry,
    EccentricGeometry,
    ResonatorParams,
    eccentric_force_closed_form,
    eccentric_force_numeric,
    frequency_shift,
)

INNER_RADIUS = 0.01  # m
OUTER_RADIUS = 0.010001  # m
LENGTH = 0.05  # m
MASS = 0.01  # kg
FREQUENCY_HZ = 100.0


def main() -> None:
    import math

    base = ConcentricGeometry(INNER_RADIUS, OUTER_RADIUS, LENGTH)
    gap = OUTER_RADIUS - INNER_RADIUS
    params = ResonatorParams(MASS, 2.0 * math.pi * FREQUENCY_HZ)

    print(f"gap = {gap * 1e6:.3f} um, length = {LENGTH * 100:.1f} cm")
    print(f"{'offset/gap':>10}  {'F_numeric [N]':>22}  {'F_closed [N]':>22}  {'rel diff':>10}")
    for fraction in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        geometry = EccentricGeometry(base, fraction * gap)
        f_num = eccentric_force_numeric(geometry).value
        f_closed = eccentric_force_closed_form(geometry)
        if f_closed == 0.0:
            rel = abs(f_num - f_closed)
        else:
            rel = abs(f_num - f_closed) / abs(f_closed)
        print(f"{fraction:>10.2f}  {f_num:>22.15e}  {f_closed:>22.15e}  {rel:>10.2e}")

    shift = frequency_shift(EccentricGeometry(base), params)
    print(f"\nfractional frequency shift d(omega)/omega0 = {shift:.12e}")
    print(f"absolute shift = {shift * FREQUENCY_HZ:.6f} Hz on a {FREQUENCY_HZ:.0f} Hz mode")


if __name__ == "__main__":
    main()
