"""Reproduce the exact-vs-approximation comparison for coaxial cylinders.

Sweeps the radius ratio, computing the exact interaction energy and
inner-surface pressure alongside the proximity-force and semiclassical
estimates, then fits the area-interpolation exponent that best matches
the exact data.  Writes two CSV files and prints a short summary.

    python scripts/reproduce_comparison.py [--out-dir DIR] [--steps N]
"""

import argparse
import csv
import math
import pathlib

from coaxcasimir import (
    DEFAULT_NUMERICS,
    fit_p,
    interaction_energy,
    pressure_inner,
    proximity_energy,
    proximity_pressure,
)


def sweep_rows(alphas, numerics):
    rows = []
    for alpha in alphas:
        pressure = pressure_inner(alpha, numerics)
        energy = pressure.energy_result
        prox_e = proximity_energy(alpha, 0.5)
        prox_p = proximity_pressure(alpha, 0.5)
        disc = abs(pressure.value - prox_p) / abs(pressure.value)
        rows.append(
            {
                "alpha": alpha,
                "interaction_energy": energy.value,
                "pressure": pressure.value,
                "proximity_energy_p0.5": prox_e,
                "proximity_pressure_p0.5": prox_p,
                "pressure_discrepancy": disc,
            }
        )
        print(
            f"  alpha={alpha:.6g}  e={energy.value:.9g}  "
            f"p={pressure.value:.9g}  disc={disc:.4f}"
        )
    return rows


def write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    print(f"wrote {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results", help="output directory")
    parser.add_argument("--steps", type=int, default=30, help="sweep grid size")
    parser.add_argument("--alpha-min", type=float, default=1.1)
    parser.add_argument("--alpha-max", type=float, default=4.0)
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    numerics = DEFAULT_NUMERICS

    step = (args.alpha_max - args.alpha_min) / (args.steps - 1)
    alphas = [args.alpha_min + i * step for i in range(args.steps)]

    print("sweeping radius ratios ...")
    rows = sweep_rows(alphas, numerics)
    write_csv(out / "comparison_sweep.csv", rows)

    worst = max(rows, key=lambda r: r["pressure_discrepancy"])
    print(
        f"largest pressure discrepancy {worst['pressure_discrepancy']:.4f} "
        f"at alpha={worst['alpha']:.6g}"
    )

    fit_alphas = [1.5, 2.0, 2.5, 3.0]
    exact_e = [interaction_energy(a, numerics).value for a in fit_alphas]
    exact_p = [pressure_inner(a, numerics).value for a in fit_alphas]
    fit_e = fit_p(fit_alphas, exact_e, mode="energy")
    fit_pr = fit_p(fit_alphas, exact_p, mode="pressure")
    print(f"best area exponent (energy fit):   {fit_e.best_exponent:.6f}")
    print(f"best area exponent (pressure fit): {fit_pr.best_exponent:.6f}")

    fit_rows = [
        {
            "mode": "energy",
            "best_exponent": fit_e.best_exponent,
            "objective": fit_e.objective,
            "flat": fit_e.flat,
        },
        {
            "mode": "pressure",
            "best_exponent": fit_pr.best_exponent,
            "objective": fit_pr.objective,
            "flat": fit_pr.flat,
        },
    ]
    write_csv(out / "exponent_fit.csv", fit_rows)

    alpha_near = 1.01
    e_near = interaction_energy(alpha_near, numerics).value
    ratio = e_near / proximity_energy(alpha_near, 0.5)
    print(f"near-contact check: exact/proximity at alpha={alpha_near} is {ratio:.6f}")
    gap_exponent = 1.0 - math.log(
        e_near / (-math.pi**3 / 360.0 / (alpha_near - 1.0) ** 3)
    ) / math.log(alpha_near)
    print(f"locally best exponent at alpha={alpha_near}: {gap_exponent:.4f}")


if __name__ == "__main__":
    main()
