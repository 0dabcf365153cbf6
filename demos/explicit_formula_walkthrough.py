"""Walk one elliptic curve through the full three-way verification.

Run:  python demos/explicit_formula_walkthrough.py
"""

import math

from weilflow import BumpFunction, parse_weil_datum, verify

LOGQ = math.log(5)


def show(rep, label):
    print(f"--- {label}")
    for t in rep.spectral.per_j:
        print(f"  T_{t.j} = {t.value:+.12f}   "
              f"(nu_max {t.nu_max}, {t.zero_count} zeros, "
              f"tail <= {t.tail_bound:.2e})")
    print(f"  alternating zero sum  = {rep.spectral.alternating_full:+.12f}")
    print(f"  closed form           = {rep.spectral.closed_form:+.12f}")
    print(f"  orbit sum             = {rep.geometric.total:+.12f}")
    for cell in rep.geometric.cells:
        print(f"    cell k={cell.k:+d} d={cell.d}: {cell.points} points of "
              f"degree {cell.d}, contributes {cell.contribution:+.6f}")
    worst = max(rep.residuals.values())
    print(f"  worst residual {worst:.3e} vs allowance {rep.allowance:.3e} "
          f"-> {'PASS' if rep.passed else 'FAIL'}")
    print()


def main():
    # y^2 = x^3 + ... over F_5 with 4 points: trace of Frobenius is 2
    curve = parse_weil_datum({"q": 5, "trace": 2, "label": "E/F5, a=2"})

    print("Curve:", curve.label, "   P_1(X) = 1 - 2X + 5X^2")
    print()

    # A window around log 5 sees exactly the degree-1 points.
    show(verify(curve, BumpFunction(center=LOGQ, width=0.5)),
         "bump at log 5: N_1 = 4 rational points")

    # Shift to 2 log 5 and the degree-2 orbits enter alongside k=2.
    show(verify(curve, BumpFunction(center=2 * LOGQ, width=0.4)),
         "bump at 2 log 5: N_2 = 32 = 4 + 2*14")

    # The negative axis carries the same counts with q^{gk} damping.
    show(verify(curve, BumpFunction(center=-LOGQ, width=0.5)),
         "bump at -log 5: weight 4/5")

    # Between the ladder rungs everything cancels: the traces are
    # individually large but the alternating sum collapses.
    rep = verify(curve, BumpFunction(center=0.3, width=0.9))
    show(rep, "bump clear of every k log 5: exact cancellation")
    biggest = max(abs(t.value) for t in rep.spectral.per_j)
    print(f"largest single trace in the cancellation run: {biggest:.6f}")
    print(f"their alternating sum: {abs(rep.spectral.alternating_full):.3e}")


if __name__ == "__main__":
    main()
