"""Tour the zero ladders of an abelian surface.

Each factor polynomial P_j pins its zeros to the vertical line
Re s = j/2, spaced log-q-periodically. This prints the ladder layout
and checks the observed density against 2g-choose-j per period. It then
groups each j's sublattices into classes: a pair {mu, conj(mu)} inside a
subset contributes exactly q, conjugate classes mirror each other, and
the fully paired subsets form the real class at s = j/2. Everything here
comes from the polished Frobenius roots; the exact P_j are not needed.

Run:  python demos/zero_lattice_tour.py
"""

import math
from collections import Counter

from weilflow import (
    frobenius_model,
    functional_equation_check,
    parse_weil_datum,
    zero_lattice,
    zeros_in_window,
)
from weilflow.exterior import subsets


def main():
    surface = parse_weil_datum({
        "q": 5, "g": 2,
        "weil_poly": [1, -6, 18, -30, 25],
        "label": "E(2) x E(4) over F_5",
    })
    model = frobenius_model(surface)
    lat = zero_lattice(model)

    print("Input:", surface.label)
    print("Frobenius eigenvalues:",
          "  ".join(f"{z:.4f}" for z in model.roots))
    print()

    period = 2 * math.pi / math.log(surface.q)
    print(f"vertical period 2 pi / log q = {period:.6f}")
    print()

    height = 12.0
    for j in range(2 * surface.g + 1):
        zs = zeros_in_window(lat, j, height)
        per_subset = Counter(idx for idx, _ in zs)
        # density: binom(2g, j) zeros per period on line Re s = j/2
        expect = math.comb(2 * surface.g, j) * (2 * height) / period
        drift = max(abs(z.real - j / 2) for _, z in zs)
        print(f"j={j}: {len(zs):4d} zeros in |Im s| <= {height}  "
              f"(density predicts ~{expect:.0f}), "
              f"{len(per_subset)} sublattices, "
              f"max drift off Re = {j/2}: {drift:.1e}")
        for idx, z in zs[:3]:
            print(f"     sublattice {idx}: s = {z.real:.4f} {z.imag:+.6f}i")
    print()

    n = 2 * surface.g
    for j, classes in enumerate(lat.classes):
        pairs = [(i, c.partner) for i, c in enumerate(classes) if i < c.partner]
        real = [c for c in classes if c.real]
        print(f"j={j}: {len(lat.exps[j])} sublattices in {len(classes)} classes, "
              f"{len(pairs)} conjugate pairs, "
              f"{'a real class' if real else 'no real class'}: "
              f"{len(classes)} half-ladder rows in one call")
        for i, c in enumerate(classes):
            members = " ".join(str(subsets(n, j)[k]) for k in c.members)
            role = "real" if c.real else f"conjugate of class {c.partner}"
            print(f"     class {i} ({role}): s = {c.exponent.real:.4f} "
                  f"{c.exponent.imag:+.6f}i  subsets {members}")
    print()

    dev = functional_equation_check(lat)  # raises when violated
    print(f"functional equation deviation across all j: {dev:.3e} (ok)")


if __name__ == "__main__":
    main()
