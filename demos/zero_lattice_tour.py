"""Tour the zero ladders of an abelian surface.

Each factor polynomial P_j pins its zeros to the vertical line
Re s = j/2, spaced log-q-periodically. This prints the ladder layout
and checks the observed density against 2g-choose-j per period. It then
prints the g angles theta_i = |arg mu_i| / log q of the conjugate pairs
and the Lefschetz weights L_j(t) = sum_{|S|=j} e^{i theta_S t}, which are
real: each T_j integrates alpha L_j along one ladder, and reads only these
g angles. Everything here comes from the Frobenius roots, built from the
exact Riemann hypothesis check on parse; the exact P_j are not needed: the
zeros of P_j sit at the summed root phases of the j-subsets S. Last, it
measures the zero symmetry s -> g - s in floats on the listed zeros with
the test suite's oracle, the float shadow of the functional equation that
parse checks exactly.

Run:  python demos/zero_lattice_tour.py
"""

import math
import sys
from collections import Counter
from pathlib import Path

from weilflow import (
    frobenius_model,
    parse_weil_datum,
    zeros_in_window,
)
from weilflow.exterior import lefschetz_weight

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402


def main():
    surface = parse_weil_datum({
        "q": 5, "g": 2,
        "weil_poly": [1, -6, 18, -30, 25],
        "label": "E(2) x E(4) over F_5",
    })
    model = frobenius_model(surface)

    print("Input:", surface.label)
    print("Frobenius eigenvalues:",
          "  ".join(f"{z:.4f}" for z in model.roots))
    print()

    period = 2 * math.pi / math.log(surface.q)
    print(f"vertical period 2 pi / log q = {period:.6f}")
    print()

    height = 12.0
    for j in range(2 * surface.g + 1):
        zs = zeros_in_window(model, j, height)
        per_subset = Counter(idx for idx, _ in zs)
        # density: binom(2g, j) zeros per period on line Re s = j/2
        expect = math.comb(2 * surface.g, j) * (2 * height) / period
        assert all(z.real == j / 2 for _, z in zs)
        print(f"j={j}: {len(zs):4d} zeros in |Im s| <= {height}  "
              f"(density predicts ~{expect:.0f}), "
              f"{len(per_subset)} sublattices, all on Re s = {j/2}")
        for idx, z in zs[:3]:
            print(f"     sublattice {idx}: s = {z.real:.4f} {z.imag:+.6f}i")
    print()

    angles = [theta / math.log(surface.q) for theta in model.angles]
    print("angles theta_i = |arg mu_i| / log q:",
          "  ".join(f"{theta:.6f}" for theta in angles))
    times = [0.0, 0.5, 1.0, 2.0, 3.0]
    print("t:         " + "".join(f"{t:>10.2f}" for t in times))
    for j in range(2 * surface.g + 1):
        row = lefschetz_weight(angles, j, times)
        print(f"L_{j}(t):    " + "".join(f"{x:>10.5f}" for x in row))
    # the leafwise Lefschetz number prod (2 - 2 cos theta_i t) = sum_j (-1)^j L_j(t)
    lefschetz = [math.prod(2 - 2 * math.cos(theta * t) for theta in angles) for t in times]
    print("Lefschetz: " + "".join(f"{x:>10.5f}" for x in lefschetz))
    print()

    dev = oracles.zero_symmetry_deviation(model, zeros_in_window, height)
    print(f"zero symmetry s -> g - s, largest float deviation across all j: {dev:.3e}")


if __name__ == "__main__":
    main()
