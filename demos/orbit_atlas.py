"""Point counts, closed points, primitive orbits, fixed-point groups.

The same integers show up four ways and the demo prints the crosswalk:
N_n as det(F^n - I), the closed points a_d from the divisor-sum identity,
the primitive orbit counts b_nu of the Frobenius action (a primitive orbit
of length nu log q is a closed point of degree nu, so b_nu = a_nu and the
table's closed points are the orbit counts), and the Smith normal form of
the group of F^n-fixed points.

Run:  python demos/orbit_atlas.py
"""

import math

from weilflow import (
    build_count_table,
    fixed_point_groups,
    frobenius_model,
    parse_weil_datum,
)

INPUTS = [
    {"q": 5, "trace": 2, "label": "E/F5, a=2"},
    {"q": 7, "trace": 3, "label": "E/F7, a=3"},
    {"q": 5, "g": 2, "weil_poly": [1, -6, 18, -30, 25], "label": "surface/F5"},
]

N_MAX = 8


def main():
    for doc in INPUTS:
        w = parse_weil_datum(doc)
        model = frobenius_model(w)
        ct = build_count_table(model, N_MAX)
        groups = fixed_point_groups(model, N_MAX)

        print(f"=== {w.label}   (q={w.q}, g={w.g})")
        print(f"{'n':>3} {'N_n':>12} {'a_n':>12} {'b_n':>12}   fixed group")
        for n in range(1, N_MAX + 1):
            n_n, a_n = ct.counts[n - 1], ct.closed_points[n - 1]
            b_n = a_n  # b_nu = a_nu
            divisors = groups[n - 1]
            shape = " x ".join(f"Z/{d}" for d in divisors if d > 1)
            print(f"{n:>3} {n_n:>12} {a_n:>12} {b_n:>12}   {shape}")
            assert math.prod(divisors) == n_n

        # every degree-n point lies on exactly one primitive orbit, so the
        # weighted orbit counts reassemble the fixed-point totals
        n = N_MAX
        total = sum(d * ct.closed_points[d - 1]
                    for d in range(1, n + 1) if n % d == 0)
        print(f"sum of d*a_d over d | {n}: {total} = N_{n}")
        print(f"orbit lengths are d*log q: first few "
              f"{[round(d * math.log(w.q), 4) for d in range(1, 5)]}")
        print()


if __name__ == "__main__":
    main()
