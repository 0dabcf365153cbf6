"""Test functions and their transforms, with certified tails.

Shows what the spectral side actually consumes: a smooth compactly
supported bump alpha, its transform Phi evaluated up a vertical line,
and the contour-bound envelope that makes truncation certifiable.

Run:  python demos/bump_playground.py
"""

import math

from weilflow import BumpFunction, combine_bumps, phi, tail_majorant


def main():
    b = BumpFunction(center=0.0, width=1.0)
    # alpha >= 0, so its mass, the integral of |alpha|, is Phi(0): the floor
    # against which phi's panel doubling converges at sigma = 0
    print(f"standard bump: support {b.support}, mass Phi(0) = {phi(b, 0.0).value.real:.6f}")
    print(f"alpha(0)   = {b.values([0.0])[0]:.6f}   (e^-1 = {math.exp(-1):.6f})")
    print(f"alpha(0.5) = {b.values([0.5])[0]:.6f}")
    print()

    print("transform up the critical line sigma = 1/2:")
    for tau in (0.0, 1.0, 3.0, 10.0, 30.0):
        r = phi(b, 0.5 + 1j * tau)
        print(f"  Phi(0.5 + {tau:4.1f}i) = {r.value.real:+.8f} "
              f"{r.value.imag:+.8f}i   ({r.panels} panels, "
              f"quad err <= {r.error:.1e})")
    print()

    # the envelope that certifies truncation: |Phi(sigma+i tau)| <= B(tau),
    # a closed form from a steepest-descent contour
    maj = tail_majorant(b, 0.5)
    print("contour bound B on sigma = 1/2:")
    for tau in (5.0, 20.0, 80.0, 320.0):
        actual = abs(phi(b, 0.5 + 1j * tau).value)
        print(f"  tau = {tau:5.1f}: |Phi| = {actual:.3e} <= B = {maj.bound(tau):.3e}")
    print()

    # translation shows up as an exponential factor in the transform
    shifted = BumpFunction(center=2.0, width=1.0)
    s = 0.3 + 2.0j
    lhs = phi(shifted, s).value
    rhs = phi(b, s).value * complex(math.e) ** (2.0 * s)
    print(f"translation by 2 at s = {s}: "
          f"|Phi_shifted - e^(2s) Phi| = {abs(lhs - rhs):.2e}")

    # sums of bumps: the machinery is linear in the test function
    two = combine_bumps([BumpFunction(center=-1.0, width=0.5),
                         BumpFunction(center=1.5, width=0.4, amplitude=2.0)])
    print(f"two-bump sum: support {two.support}")
    lhs = phi(two, s).value
    rhs = (phi(BumpFunction(center=-1.0, width=0.5), s).value
           + phi(BumpFunction(center=1.5, width=0.4, amplitude=2.0), s).value)
    print(f"linearity check at s = {s}: {abs(lhs - rhs):.2e}")


if __name__ == "__main__":
    main()
