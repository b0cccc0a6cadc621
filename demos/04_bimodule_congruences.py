"""The two-sided quotient of a Fock module and its certified congruences.

A module W gets a left action (plain vertex-operator residues) and a right
action (through the module-to-algebra operator); both descend to
A_N(W) = W / O_N(W).  Every congruence in that story is certified here by
exact membership witnesses, including the agreement of the two right
actions and the commutator-defect congruence.
"""

from voazhu.bimodule import (AXIOM_IDS, check_axiom, commutator_defect,
                             left_star, right_star, right_star_alt)
from voazhu.instances import fock, heisenberg_voa

V = heisenberg_voa()
F = fock(1)
alpha = V.alpha()
lw = F.lw()

print("left and right actions of alpha on |1>, N=0:")
print("  alpha *_0 |1> =", left_star(F, alpha, lw, 0))
print("  |1> *_0 alpha =", right_star(F, lw, alpha, 0))
print("  |1> *_0' alpha =", right_star_alt(F, lw, alpha, 0))

print("\nthe two right actions differ as vectors but agree mod O_0(W):")
print("  difference =", right_star(F, lw, alpha, 0) - right_star_alt(F, lw, alpha, 0))

print("\ncommutator defect u*w - w*u - Res (1+x)^(L0-1) Y(u,x)w:")
print("  =", commutator_defect(F, alpha, lw, 0))

print("\nfull congruence battery on (alpha, alpha, |1>), N=0:")
for axiom_id in AXIOM_IDS:
    cert, _ = check_axiom(F, axiom_id, alpha, alpha, lw, 0)
    print(f"  {axiom_id:18s} {cert.status:10s} "
          f"window={cert.window_depth} witness={cert.witness_size()}")
