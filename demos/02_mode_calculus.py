"""Mode actions on the rank-1 Heisenberg and Virasoro instances.

Modules are presented by how the generating field acts on canonical
monomials; every composite vertex-operator mode is then derived through
the iterate formula.  The commutator formula is a theorem of that setup,
and here we watch it hold - central term included.
"""

from voazhu import commutator_check
from voazhu.instances import fock, heisenberg_voa, verma, virasoro_voa

V = heisenberg_voa()
alpha, omega = V.alpha(), V.omega()

print("Heisenberg: omega = alpha(-1)^2/2 acts as the Virasoro field")
w = V.monomial([("a", -3), ("a", -1)])
print("  L(0) on a(-3)a(-1)|0> :", V.mode_action(omega, 1, w))
print("  L(-1) on alpha        :", V.mode_action(omega, 0, alpha))

F = fock("1/2")
print("\nFock module F_{1/2}: lowest weight", F.lowest_weight)
print("  L(0)|1/2> =", F.mode_action(omega, 1, F.lw()))

Vc = virasoro_voa("1/2")
om = Vc.omega()
print("\nVirasoro c=1/2: the central term in [L(2), L(-2)]")
lhs = (Vc.mode_action(om, 3, Vc.mode_action(om, -1, Vc.one()))
       - Vc.mode_action(om, -1, Vc.mode_action(om, 3, Vc.one())))
print("  [L(2), L(-2)] 1 =", lhs, " (c/2 = 1/4)")

M = verma("1/2", "1/16")
print("\nVerma module M(1/2, 1/16):")
print("  L(1) L(-1) |h> =", M.mode_action(om, 2, M.mode_action(om, 0, M.lw())),
      " (2h = 1/8)")

print("\ncommutator formula spot checks (exact, composite elements):")
u = V.monomial([("a", -2), ("a", -1)])
for (module, a, b) in ((F, alpha, u), (M, om, Vc.monomial([("L", -2), ("L", -2)]))):
    ok = commutator_check(module, a, 2, b, -1, module.mode_action(module.algebra.omega(), 0, module.lw()))
    print(f"  {module.module_id}: {ok}")
