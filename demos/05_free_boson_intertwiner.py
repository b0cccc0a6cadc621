"""The free-boson intertwining operator and its induced quotient map.

The operator of type (F_{lam+mu}; F_lam, F_mu) is the normal-ordered
exponential of the current.  Its modes are computed lazily and exactly;
the induced map picks the bottom N+1 diagonal mode families and lands in
the bottom slice of the target.  The script ends at the one place where
the exact computation contradicts the stated ideal-vanishing claim - the
package's headline finding (see tests/test_discrepancy.py).
"""

from voazhu.instances import heisenberg_voa
from voazhu.intertwiner import FockIntertwiner, check_hom_properties, induced_hom
from voazhu.zhu import lp_element, o_action
from voazhu.bimodule import circ_w, right_star

V = heisenberg_voa()
it = FockIntertwiner(V, 1, 2)
F1, F2, F3 = it.w1_module, it.w2_module, it.w3_module

print("type (F_3; F_1, F_2), exponents live in -2 + Z")
lead = it.leading_index(F1.lw(), F2.lw())
print("  leading mode index:", lead)
print("  Y_lead(|1>)|2> =", it.mode(F1.lw(), lead, 0, F2.lw()))
print("  one step deeper:", it.mode(F1.lw(), lead - 1, 0, F2.lw()))

print("\ninduced map at N=0 and N=1:")
for N in (0, 1):
    out = induced_hom(it, N, F1.monomial([("a", -1)]), F2.lw())
    print(f"  N={N}: rho(a(-1)|1> (x) |2>) =", out)

print("\nhomomorphism equalities (exact):")
u, w1 = V.alpha(), F1.monomial([("a", -1)])
res = check_hom_properties(it, 0, u, w1, F2.lw())
raw = (induced_hom(it, 0, right_star(F1, w1, u, 0), F2.lw())
       == induced_hom(it, 0, w1, o_action(F2, u, F2.lw())))
print("  left (plain action):      ", res["left"])
print("  right (alternative form): ", res["right"])
print("  right (raw Y_WV form):    ", raw, " <- the documented defect")

print("\nvanishing on the two ideal families:")
gen_circ = circ_w(F1, V.alpha(), F1.monomial([("a", -1)]), 0)
gen_lp = lp_element(F1, F1.monomial([("a", -1)]))
print("  residue family:      rho(u o_0 w (x) |2>) =",
      induced_hom(it, 0, gen_circ, F2.lw()))
print("  lowest-weight family: rho((L(-1)+L(0))w (x) |2>) =",
      induced_hom(it, 0, gen_lp, F2.lw()), " <- nonzero, the counterexample")
