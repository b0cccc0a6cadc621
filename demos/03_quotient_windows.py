"""Windowed level-N quotients and certified ideal membership.

The ideal O_N(V) has non-homogeneous generators with unbounded top weight,
so it can only ever be enumerated inside a finite weight window.  That
makes membership one-sided: Certified answers come with an explicit
rational combination of generators (re-multiplied as a self check);
anything else is Inconclusive and retried at a larger window.
"""

from voazhu.instances import heisenberg_voa, virasoro_voa
from voazhu.serialize import vector_to_pairs
from voazhu.zhu import certify_membership, star_product, zhu_context

V = heisenberg_voa()
alpha, omega, one = V.alpha(), V.omega(), V.one()

ctx = zhu_context(V, 0, 6)
print("Heisenberg, N=0, window depth 6:")
print("  window dims       ", ctx.subspace.dims_by_depth())
print("  quotient bounds   ", ctx.quotient_dims())
print("  ideal generators  ", len(ctx.subspace.gens), "-> rank", ctx.subspace.rank)

x = star_product(V, omega, alpha, 0) - star_product(V, alpha, omega, 0)
cert = ctx.membership(x)
print("\ncentrality defect omega*alpha - alpha*omega:")
print("  status:", cert.status, "| witness over generators:",
      {ctx.labels[i]: str(c) for i, c in cert.witness.items()})

print("\nthe vacuum class never certifies (it is the unit of the quotient):")
for depth in (4, 6, 8):
    print(f"  D={depth}:", zhu_context(V, 0, depth).membership(one).status)

Vc = virasoro_voa("1/2")
assoc = (star_product(Vc, star_product(Vc, Vc.omega(), Vc.omega(), 1), Vc.omega(), 1)
         - star_product(Vc, Vc.omega(), star_product(Vc, Vc.omega(), Vc.omega(), 1), 1))
cert = certify_membership(Vc, 1, assoc, depth=max(10, assoc.max_depth()))
print("\nVirasoro c=1/2, N=1 associativity defect for omega:",
      cert.status, f"(witness size {cert.witness_size()}, window {cert.window_depth})")
print("  defect top terms:", vector_to_pairs(assoc)[:3], "...")
