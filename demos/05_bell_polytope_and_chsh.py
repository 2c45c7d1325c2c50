"""
Bell scenarios: the local polytope, CHSH, and quantum violation
===============================================================

Deterministic strategies over a shared latent variable span a polytope
of correlations.  Membership comes with a certificate either way: convex
weights that recombine the table, or a separating facet that every vertex
respects and the table violates.  A table that violates a CHSH inequality
is separated by it, bound 2, with no LP; any other is decided by an exact
LP.
"""

import math
from pathlib import Path

from ci_engine import nogo
from ci_engine.fileformat import load_correlation

DATA = Path(__file__).resolve().parent / "data"

s = nogo.chsh_scenario()
verts = nogo.local_vertices(s)
print("deterministic vertices:", len(verts))
print("CHSH range over them: ",
      min(nogo.chsh_value(v) for v in verts), "to",
      max(nogo.chsh_value(v) for v in verts))

# The PR box hits the algebraic maximum of 4, far outside the polytope.
pr = load_correlation((DATA / "pr_box.correlation").read_text())
print("\nPR box CHSH:", nogo.chsh_value(pr))
verdict = nogo.fs_compatible(pr, s)
print("verdict:", type(verdict).__name__,
      f"(violates a facet by {verdict.violation})")

# The singlet with standard CHSH angles lands at 2*sqrt(2).
rho, meas = nogo.singlet_model()
corr = nogo.quantum_correlations(rho, meas, s)
value = float(nogo.chsh_value(corr))
print("\nsinglet CHSH:", round(value, 9),
      "(2*sqrt(2) =", round(2 * math.sqrt(2), 9), ")")
print("no signalling:", nogo.no_signalling_check(corr))

# Float tables are rationalized before they are decided, so the verdict is exact
# about a nearby rational table, stated in the certificate itself.
q_verdict = nogo.fs_compatible(corr, s)
print("verdict:", type(q_verdict).__name__)
lhs = sum(f * x for f, x in
          zip(q_verdict.facet, q_verdict.correlation.as_vector()))
print("facet check: table pays", float(lhs), "> bound", float(q_verdict.bound))
worst = max(sum(f * x for f, x in zip(q_verdict.facet, v.as_vector()))
            for v in verts)
print("every vertex pays at most the bound:", worst <= q_verdict.bound)

# A mixture of local vertices is certified from the inside instead.
mixture = nogo.tabulate(
    s, lambda o, c: sum(v.value(o, c) for v in verts[:4]) / 4
)
inside = nogo.fs_compatible(mixture, s)
print("\nmixture of four vertices:", type(inside).__name__,
      "with weights summing to", sum(inside.weights))
