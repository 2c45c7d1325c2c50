"""
Propositions, connectives, and the diagrammatic Boolean laws
============================================================

Questions about a classical value are propositions.  Connectives can be
computed two ways: directly on member sets, or by wiring copy dots,
question matrices, and truth-table dots into a diagram.  Both routes
agree, and the wiring route satisfies all eight Boolean law families.
The law checker runs on the same driver as the rewrite-axiom battery of
demo 07: each family reports how many subset assignments it checked, or
its first failing one.
"""

from fractions import Fraction

from ci_engine import substoch
from ci_engine.funcdyn import Fn

carrier = (0, 1, 2)
even = substoch.proposition(carrier, [0, 2])
small = substoch.proposition(carrier, [0, 1])

# subset route and diagrammatic route, side by side
both = substoch.connective("AND", even, small)
both_diag = substoch.connective_diagrammatic("AND", even, small)
print("even AND small members:", both.members())
print("routes agree:", both == both_diag)

# a knowledge state assigns mass to each value; evaluating a
# proposition sums the mass of its members
sigma = substoch.KnowledgeState(
    carrier, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
)
print("P(even) =", substoch.eval_proposition(sigma, even))

# Partial functions pull propositions back.  The pullback preserves
# falsity, disjunction, and conjunction, but the sure question only
# pulls back to the domain of definition.
half = substoch.PartialFn((0, 1, 2), (0, 1), (0, None, 1))
top = substoch.top((0, 1))
print("pullback of the sure question:", substoch.pullback_effect(half, top).members())
print("(the gap at 1 is where the function is undefined)")

# The law checker evaluates every family by wiring alone.
report = substoch.verify_boolean_laws(max_carrier=3)
for line in report.lines():
    print(line)
print("all families hold:", report.ok)

# Corrupting the OR dot is caught immediately.
bool_pairs = tuple((a, b) for a in ("y", "n") for b in ("y", "n"))
bad_or = Fn(bool_pairs, ("y", "n"), ("y", "y", "y", "y"))
broken = substoch.verify_boolean_laws(max_carrier=2, dots={"OR": bad_or})
print("with a corrupted OR dot:", "caught" if not broken.ok else "missed")
