"""
Comparison checks end to end
============================

The verification layer takes a solved Robin problem and its symmetrized
twin and checks the comparison statements: Lorentz-norm domination of the
rearranged solution, the pointwise bound for torsion, torsional rigidity,
the eigenvalue comparison, and the level-set machinery behind them.  Every
check returns a ComparisonReport with both sides, the gap, and the
h-dependent tolerance it was judged at.
"""

import numpy as np

from robinsym import (
    ModelSpace, RobinProblem, ScalarField,
    check_bossel_daners, check_isoperimetric, check_lemma_31,
    check_lemma_32, check_min_comparison, check_saint_venant,
    check_theorem_main1, check_theorem_main2, generate_domain,
    reports_to_csv, solve_record,
)

flat = ModelSpace(kappa=0, n=2)
mesh = generate_domain("square", target_h=0.06, side=1.0)

# a nonradial source and its solve record: the solution u, its distribution,
# and the symmetrized twin v on the ball of equal measure.  The twin's source
# is the Schwarz rearrangement f# of the source; the record keeps its
# decreasing rearrangement f*, whose running integral is the exact flux of
# the twin through each sphere
xy = mesh.vertices
source = ScalarField(mesh=mesh, values=1.0 + 2.0 * np.exp(
    -8.0 * ((xy[:, 0] - 0.6)**2 + (xy[:, 1] - 0.35)**2)))
rec = solve_record(RobinProblem(mesh=mesh, beta=1.0, source=source), flat)
u = rec.u

reports = [
    check_isoperimetric(mesh, flat),
    check_theorem_main1(rec, 1.0, 1),
    check_theorem_main1(rec, 0.5, 2),
    check_min_comparison(rec),
    check_lemma_32(rec, float(u.values.max())),
]
# the level-set inequality at a few interior thresholds
umin, umax = float(u.values.min()), float(u.values.max())
reports += check_lemma_31(rec, umin + np.linspace(0.25, 0.75, 3) * (umax - umin))

# torsion-specific checks run on the constant-source problem; its solve
# record factors the Robin matrix once for the solution and the eigenpair
torsion = solve_record(RobinProblem(mesh=mesh, beta=1.0), flat, eigen=True)
reports += [
    check_theorem_main2(torsion, pointwise=True),
    check_saint_venant(torsion),
    check_bossel_daners(torsion),
]

for rep in reports:
    flag = "skip" if rep.skipped else ("pass" if rep.passed else "FAIL")
    print(f"{rep.check_id:25s} {flag}  lhs {rep.lhs:12.6f}  "
          f"rhs {rep.rhs:12.6f}  gap {rep.gap:+.2e}")

reports_to_csv(reports, "comparison_reports.csv")
print("\nwrote comparison_reports.csv")
