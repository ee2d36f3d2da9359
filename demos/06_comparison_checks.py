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
    GeodesicBall, ModelSpace, RobinProblem, ScalarField,
    check_bossel_daners, check_isoperimetric, check_lemma_31,
    check_lemma_32, check_min_comparison, check_saint_venant,
    check_theorem_main1, check_theorem_main2, decreasing_rearrangement,
    distribution_function, generate_domain, radius_for_volume,
    reports_to_csv, solve_record, solve_robin_poisson,
    solve_symmetrized_poisson,
)

flat = ModelSpace(kappa=0, n=2)
mesh = generate_domain("square", target_h=0.06, side=1.0)

# a nonradial source, its solution, and the symmetrized twin problem
xy = mesh.vertices
source = ScalarField(mesh=mesh, values=1.0 + 2.0 * np.exp(
    -8.0 * ((xy[:, 0] - 0.6)**2 + (xy[:, 1] - 0.35)**2)))
problem = RobinProblem(mesh=mesh, beta=1.0, source=source)
u = solve_robin_poisson(problem)

# the twin's source is the Schwarz rearrangement f# of the source; the
# solver takes its decreasing rearrangement f*, whose running integral is
# the exact flux of the twin through each sphere
ball = GeodesicBall(flat, radius_for_volume(flat, mesh.total_measure()))
f_star = decreasing_rearrangement(distribution_function(source))
v = solve_symmetrized_poisson(ball, 1.0, f_star)

reports = [
    check_isoperimetric(mesh, flat),
    check_theorem_main1(u, v, flat, p=1.0, q=1),
    check_theorem_main1(u, v, flat, p=0.5, q=2),
    check_min_comparison(u, v),
    check_lemma_32(u, problem, float(u.values.max())),
]
# the level-set inequality at a few interior thresholds
umin, umax = float(u.values.min()), float(u.values.max())
reports += check_lemma_31(u, problem, flat,
                          umin + np.linspace(0.25, 0.75, 3) * (umax - umin))

# torsion-specific checks run on the constant-source problem; its solve
# record factors the Robin matrix once for the solution and the eigenpair
torsion = solve_record(RobinProblem(mesh=mesh, beta=1.0), flat, eigen=True)
reports += [
    check_theorem_main2(torsion.u, torsion.v, flat, pointwise=True),
    check_saint_venant(torsion),
    check_bossel_daners(torsion),
]

for rep in reports:
    flag = "skip" if rep.skipped else ("pass" if rep.passed else "FAIL")
    print(f"{rep.check_id:25s} {flag}  lhs {rep.lhs:12.6f}  "
          f"rhs {rep.rhs:12.6f}  gap {rep.gap:+.2e}")

reports_to_csv(reports, "comparison_reports.csv")
print("\nwrote comparison_reports.csv")
