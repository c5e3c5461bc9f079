"""hodgebench: executable boundary Hodge theory for complex pre-Lie algebroids.

Modules by task:

* scalars, calculus  -- exact symbolic chart calculus (rational functions
  with Gaussian-rational coefficients, Wirtinger fields, Courant bracket);
* algebroids         -- pre-Lie algebroid constructors, the Chevalley-
  Eilenberg differential and d^2 residual probes;
* levi               -- boundary-point classification, three Levi-form
  routes, eigen-signatures and q-convexity verdicts;
* sobolev            -- fractional Sobolev multipliers, kernel-lemma checks
  and Leibniz inequality batteries;
* neumann            -- the discrete dbar-Neumann problem on an annulus;
* specfile, gallery, cli -- the batch front-end.
"""

__version__ = "0.1.0"

from .scalars import Chart, ScalarExpr, parse_expr
from .calculus import (
    FormExpr,
    GeneralizedSection,
    VectorFieldExpr,
    courant_bracket,
    exterior_derivative,
    interior,
    lie_bracket,
    lie_derivative,
    wirtinger,
)
from .algebroids import (
    AlgebroidForm,
    AlgebroidSpec,
    ce_differential,
    d_squared_residual,
    is_elliptic_at,
    make_antiholomorphic,
    make_graph_bivector,
    make_graph_two_form,
    make_holomorphic_poisson,
    make_tangent,
)
from .levi import (
    BoundaryData,
    LeviReport,
    classify_point,
    eigen_signature,
    gc_ellipticity_via_bivector,
    levi_form_complex_hessian,
    levi_form_generic,
    levi_form_poisson,
    q_convex_set,
    sphere_lattice,
)
from .sobolev import (
    HalfGrid,
    TorusGrid,
    kernel_lemma_check,
    lambda_full,
    lambda_tangential,
    leibniz_battery,
)
from .neumann import (
    AnnulusGrid,
    DiscreteForm,
    NeumannProblem,
    basic_estimate_report,
    family_continuity,
    hodge_split,
    solve_dbar,
)
