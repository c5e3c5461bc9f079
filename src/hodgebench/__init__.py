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
