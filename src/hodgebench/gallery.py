"""Built-in spec gallery: every worked example is one command away.

Names resolve through the CLI's --spec flag before file paths are tried.
Specs are stored as spec-file text so the gallery also exercises the
parser; gallery_spec parses an entry, and its SpecFile builds the algebroid,
boundary and sample.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .specfile import SpecFile, parse_specfile

__all__ = ["GALLERY", "gallery_spec", "gallery_names"]


def _ball_r(dim: int) -> str:
    return " + ".join(f"x{i + 1}^2" for i in range(dim)) + " - 1"


GALLERY: Dict[str, str] = {
    "tangent_sphere": f"""
[chart]
dim = 3

[boundary]
r = "{_ball_r(3)}"
sampler = sphere
samples = 1000

[algebroid]
kind = tangent
""",
    "ball_c2_dbar": f"""
[chart]
dim = 4
complex = true

[boundary]
r = "{_ball_r(4)}"
sampler = sphere
samples = 1000

[algebroid]
kind = antiholomorphic
n = 2
""",
    "ball_c3_dbar": f"""
[chart]
dim = 6
complex = true

[boundary]
r = "{_ball_r(6)}"
sampler = sphere
samples = 1000

[algebroid]
kind = antiholomorphic
n = 3
""",
    "annulus_c3_dbar": f"""
[chart]
dim = 6
complex = true

[boundary]
r = "({_ball_r(6)})*({' + '.join(f'x{i + 1}^2' for i in range(6))} - 0.25)"
sampler = two_spheres
samples = 1000
inner_radius = 0.5

[algebroid]
kind = antiholomorphic
n = 3
""",
    "poisson_c4": f"""
[chart]
dim = 8
complex = true

[boundary]
r = "{_ball_r(8)}"
sampler = sphere_plus_locus
samples = 1000
locus_samples = 20

[algebroid]
kind = holomorphic_poisson
n = 4
sigma_1_2 = "z1"
sigma_3_4 = "1"
""",
    "poisson_c6": f"""
[chart]
dim = 12
complex = true

[boundary]
r = "{_ball_r(12)}"
sampler = sphere_plus_locus
samples = 1000
locus_samples = 20

[algebroid]
kind = holomorphic_poisson
n = 6
sigma_1_2 = "z1"
sigma_3_4 = "1"
sigma_5_6 = "1"
""",
    "symplectic_gc": f"""
[chart]
dim = 2

[boundary]
r = "{_ball_r(2)}"
sampler = sphere
samples = 1000

[algebroid]
kind = graph_two_form
omega_1_2 = "i"
""",
    "graph_bivector_demo": f"""
[chart]
dim = 3

[boundary]
r = "{_ball_r(3)}"
sampler = sphere
samples = 200

[algebroid]
kind = graph_bivector
pi_1_2 = "x2"
pi_2_3 = "x1"
""",
}


def gallery_names() -> Tuple[str, ...]:
    return tuple(sorted(GALLERY))


def gallery_spec(name: str) -> SpecFile:
    if name not in GALLERY:
        raise KeyError(f"no gallery spec named {name!r}")
    return parse_specfile(GALLERY[name])
