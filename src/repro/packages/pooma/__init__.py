"""Mini-POOMA: a high-performance distributed simulation environment
(after [ABC+95]), reduced to what the paper's §4.3 experiments exercise —
2-D fields block-decomposed by rows with ghost-cell exchange, stencil
updates, and a PARDIS container mapping.
"""

from .field import Field
from .layout import GridLayout
from .stencil import diffusion_step, magnitude_gradient, nine_point_stencil

__all__ = [
    "Field",
    "GridLayout",
    "diffusion_step",
    "magnitude_gradient",
    "nine_point_stencil",
]
