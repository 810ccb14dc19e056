"""Block DXZ decomposition toolkit.

Decomposes an n x n unitary U as D X Z for any divisor m of n: D and Z
block-diagonal unitaries (Z with leading block I) and X a unitary whose 2r
block line sums all equal the m x m identity.  The general case runs a
block-Sinkhorn iteration; permutation matrices get an exact combinatorial
construction; Fourier conjugation yields the block-circulant variant.
"""

from .matcore import (
    BlockPartition,
    RandomSpec,
    as_matrix,
    block_col_sum,
    block_row_sum,
    haar_random_unitary,
    load_matrix,
    save_matrix,
)
from .polar import PolarConfig
from .blocksinkhorn import (
    DxzDecomposition,
    IterationConfig,
    VerificationReport,
    block_trace,
    decompose,
    psi,
    verify_decomposition,
)
from .structure import (
    BiunitaryVector,
    ConjugateDecomposition,
    U2Parameters,
    biunitary_from_dxz,
    conjugate_decompose,
    core_to_xu,
    fourier_transform,
    is_block_circulant,
    membership,
    normalize_biunitary,
    u2_closed_form,
    u2_factors,
    u2_matrix,
    u2_parameters,
    xu_from_biunitary,
    xu_to_core,
)
from .permdecomp import (
    Permutation,
    complex_perm_dxz,
    edge_color,
    perm_dxz,
)

__version__ = "0.1.0"
