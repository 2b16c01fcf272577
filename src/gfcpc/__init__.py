"""Generalized function-correcting partition codes over small finite alphabets."""

from __future__ import annotations

from .bounds import (
    BoundReport,
    IndexGrouping,
    binary_structural_bound,
    binary_triple_bound,
    enumerate_index_groupings,
    grouping_table_text,
    lower_bound_drm_submatrix,
    lower_bound_joins,
    lower_bound_trivial,
    optimal_redundancy_exact,
    scan_binary_structural_witness,
    scan_binary_triple_witness,
    upper_bound_grouping,
    upper_bound_multistep,
)
from .codec import (
    BudgetExceeded,
    ConstructionStep,
    ConstructionTrace,
    SystematicEncoding,
    VerificationReport,
    Violation,
    decode_block,
    grouped_construct,
    multi_step_construct,
    verify_gfcpc,
)
from .drm import (
    Problem,
    RequirementMatrix,
    canonicalize_problem,
    gfcpc_drm,
    single_drm,
)
from .examples import EXAMPLE_IDS, ExampleBundle, load_example
from .errors import (
    CapacityError,
    DomainError,
    GfcpcError,
    InputError,
    ShapeError,
)
from .formats import (
    dcode_to_text,
    drm_to_text,
    encoding_to_text,
    load_problem_file,
    parse_drm,
    parse_encoding,
    parse_partition,
    partition_to_text,
)
from .partition import (
    Partition,
    finest,
    from_function,
    is_refinement,
    join,
    join_many,
    same_block,
)
from .solver import (
    DcodeWitness,
    SearchBudget,
    SolveResult,
    lower_bound_pairwise,
    lower_bound_triples,
    min_length_dcode,
    verify_dcode,
)
from .space import Space, Vec, hamming_distance, hamming_weight, neighbors

__version__ = "1.0.0"
