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
    encoding_to_text,
    grouped_construct,
    load_encoding,
    multi_step_construct,
    read_encoding,
    store_encoding,
    verify_gfcpc,
)
from .drm import (
    Problem,
    RequirementMatrix,
    canonicalize_problem,
    drm_to_text,
    entrywise_max,
    gfcpc_drm,
    read_drm,
    single_drm,
)
from .examples import (
    EXAMPLE_IDS,
    ExampleBundle,
    load_example,
    load_problem_file,
)
from .errors import (
    CapacityError,
    DomainError,
    GfcpcError,
    InputError,
    ShapeError,
)
from .partition import (
    Partition,
    finest,
    from_function,
    is_refinement,
    join,
    join_many,
    load_partition,
    partition_to_text,
    read_partition,
    same_block,
    save_partition,
)
from .solver import (
    DcodeWitness,
    SearchBudget,
    SolveResult,
    brute_force_ndcode_oracle,
    dcode_to_text,
    lower_bound_pairwise,
    lower_bound_triples,
    min_length_dcode,
    verify_dcode,
)
from .space import Space, Vec, hamming_distance, hamming_weight, neighbors

__version__ = "1.0.0"
