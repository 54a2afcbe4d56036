"""Combinatorics of planar level trees and rational configuration spaces.

The layers, bottom up: ``simplex`` (monotone maps and the circle
construction into pointed sets), ``theta`` (level trees, wreath
morphisms, classification, truncation, pruning, enumeration), ``config``
(rational configurations, exact exit-path validation, the tree functor),
``homology`` (finite categories, nerves, Smith normal form), and
``harness`` (seeded suites and reports).  The ``theta-ran`` console
script fronts all of it.
"""

from .simplex import (
    CompositionError,
    MonotoneMap,
    PointedMap,
    compose_delta,
    compose_pointed,
    enumerate_delta_hom,
    identity_delta,
    identity_pointed,
    parse_monotone,
    simplicial_circle,
)
from .theta import (
    DEFAULT_HOM_CAP,
    InitialityReport,
    LayerDiagram,
    MorphismFlags,
    MorphismLadder,
    PruneResult,
    ResourceCapError,
    ThetaMorphism,
    Tree,
    classify_morphism,
    compose_theta,
    count_theta_hom,
    decorated_trees,
    empty_tree,
    enumerate_theta_hom,
    fiber_pairs,
    format_tree,
    healthy_trees,
    identity_theta,
    leaf_row,
    leaves,
    level_projection,
    morphism_from_json,
    morphism_ladder,
    morphism_to_json,
    parse_tree,
    prune,
    truncate,
    verify_initiality,
)
from .config import (
    Configuration,
    ExitPath,
    InvalidExitPathError,
    LevelCheck,
    PathVerdict,
    SamplingBudgetError,
    build_exit_path,
    compose_point_maps,
    configuration,
    configuration_from_json,
    configuration_to_json,
    exit_path_from_json,
    exit_path_to_json,
    induced_morphism,
    morphism_of_exit_path,
    path_flags,
    random_configuration,
    random_exit_path,
    realize_tree,
    rescale_configuration,
    rescale_exit_path,
    tree_of_configuration,
    validate_exit_path,
)
from .homology import (
    DEFAULT_CHAIN_CAP,
    CategoryValidation,
    FiniteCategoryView,
    HomologyResult,
    IntegerMatrix,
    SmithNormalForm,
    build_category,
    chain_poset,
    homology_from_boundaries,
    homology_of_category,
    nerve_chain_complex,
    poset_category,
    smith_normal_form,
)
from .harness import (
    SUITE_NAMES,
    SuiteReport,
    canonical_report,
    emit_fixture_tables,
    minor_gcd,
    ordered_betti_oracle,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
