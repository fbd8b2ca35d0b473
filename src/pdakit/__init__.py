"""Placement delivery arrays for coded caching: constructions, checks, simulation."""

from .designs import (Design, catalog_lookup, certify_configuration,
                      certify_t_design, complete_design, from_reference,
                      lambda_s, steiner_triple_system, transversal_design)
from .gf import FieldSpec
from .pda import (InvalidPdaError, Pda, PdaFormatError, STAR, ValidationReport,
                  canonical_relabel, format_pda, parse_pda, pda_from_json,
                  pda_to_json, scheme_parameters, validate_pda)
from .subspaces import Subspace, enumerate_subspaces, gaussian_binomial, subspace_counts
from .triples import (ConditionError, ConditionReport, TripleSystem,
                      check_conditions, complete_matching, direct_product,
                      orientations, pda_to_triple, triple_to_pda)
from .constructions import (ConstructionSpec, ParameterRow, bibd_rate_identity,
                            closed_form_row, configuration_rate_bound,
                            construct_pda, mn_baseline)
from .sim import (CacheContents, DecodeError, FileLibrary, SimReport, decode,
                  deliver, place, verify_scheme)

__version__ = "0.1.0"

__all__ = [
    "CacheContents", "ConditionError", "ConditionReport", "ConstructionSpec",
    "DecodeError", "Design", "FieldSpec", "FileLibrary", "InvalidPdaError",
    "ParameterRow", "Pda", "PdaFormatError", "STAR", "SimReport", "Subspace",
    "TripleSystem", "ValidationReport", "bibd_rate_identity",
    "canonical_relabel", "catalog_lookup", "certify_configuration",
    "certify_t_design", "check_conditions", "closed_form_row",
    "complete_design", "complete_matching", "configuration_rate_bound",
    "construct_pda", "decode", "deliver", "direct_product",
    "enumerate_subspaces", "format_pda", "from_reference", "gaussian_binomial",
    "lambda_s", "mn_baseline", "orientations", "parse_pda", "pda_from_json",
    "pda_to_json", "pda_to_triple", "place", "scheme_parameters",
    "steiner_triple_system", "subspace_counts", "transversal_design",
    "triple_to_pda", "validate_pda", "verify_scheme",
]
