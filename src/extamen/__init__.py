"""Exact tooling for a labeled Schreier graph of dyadics and its lamp walks.

The names below are re-exported lazily (PEP 562): ``import extamen`` loads
no submodule, and ``extamen.X`` or ``from extamen import X`` imports the one
submodule that defines X on first use.
"""

from importlib import import_module

# submodule -> the names it re-exports here
_EXPORTS = {
    "dyadic": """Dyadic ONE PLMap ROOT ZERO cocycle_eval cocycle_identity_check gen_a
        gen_b letter_map parse_dyadic word_to_pl""",
    "errors": """CapExceeded ExtamenError PreconditionFailed PropertySelfTestFailed
        SearchExhausted StructuralAssertFailed ZeroBase""",
    "graph": """Ball Hair Skeleton act_letter act_word ball boundary_ratio classify
        folner_hair_segment get_orientation golden_path hair_point neighbors
        root_hair_letter vertex_at""",
    "harmonic": """VertexFn canonical_phi_u hair_property_suite harmonic_witness_search
        is_superharmonic_on level_min markov_apply_X phi_family pow2""",
    "lamplighter": """Config SetFn apply_letter config markov_iterate orbit_enumerate
        parse_config serialize_config switch_invariant_check""",
    "minfn": """SymmetricConcaveFn T_operator countable_sum generalized_minfun
        markov_image minfun non_superharmonic_transfer phi_family_tail_bound
        r_family_kmean resolve_setfn weighted_sum""",
    "approx": """BETA_SCHEDULES construct_En_countable construct_En_markov
        construct_En_single construct_En_sum explicit_En_hairs generalized_En_search
        golden_witness strong_verify weak_verify""",
    "walks": """StructuralLampWalk WalkConfig delta_check_phi_u green_mc green_partial
        lumped_return_series pn_exact potential_decay_experiment return_prob
        spectral_radius_proxy supermartingale_check""",
    "freegroup": """ZVertex Z_E minfun_Z phi_Z random_z_configs tail_segment witness_word
        z_apply z_ball z_boundary_ratio""",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that is, or re-exports, ``name`` and cache the value."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
