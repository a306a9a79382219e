"""Crystals, Cartan braidings, right ends, keys, and higher-rank graphs."""

from .crystal import (Convention, Crystal, CrystalContext, braiding_at,
                      build_fundamental, canonical_isomorphism, cartan_braiding,
                      crystal_from_dict, crystal_from_file, extremal_element,
                      tensor, tensor_component, trivial_crystal, weyl_action)
from .embeddings import (GraphEmbedding, count_weak_embeddings, embed_bruhat,
                         embed_right_weak, enumerate_compatible_colorings)
from .graphs import ColoredDigraph, Edge
from .kgraph import KGraph, KPath
from .rightends import (apply_chain, in_cartan_component, right_end_chain,
                        right_end_tuple)
from .rootdata import (NonFiniteTypeError, RootDatum, RootVector, Weight,
                       builtin_datum, datum_from_dict, load_datum,
                       resolve_datum)
from .tableaux import (SkewTableau, Tableau, braid_columns, enumerate_ssyt,
                       from_crystal, is_key, left_key, right_ends_via_slides,
                       right_key)
from .verify import SUITES, Report, run_suite
from .weyl import WeylElement, WeylGroup

__version__ = "0.1.0"
