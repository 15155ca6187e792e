"""Exact inversive geometry: Moebius maps, colorings, and witness searches.

`import inversive` loads no submodule. Each exported name imports its home
module on first use and is then cached here (PEP 562), so a program that
uses `Point` alone never compiles the Moebius, Euclidean or WCP layers.
"""

import importlib

# home module -> the names the package exports from it
_EXPORTS = {
    "exactnum": ("BackendMismatch", "NormClass", "Quartic2", "SQRT2", "THETA",
                 "norm_class_of", "quartic_sign"),
    "geom": ("DegenerateConfigError", "DegenerateSphereError", "Flat",
             "GeometryError", "Hypersphere", "Point", "SideLabel", "SubSphere",
             "concyclic", "cross_ratio", "on_common_sphere", "on_sphere",
             "power_condition", "second_intersection", "separated", "side",
             "smallest_sphere", "sphere_through"),
    "moebius": ("HyperplaneReflection", "MoebiusMap", "SphereInversion",
                "compose"),
    "witness": ("ColoredConfig", "ColoringError", "PolychromaticWitness",
                "SearchBudgetError", "SeparationWitness",
                "separating_circle_5pts", "separating_sphere_bruteforce"),
    "colorings": ("FlagEuclidean", "FlagInversive", "PointListBackground",
                  "TwoLine", "num_colors", "sample_class"),
    "chromatic": ("CosetModel", "coset_closure_check", "find_polychromatic",
                  "max_polychromatic", "two_line_coset_model", "verify_flag",
                  "verify_generic", "verify_two_line"),
    "euclid": ("GreatFlat", "GreatIntersection", "great_flat_through",
               "great_intersection", "max_colors_great",
               "verify_flag_euclidean"),
    "wcp": ("CgpReport", "FiniteImageMap", "FivePointRefutation",
            "WcpViolation", "build_sharp_map", "circular_general_position",
            "five_point_refute", "sample_circles", "wcp_check"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # An unknown name raises AttributeError, so `from inversive import cli`
    # falls back to importing the submodule.
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
