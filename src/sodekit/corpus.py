"""Builtin problem corpus.

Each instance is a complete manifest.  The scrambled instances carry the
inverse change of coordinates in their metadata so tests can compare the
constructed chart against a known answer; the reduced Lagrangian instance
carries the raw reduction data so an independent Euler-Lagrange derivation
can be checked against the shipped field.
"""

from __future__ import annotations

from .manifest import Manifest, ManifestError, load_manifest

_TD_X = "(s2 - s1^2)"
_TD_Y = f"(s3 - {_TD_X}^2)"

CORPUS: dict = {
    "oscillator-scrambled": {
        "name": "oscillator-scrambled",
        "description": "Harmonic oscillator u dx - x du pushed through "
                       "z1 = x, z2 = u + x^2.",
        "chart": {
            "coordinates": ["z1", "z2"],
            "box": [[-1.5, 1.5], [-1.5, 1.5]],
        },
        "field": {
            "components": ["z2 - z1^2", "-z1 + 2*z1*(z2 - z1^2)"],
        },
        "frame": [
            {"components": ["0", "1"]},
        ],
        "options": {"seed": 0, "samples": 200, "grid": 10,
                    "tolerance": 1e-05},
        "metadata": {
            "scramble": {
                "plain_chart": ["x", "u"],
                "plain_field": ["u", "-x"],
                "forward": ["x", "u + x^2"],
                "inverse": ["z1", "z2 - z1^2"],
            },
        },
    },
    "timedep-scrambled": {
        "name": "timedep-scrambled",
        "description": "Time-dependent field dt + y dx + (t - x) dy pushed "
                       "through s1 = t, s2 = x + t^2, s3 = y + x^2.",
        "chart": {
            "coordinates": ["s1", "s2", "s3"],
            "box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
        },
        "field": {
            "components": [
                "1",
                f"{_TD_Y} + 2*s1",
                f"s1 - {_TD_X} + 2*{_TD_X}*{_TD_Y}",
            ],
        },
        "frame": [
            {"components": ["0", "0", "1"]},
        ],
        "options": {"seed": 0, "samples": 200, "grid": 10,
                    "tolerance": 1e-05},
        "metadata": {
            "scramble": {
                "plain_chart": ["t", "x", "y"],
                "plain_field": ["1", "y", "t - x"],
                "forward": ["t", "x + t^2", "y + x^2"],
                "inverse": ["s1", _TD_X, _TD_Y],
            },
        },
    },
    "quadratic-demo": {
        "name": "quadratic-demo",
        "description": "Force quadratic in the fibre coordinate: vanishing "
                       "mixed curvature, exactly.",
        "chart": {
            "coordinates": ["x", "y"],
            "box": [[-1.2, 1.2], [-1.2, 1.2]],
        },
        "field": {
            "components": ["y", "x*y^2 - y + 1"],
        },
        "frame": [
            {"components": ["0", "1"]},
        ],
        "options": {"seed": 0, "samples": 200, "grid": 10,
                    "tolerance": 1e-05},
        "metadata": {},
    },
    "cubic-demo": {
        "name": "cubic-demo",
        "description": "Force cubic in the fibre coordinate: the mixed "
                       "curvature picks up a nonzero component.",
        "chart": {
            "coordinates": ["x", "y"],
            "box": [[-1.2, 1.2], [-1.2, 1.2]],
        },
        "field": {
            "components": ["y", "y^3"],
        },
        "frame": [
            {"components": ["0", "1"]},
        ],
        "options": {"seed": 0, "samples": 200, "grid": 10,
                    "tolerance": 1e-05},
        "metadata": {},
    },
    "beta-rescaled": {
        "name": "beta-rescaled",
        "description": "V-basis rescaled by 1 + y^2: nonzero w-mixing, "
                       "closed-form basis adaptation 1/(1 + y^2).",
        "chart": {
            "coordinates": ["x", "y"],
            "box": [[-1.2, 1.2], [-1.2, 1.2]],
        },
        "field": {
            "components": ["y", "0"],
        },
        "frame": [
            {"components": ["0", "1 + y^2"]},
        ],
        "options": {"seed": 0, "samples": 200, "grid": 10,
                    "tolerance": 1e-05},
        "metadata": {
            "adaptation_oracle": "1/(1 + y^2)",
        },
    },
    "routh-abelian": {
        "name": "routh-abelian",
        "description": "Reduced Lagrangian system with one Abelian symmetry: "
                       "base R^2, kinetic Lagrangian, connection one-form "
                       "(-x2, 0) with curvature K^1_12 = 1; the conserved "
                       "momentum mu rides along as a parameter.",
        "chart": {
            "coordinates": ["x1", "x2", "v1", "v2", "mu"],
            "box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0],
                    [0.5, 1.5]],
        },
        "field": {
            "components": ["v1", "v2", "v2*mu", "-v1*mu", "0"],
        },
        "frame": [
            {"components": ["0", "0", "1", "0", "0"]},
            {"components": ["0", "0", "0", "1", "0"]},
        ],
        "options": {"seed": 0, "samples": 200, "grid": 3,
                    "tolerance": 1e-05},
        "metadata": {
            "reduction": {
                "lagrangian": "1/2*(v1^2 + v2^2 + w^2)",
                "base_coordinates": ["x1", "x2"],
                "fibre_coordinates": ["v1", "v2"],
                "group_coordinates": ["w"],
                "momentum_names": ["mu"],
                "curvature": [[["0", "1"], ["-1", "0"]]],
            },
        },
    },
}


def corpus_list() -> list:
    return sorted(CORPUS.keys())


def corpus_get(name: str) -> Manifest:
    return load_manifest(corpus_raw(name))


def corpus_raw(name: str) -> dict:
    if name not in CORPUS:
        raise ManifestError(
            f"no corpus instance named '{name}'; "
            f"available: {', '.join(corpus_list())}"
        )
    return CORPUS[name]
