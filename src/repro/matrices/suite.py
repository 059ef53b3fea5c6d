"""Scaled synthetic analogs of the paper's nine SuiteSparse matrices.

Table I of the paper evaluates on nine matrices abbreviated ``ca gy g2
co bu wi ad ro eu``. Their originals reach 54 M non-zeros; this module
generates structural analogs scaled down ~10-2000x (see DESIGN.md,
"Substitutions") while preserving the property Table I measures — the
shape of the cross-iteration reuse window relative to matrix size:

- road networks (``ro``, ``eu``) and meshes (``gy``, ``ad``) are local
  and banded, so the window is tiny;
- circuits (``g2``) are near-diagonal with a few dense rails;
- clique graphs (``co``) are locally dense;
- skewed power-law graphs (``ca``, ``wi``) and the camera/point
  coupling block of bundle adjustment (``bu``) keep a large fraction of
  the matrix live at once.

Paper reference columns (rows, nnz, max%, avg%) are carried on each
spec so EXPERIMENTS.md can print paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List

from repro.errors import ConfigError
from repro.formats.coo import COOMatrix
from repro.matrices import generators as gen


@dataclass(frozen=True)
class SuiteMatrixSpec:
    """One Table-I matrix: the paper's numbers plus our generator."""

    name: str
    structure: str
    paper_rows: int
    paper_nnz: int
    paper_max_pct: float
    paper_avg_pct: float
    build: Callable[[], COOMatrix]


def _build_ca() -> COOMatrix:
    return gen.power_law(1877, 19811, exponent=1.9, lower_bias=0.85, seed=101)


def _build_gy() -> COOMatrix:
    return gen.banded_mesh(1736, 160, 17890, seed=102)


def _build_g2() -> COOMatrix:
    return gen.circuit_like(3002, 8768, n_rails=4, seed=103)


def _build_co() -> COOMatrix:
    return gen.clique_overlap(4341, 160367, clique_size=30, locality=0.40, seed=104)


def _build_bu() -> COOMatrix:
    return gen.bipartite_block(5134, 103607, split=0.45, corner_share=0.88, seed=105)


def _build_wi() -> COOMatrix:
    return gen.rmat(17835, 225152, a=0.60, b=0.12, c=0.26, seed=106)


def _build_ad() -> COOMatrix:
    return gen.road_network(13631, 27262, shortcut_fraction=0.28, seed=107)


def _build_ro() -> COOMatrix:
    return gen.road_network(23947, 28854, shortcut_fraction=0.06, seed=108)


def _build_eu() -> COOMatrix:
    return gen.road_network(25456, 27027, shortcut_fraction=0.13, seed=109)


#: Ordered as in Table I.
SUITE: Dict[str, SuiteMatrixSpec] = {
    spec.name: spec
    for spec in (
        SuiteMatrixSpec("ca", "power-law collaboration", 18772, 198110, 49.9, 32.9, _build_ca),
        SuiteMatrixSpec("gy", "banded FEM mesh", 17361, 178896, 4.8, 1.9, _build_gy),
        SuiteMatrixSpec("g2", "circuit with rails", 150102, 438388, 3.5, 1.7, _build_g2),
        SuiteMatrixSpec("co", "overlapping cliques", 434102, 16036720, 13.7, 7.2, _build_co),
        SuiteMatrixSpec("bu", "bundle-adjustment blocks", 513351, 10360701, 90.0, 47.7, _build_bu),
        SuiteMatrixSpec("wi", "skewed power-law web", 3566907, 45030389, 38.7, 23.2, _build_wi),
        SuiteMatrixSpec("ad", "adaptive mesh", 6815744, 13624320, 9.4, 5.1, _build_ad),
        SuiteMatrixSpec("ro", "road network", 23947347, 28854312, 1.9, 1.0, _build_ro),
        SuiteMatrixSpec("eu", "road network (large)", 50912018, 54054660, 4.3, 2.6, _build_eu),
    )
}


def suite_names() -> List[str]:
    """Table-I matrix names in paper order."""
    return list(SUITE)


@lru_cache(maxsize=None)
def load_suite_matrix(name: str) -> COOMatrix:
    """The scaled analog of a Table-I matrix, built on the first call
    per name and process; later calls return that same cached
    :class:`COOMatrix`. Every consumer shares its arrays, so they are
    read-only: an in-place write raises ``ValueError``."""
    if name not in SUITE:
        raise ConfigError(f"unknown suite matrix {name!r}; available: {suite_names()}")
    coo = SUITE[name].build()
    for array in (coo.rows, coo.cols, coo.vals):
        array.flags.writeable = False
    return coo
