"""Property tests of the mesh topology and of the two text formats: config
files and displacement CSVs.

Skipped when hypothesis (the ``test`` extra) is not installed.
"""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import oracles  # noqa: E402
from conftest import check_topology_against_oracle  # noqa: E402
from fraclat import discrete_energy  # noqa: E402
from fraclat.cli import CONFIG_KEYS, RunConfig, _fmt  # noqa: E402
from fraclat.discrete_energy import (Displacement, displacement_from_csv,  # noqa: E402
                                     displacement_to_csv)
from fraclat.lattice import PHI_MAX, LatticeSpec, build_mesh  # noqa: E402

# printable text that survives the parser: no comment marker, no line
# break and no surrounding whitespace
_TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789,./-_", min_size=1,
                max_size=20)
_VALUES = {float: st.floats(), int: st.integers(-10**12, 10**12), str: _TEXT}

MESH8 = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 8.0, l=1.0))


def _exact(values: dict) -> dict:
    # repr is exact for floats and equal for two nans
    return {key: repr(value) for key, value in values.items()}


@settings(max_examples=25, deadline=None)
@given(st.fixed_dictionaries({}, optional={key: _VALUES[parser]
                                           for key, (parser, _) in CONFIG_KEYS.items()}))
def test_resolved_config_round_trips_through_a_file(values):
    cfg = RunConfig(values=values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        with open(path, "w") as fh:
            for key, value in cfg.resolved().items():
                fh.write(f"{key} = {_fmt(value)}\n")
        again = RunConfig.parse(path)
    assert _exact(again.resolved()) == _exact(cfg.resolved())


@settings(max_examples=10, deadline=None)
@given(hnp.arrays(np.float64, (MESH8.n_points, 2),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_displacement_csv_rewrites_byte_identically(values):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        displacement_to_csv(Displacement(MESH8, values), first)
        u = displacement_from_csv(first, MESH8)
        displacement_to_csv(u, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
    assert u.values.tobytes() == values.tobytes()


# values whose 17-digit text is easy to get wrong
_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                                -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e16,
                                123456789.0, 0.1, float("nan"), float("inf"), float("-inf")])


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float64, (MESH8.n_points, 2), elements=st.floats() | _EDGE_FLOATS),
       st.integers(1, 2 * MESH8.n_points))
def test_displacement_csv_writes_the_csv_module_bytes(values, block_rows):
    # the block formatter against the csv.writer row loop, over block sizes
    u = Displacement(MESH8, values)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        with mock.patch.object(discrete_energy, "_CSV_BLOCK_ROWS", block_rows):
            displacement_to_csv(u, first)
        oracles.displacement_to_csv(u, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()


@settings(max_examples=25, deadline=None)
@given(phi=st.floats(0.0, PHI_MAX, exclude_max=True), inv_eps=st.integers(4, 16),
       l=st.floats(0.6, 2.0))
def test_mesh_topology_matches_distance_oracle(phi, inv_eps, l):
    spec = LatticeSpec(phi=phi, eps=1.0 / inv_eps, l=l)
    check_topology_against_oracle(build_mesh(spec))
