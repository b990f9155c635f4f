import csv
import io

import numpy as np
import pytest

from adnoise import boundstates, dipoles, phonons, potential
from adnoise.units import AMU, E_CHARGE


@pytest.fixture(scope="session")
def ne():
    return potential.preset("Ne-Au")


@pytest.fixture(scope="session")
def ne_states_full(ne):
    """All bound states the grid supports (shallow tail included)."""
    params, _ = ne
    grid = boundstates.auto_grid(params, 4000)
    return boundstates.solve(params, grid, max_states=30)


@pytest.fixture(scope="session")
def ne_states(ne):
    """Deeply bound subset used by the default spectrum pipeline."""
    params, _ = ne
    grid = boundstates.auto_grid(params, 4000)
    return boundstates.solve(params, grid, max_states=5)


@pytest.fixture(scope="session")
def ne_ladder(ne, ne_states):
    params, _ = ne
    return dipoles.dipole_ladder(ne_states, params.polarizability, 1.0)


@pytest.fixture(scope="session")
def ne_scales(ne, ne_states, ne_coupling):
    """Exact fundamental splitting and zero-temperature decay rate."""
    _, material = ne
    nu10 = ne_states.splitting(1, 0)
    gamma0, masked = phonons.transition_rate(ne_states, material, 1, 0, 0.0,
                                             ne_coupling)
    assert not masked
    return nu10, gamma0


@pytest.fixture(scope="session")
def ne_coupling(ne_states):
    return boundstates.coupling_matrix(ne_states)


@pytest.fixture(scope="session")
def deep_well():
    """Nearly harmonic well: beta*z0 = 60, several hundred levels."""
    return potential.SurfacePotentialParams(
        name="deep", U0=20.0 * E_CHARGE, z0=5e-10, beta=12e10,
        adatom_mass=200.0 * AMU)


@pytest.fixture(scope="session")
def deep_states(deep_well):
    """The three lowest states on z0 +- 5 %, where they live: 18 widths of
    the ground state either side.  On its whole auto_grid interval the
    well needs a basis past boundstates.MAX_NODES
    (test_deep_well_on_its_whole_interval_is_refused_before_any_solve)."""
    grid = boundstates.Grid(z_min=0.95 * deep_well.z0,
                            z_max=1.05 * deep_well.z0, n_points=1000)
    return boundstates.solve(deep_well, grid, max_states=3)


@pytest.fixture(scope="session")
def soft_material():
    """Gold acoustics with the Debye cutoff lifted out of the way."""
    return potential.BulkMaterial(name="test-bulk", speed_of_sound=3962.0,
                                  density=19300.0, debye_frequency=1e16)


def two_state_rate_matrix(gamma_down, gamma_up, temperature=1.0):
    gamma = np.array([[0.0, gamma_up], [gamma_down, 0.0]])
    return phonons.RateMatrix.from_gamma(gamma, temperature=temperature)


def per_cell_table(columns, rows, header_lines=()):
    """Reference CSV written cell by cell through csv.writer: a bool cell
    as true/false, a float cell with '%.9g', any other cell with str()."""
    buf = io.StringIO()
    buf.writelines(f"# {line}\n" for line in header_lines)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"{name} [{unit}]" for name, unit in columns])
    for row in rows:
        writer.writerow([("true" if v else "false") if isinstance(v, bool)
                         else "%.9g" % v if isinstance(v, float) else str(v)
                         for v in row])
    return buf.getvalue()
