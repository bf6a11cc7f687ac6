import os

import numpy as np
import pytest

from hexport.metrics import RungeField, runge_raster
from hexport.porting import PortingConfig, port


@pytest.fixture(scope="session")
def sr1():
    """41x41 Runge (a=1) raster on [-20,20]^2; odd count puts a knot at 0."""
    return runge_raster((-20, -20, 20, 20), 41, 41, 1.0)


@pytest.fixture(scope="session")
def runge1():
    return RungeField(1.0)


@pytest.fixture(scope="session")
def sr1_eno_ports(sr1):
    """ENO ports of SR1 at 200/300/600 cells across, shared across tests."""
    return {
        n: port(sr1, PortingConfig(method="eno", cells_across=n))
        for n in (200, 300, 600)
    }


@pytest.fixture
def forks(monkeypatch):
    """A list that gains an entry for each ``os.fork`` call of the test."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def hex_centers(grid):
    """(X, Y) center coordinate arrays of a HexGrid, shape (nrows, ncols)."""
    cols = np.arange(grid.ncols)
    rows = np.arange(grid.nrows)
    x = grid.x0 + cols[None, :] * grid.cell_width - (rows[:, None] % 2) * grid.cell_width / 2
    y = grid.y0 - 1.5 * grid.r * rows[:, None] + 0 * cols[None, :]
    return x, y
