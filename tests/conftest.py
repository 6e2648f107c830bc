"""Shared fixtures: the two worked example matrices with their published
rank-2 approximations and completions, plus discovery of the classic
SMART test collections on disk."""

import os
from pathlib import Path

import numpy as np
import pytest

# Synonymy example: two document groups that share no terms directly.
# Rows: mark, twain, samuel, clemens, purple, colour.
SYNONYMY_WORDS = ("mark", "twain", "samuel", "clemens", "purple", "colour")
SYNONYMY = np.array(
    [
        [15, 0, 0, 0, 0],
        [15, 0, 20, 0, 0],
        [0, 10, 5, 0, 0],
        [0, 20, 10, 0, 0],
        [0, 0, 0, 20, 10],
        [0, 0, 0, 15, 0],
    ],
    dtype=float,
)

# Published rank-2 reconstruction of SYNONYMY (3 significant figures).
SYNONYMY_RANK2 = np.array(
    [
        [3.72, 3.50, 5.45, 0, 0],
        [11.0, 10.3, 16.1, 0, 0],
        [4.15, 3.90, 6.08, 0, 0],
        [8.30, 7.80, 12.2, 0, 0],
        [0, 0, 0, 21.0, 7.08],
        [0, 0, 0, 13.5, 4.55],
    ],
    dtype=float,
)

# Published completion fixpoint of SYNONYMY (2 significant figures).
SYNONYMY_COMPLETED = np.array(
    [
        [15, 4.3, 12, 0, 0],
        [15, 7.2, 20, 0, 0],
        [5.4, 20, 10, 0, 0],
        [5.4, 20, 10, 0, 0],
        [0, 0, 0, 20, 10],
        [0, 0, 0, 18, 8.9],
    ],
    dtype=float,
)

# Comparison tolerance per entry: half a unit of each printed figure's
# last decimal place, floored at the table-wide 0.05.  Only the entry
# printed as "18" (true fixpoint 20*cos(colour,purple) = 17.8885) is
# coarser than one decimal.
SYNONYMY_COMPLETED_TOL = np.full(SYNONYMY_COMPLETED.shape, 0.05)
SYNONYMY_COMPLETED_TOL[5, 3] = 0.5

# Polysemy example: 'bank' appears in every document.
# Rows: money, bed, river, bank, interest.
POLYSEMY_WORDS = ("money", "bed", "river", "bank", "interest")
POLYSEMY = np.array(
    [
        [1, 0, 1, 0, 0, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 1, 0, 1, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [1, 0, 1, 0, 1, 0],
    ],
    dtype=float,
)

# Published rank-2 reconstruction of POLYSEMY (3 significant figures).
POLYSEMY_RANK2 = np.array(
    [
        [0.809, -0.0550, 0.809, -0.0550, 0.547, 0.0621],
        [-0.0239, 1.08, -0.0239, 1.08, 0.117, 0.738],
        [-0.0550, 0.809, -0.0550, 0.809, 0.0621, 0.547],
        [1.06, 1.06, 1.06, 1.06, 0.855, 0.855],
        [1.08, -0.0239, 1.08, -0.0239, 0.738, 0.117],
    ],
    dtype=float,
)

# Published completion fixpoint of POLYSEMY (2 decimal places).
POLYSEMY_COMPLETED = np.array(
    [
        [1, 0.58, 1, 0.58, 0.82, 0.58],
        [0.71, 1, 0.71, 1, 0.71, 1],
        [0.58, 1, 0.58, 1, 0.58, 0.82],
        [1, 1, 1, 1, 1, 1],
        [1, 0.71, 1, 0.71, 1, 0.71],
    ],
    dtype=float,
)

# Published query scores (cosine against the rank-2 polysemy index).
QUERY_MARK_TWAIN_SCORES = np.array([1.00, 0.00, 0.62, 0.00, 0.00])
QUERY_BANK_MONEY_SCORES = np.array([0.77, 0.41, 0.77, 0.41, 0.79, 0.51])
QUERY_RIVER_BANK_SCORES = np.array([0.41, 0.77, 0.41, 0.77, 0.51, 0.79])


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process behind, running or unreaped,
    as ``sweep``'s NMF worker would if it outlived its command."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process behind, "
                + ("still running" if pid == 0 else f"exited but unreaped (pid {pid})"))


@pytest.fixture
def synonymy():
    return SYNONYMY.copy()


@pytest.fixture
def polysemy():
    return POLYSEMY.copy()


# ---------------------------------------------------------------------------
# SMART collection discovery


def smart_data_dir():
    env = os.environ.get("SMART_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data"


def find_collection(name):
    """Locate <NAME>.ALL / <NAME>.QRY / <NAME>.REL under the data dir.

    Returns a dict of paths or None when any piece is missing.
    """
    root = smart_data_dir()
    if not root.is_dir():
        return None
    found = {}
    wanted = {f"{name}.ALL".lower(): "docs", f"{name}.QRY".lower(): "queries",
              f"{name}.REL".lower(): "qrels"}
    for p in root.rglob("*"):
        key = wanted.get(p.name.lower())
        if key and key not in found:
            found[key] = p
    return found if len(found) == 3 else None
