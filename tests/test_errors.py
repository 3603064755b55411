"""Every integer the library reads from its callers, a point, block, size,
count or start row, passes one check (errors._integer): a Python or numpy
integer in range, never a bool or a float, 2.0 included."""

import math

import numpy as np
import pytest

from qmetric import lpcore
from qmetric.algebra import Algebra, matrix_unit, tracial_state, vector_state
from qmetric.errors import InputError
from qmetric.generate import circle_net, interval_net, random_planar_space
from qmetric.mcshane import ExtensionProblem
from qmetric.metric import epsilon_net
from qmetric.states import FunctionalState, delta_embed

ALG = Algebra((2, 3))
PHI = tracial_state(ALG, (0.5, 0.5))
SPACE = circle_net(5)
LP = lpcore.LinearProgram(np.array([1.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                          np.array([1.0, 1.0, 1.5]))

# site: (call on the integer, values it must refuse, a numpy integer it takes)
SITES = {
    "FunctionalState": (lambda v: FunctionalState(((1.0, v, PHI),)), [2.7, True, -1],
                        np.int64(2)),
    "delta_embed": (lambda v: delta_embed(PHI, v), [2.7, True], np.int64(2)),
    "ExtensionProblem": (lambda v: ExtensionProblem(SPACE, (0, v), (0.0, 1.0), 5.0),
                         [2.7, True, 5], np.int64(2)),
    "epsilon_net": (lambda v: epsilon_net(SPACE, 0.5, start=v), [0.5, True, 5], np.int64(1)),
    "matrix_unit_block": (lambda v: matrix_unit(ALG, v, 1, 1), [0.5, True, 2], np.int64(1)),
    "matrix_unit_row": (lambda v: matrix_unit(ALG, 0, v, 1), [1.0, 0, 3], np.int64(2)),
    "matrix_unit_column": (lambda v: matrix_unit(ALG, 0, 1, v), [1.5, True], np.int64(2)),
    "vector_state": (lambda v: vector_state(ALG, v, [1.0, 0.0]), [0.5, False], np.int64(0)),
    "Algebra": (lambda v: Algebra((2, v)), [math.nan, math.inf, True, 2.0, 0], np.int64(3)),
    "circle_net": (lambda v: circle_net(v), [2.5, 0, True], np.int64(3)),
    "interval_net": (lambda v: interval_net(v), [2.5, 0], np.int64(3)),
    "random_planar_space": (lambda v: random_planar_space(v, np.random.default_rng(0)),
                            [2.5, 0], np.int64(3)),
    "lpcore.solve": (lambda v: lpcore.solve(LP, [0, v]), [1.7, True, 3], np.int64(1)),
}


@pytest.mark.parametrize("site, bad", [(site, bad) for site, (_, bads, _) in SITES.items()
                                       for bad in bads])
def test_an_outside_integer_out_of_range_or_not_an_integer_is_an_input_error(site, bad):
    call = SITES[site][0]
    with pytest.raises(InputError, match=r"must be (a nonnegative |an )integer.*, got "):
        call(bad)


@pytest.mark.parametrize("site", sorted(SITES))
def test_numpy_integers_are_accepted_at_every_site(site):
    call, _, good = SITES[site]
    call(good)


def test_the_start_rows_of_a_solve_are_integers():
    with pytest.raises(InputError, match=r"start row must be an integer in 0\.\.2, got 0\.5"):
        lpcore.solve(LP, [0.5, 1.7])
    assert lpcore.solve(LP, np.array([0, 1])).optimum == pytest.approx(1.5, abs=1e-15)
