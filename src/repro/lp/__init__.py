"""Linear-programming substrate.

The SPAA'03 overlay-design algorithm begins by solving the LP relaxation of
the integer program of Section 2.  This subpackage is the one LP modeling
layer: :class:`SparseLPBuilder` (:mod:`repro.lp.sparse`) assembles a model
as batched numpy constraint blocks -- one call per constraint *family*, so
the ``O(|S|·|R|·|D|)`` Section-2 variables are assembled in a handful of
array operations -- and compiles it to the sparse matrix form of
:class:`CompiledLP`.

:func:`solve_compiled` solves a compiled model through a *registered solver
backend* (:mod:`repro.lp.backends`): ``"highs"`` (scipy ``linprog``, the LP
default), ``"highs-mip"`` (scipy ``milp``, exact MILP), and an optional
``"gurobi"`` backend that is gracefully absent unless ``gurobipy`` is
installed.

Public API
----------
``SparseLPBuilder``  -- vectorized batched-block model builder.
``VariableArena``    -- vectorized variable-index allocator.
``Sense``            -- constraint sense of a block (<=, >=, ==).
``Objective``        -- optimization direction.
``CompiledLP``       -- matrix form of a built model.
``LPBuildStats``     -- timing/size report of an assembly.
``BlockStats``       -- size of one constraint family.
``solve_compiled``   -- solve a compiled LP, returning an ``LPSolution``.
``LPSolution``       -- status, objective value, per-variable values.
``LPStatus``         -- enum of solver outcomes.
``SolverBackend``    -- backend protocol (``name`` + ``solve``).
``SolveOptions``     -- backend-independent options (integrality, limits).
``SolverError``      -- typed solver failure (unknown backend, bad status).
``register_backend`` -- decorator adding a backend to the registry.
``get_backend``      -- resolve a backend by name.
``backend_names``    -- all registered backend names.
``available_backend_names`` -- names whose solver library is importable.
"""

from repro.lp.backends import (
    SolveOptions,
    SolverBackend,
    SolverError,
    available_backend_names,
    backend_names,
    get_backend,
    register_backend,
    registered_backends,
)
from repro.lp.result import LPSolution, LPStatus
from repro.lp.solver import solve_compiled
from repro.lp.sparse import (
    BlockStats,
    CompiledLP,
    LPBuildStats,
    Objective,
    Sense,
    SparseLPBuilder,
    VariableArena,
)

__all__ = [
    "BlockStats",
    "CompiledLP",
    "LPBuildStats",
    "LPSolution",
    "LPStatus",
    "Objective",
    "Sense",
    "SolveOptions",
    "SolverBackend",
    "SolverError",
    "SparseLPBuilder",
    "VariableArena",
    "available_backend_names",
    "backend_names",
    "get_backend",
    "register_backend",
    "registered_backends",
    "solve_compiled",
]
