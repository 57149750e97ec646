"""Outside-in tracing of the ``lse`` layers.

A :class:`Tracer` rebinds the module attributes through which one layer
calls another (for example ``lse.solver._parts_raw``, the name the solver
uses to reach the energy layer) to wrappers that record a span around each
call.  The program itself is not changed: a span starts when the caller
looks the name up and ends when the callee returns.  Spans are kept in
memory as tuples and written out once, when the traced run ends.

``uninstall`` puts every original back and checks that it did;
``assert_pristine`` checks, in an untraced process, that no attribute is a
wrapper, so the timed runs measure the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

_MARK = "__lsebench_span__"

# (module, attribute, span name).  The span name says which layer does the
# work: "<layer>.<operation>".  Each attribute is the name one layer looks up
# to call into another, so the span boundary is a layer boundary.
TARGETS = (
    ("lse.io_cli", "parse_config", "io_cli.parse"),
    ("lse.io_cli", "run", "io_cli.run"),
    ("lse.io_cli", "_atomic_write_bytes", "io_cli.write"),
    ("lse.io_cli", "make_grid", "grid.make_grid"),
    ("lse.io_cli", "validate_potential", "energy.validate_potential"),
    ("lse.io_cli", "find_k_solutions", "multiplicity.find_k_solutions"),
    ("lse.io_cli", "check_nehari", "verify.nehari"),
    ("lse.io_cli", "check_energy_identity", "verify.energy_identity"),
    ("lse.io_cli", "check_scaling", "verify.scaling"),
    ("lse.io_cli", "check_log_sobolev", "verify.log_sobolev"),
    ("lse.io_cli", "check_linf", "verify.linf"),
    ("lse.io_cli", "check_gradient_fd", "verify.gradient_fd"),
    ("lse.multiplicity", "Preconditioner", "solver.precond_setup"),
    ("lse.multiplicity", "continue_to_limit", "solver.continue_to_limit"),
    ("lse.solver.Preconditioner", "solve", "solver.precond_solve"),
    ("lse.solver", "mountain_pass", "solver.mountain_pass"),
    ("lse.solver", "descend", "solver.descend"),
    ("lse.solver", "_newton_polish", "solver.newton"),
    ("lse.solver", "_subspace_local_max", "solver.subspace"),
    ("lse.solver", "_linearized_matrix", "solver.step_assemble"),
    ("scipy.sparse.linalg", "splu", "solver.splu"),
    ("lse.solver", "_parts_raw", "energy.parts"),
    ("lse.solver", "_gradient_raw", "energy.gradient"),
    ("lse.solver", "_gradient_components", "grid.stencil"),
    ("lse.energy", "_gradient_components", "grid.stencil"),
)

LAYERS = ("bench", "io_cli", "multiplicity", "solver", "energy", "verify", "grid")


def _resolve(path: str):
    """Module or class named by a dotted path (``lse.solver.Preconditioner``)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _extra(name: str, args: tuple, result) -> object:
    """The per-call detail a span keeps, beyond its times."""
    if name == "solver.splu":
        return int(result.L.nnz + result.U.nnz)
    if name == "io_cli.write":
        return len(args[1])
    if name == "solver.descend":
        return int(result.iterations)
    if name == "solver.continue_to_limit":
        return id(result[1])
    if name == "multiplicity.find_k_solutions":
        return [id(report) for _, _, report in result]
    return None


class Tracer:
    """Records spans (id, name, start, end, parent id, run id, extra)."""

    def __init__(self, root_start: float) -> None:
        self.spans: list[tuple] = []
        self.run_id = 0
        self._stack = [0]
        self._saved: list[tuple[object, str, object]] = []
        # reports whose id() a span records stay alive until the run ends,
        # so no later object can reuse the id within one run
        self._alive: list[object] = []
        self.root_start = root_start

    def next_run(self, run_id: int) -> None:
        """Start attributing spans to run ``run_id`` (one config)."""
        self.run_id = run_id
        self._alive.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans) + 1
            parent = stack[-1]
            stack.append(span_id)
            spans.append(None)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[span_id - 1] = (span_id, name, start, time.perf_counter(), parent, self.run_id, "raised")
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            if name == "solver.continue_to_limit":
                self._alive.append(result)
            spans[span_id - 1] = (span_id, name, start, end, parent, self.run_id, _extra(name, args, result))
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        for path, attr, name in TARGETS:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        """Restore every rebound attribute, then check the restoration."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        for owner, attr, original in self._saved:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
        self._saved.clear()
        assert_pristine()

    def dump(self, path: str, root_end: float) -> None:
        """Write the root span and every recorded span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps([0, "bench.child", self.root_start, root_end, None, None, None]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def assert_pristine() -> None:
    """Raise unless every traced attribute is the program's own object."""
    import scipy.sparse.linalg
    from scipy.sparse.linalg._dsolve import linsolve

    for path, attr, _ in TARGETS:
        value = _resolve(path).__dict__[attr]
        if hasattr(value, _MARK):
            raise RuntimeError(f"{path}.{attr} is still a tracing wrapper")
    if scipy.sparse.linalg.splu is not linsolve.splu:
        raise RuntimeError("scipy.sparse.linalg.splu is not scipy's own splu")


def load(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of each span: its duration minus its children's durations.

    Children of one span run one after another on one thread, so the union
    of their intervals is the sum of their durations.
    """
    out = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        if span[4] is not None:
            out[span[4]] -= span[3] - span[2]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
