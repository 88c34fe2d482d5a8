"""Measurement-driven kernel selection (the paper's feedback loop)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.codegen.generator import generated_kernel
from repro.kernels.apply import (
    apply_diagonal_gate,
    apply_gate_indexed,
    apply_gate_reference,
)
from repro.kernels.split import SplitGateMatrix, apply_gate_split_real
from repro.util.rng import random_statevector

__all__ = ["TuneResult", "AutoTuner", "tune_plan"]

#: Blocking chunk sizes (in ``c`` substrings) tried for the indexed kernel.
_CHUNK_CANDIDATES: tuple[int | None, ...] = (
    1 << 8, 1 << 10, 1 << 11, 1 << 12, 1 << 14, None,
)


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one autotuning run."""

    strategy: str
    seconds_per_call: float
    timings: dict[str, float] = field(default_factory=dict)

    def speedup_over(self, strategy: str) -> float:
        """How much faster the winner is than *strategy*."""
        return self.timings[strategy] / self.seconds_per_call


class AutoTuner:
    """Benchmarks kernel strategies on real shapes and caches the winner.

    The candidates per (n, qubits):

    * ``indexed[chunk]`` — the table-free dense sweep
      (:class:`repro.kernels.DenseSweep`, the plan-execution path) with
      several register/cache blocking sizes (the paper's block-size
      search);
    * ``generated`` — the specialized reshape/einsum source from
      :mod:`repro.codegen.generator`;
    * ``reference`` — the generic tensordot kernel.

    With ``diagonal=True`` the candidate pool switches to the diagonal
    fast path — ``diagonal`` (factor tensor rebuilt per call) vs
    ``fused-diagonal`` (memoized factor tensor, as executed for fused
    diagonal runs in a compiled plan) — since dense kernels and the
    per-amplitude multiply compute different transformations and must not
    compete in one pool.

    Tuning uses a scratch random state of the target size, so call it at
    a representative ``n`` (timings transfer across n at equal qubit
    *positions relative to n*, which is how :meth:`tune` buckets its
    cache).
    """

    def __init__(self, *, repeats: int = 3, seed: int = 0) -> None:
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        self.repeats = repeats
        self.seed = seed
        self._cache: dict[tuple[int, tuple[int, ...]], TuneResult] = {}

    # ------------------------------------------------------------------
    def _candidates(
        self, num_qubits: int, qubits: tuple[int, ...], *, diagonal: bool = False
    ) -> dict[str, Callable[[np.ndarray, np.ndarray], None]]:
        if diagonal:
            return {
                "diagonal": lambda state, matrix: apply_diagonal_gate(
                    state, np.diagonal(matrix), qubits, cache=None
                ),
                "fused-diagonal": lambda state, matrix: apply_diagonal_gate(
                    state, np.diagonal(matrix), qubits
                ),
            }
        cands: dict[str, Callable] = {}
        for chunk in _CHUNK_CANDIDATES:
            cands[f"indexed[chunk={chunk}]"] = (
                lambda state, matrix, _c=chunk: apply_gate_indexed(
                    state, matrix, qubits, chunk_size=_c
                )
            )
        gen_fn, _src = generated_kernel(num_qubits, qubits)
        cands["generated"] = lambda state, matrix: gen_fn(state, matrix)
        cands["reference"] = lambda state, matrix: apply_gate_reference(
            state, matrix, qubits
        )
        # Sec. 3.2's FMA trick: the complex product as four real GEMMs on
        # pre-split matrices.
        split_cache: dict[int, SplitGateMatrix] = {}

        def split_kernel(state, matrix):
            key = id(matrix)
            if key not in split_cache:
                split_cache.clear()
                split_cache[key] = SplitGateMatrix(matrix)
            apply_gate_split_real(state, split_cache[key], qubits)

        cands["split-real"] = split_kernel
        return cands

    def tune(
        self, num_qubits: int, qubits: Sequence[int], *, diagonal: bool = False
    ) -> TuneResult:
        """Benchmark all strategies for this shape; cached per (n, qubits).

        ``diagonal`` selects the diagonal-only candidate pool (see class
        docstring) and is part of the cache key.
        """
        qubits = tuple(qubits)
        key = (num_qubits, qubits, diagonal)
        if key in self._cache:
            return self._cache[key]
        k = len(qubits)
        state = random_statevector(num_qubits, self.seed).copy()
        rng = np.random.default_rng(self.seed)
        if diagonal:
            # Unit-modulus phases: a representative CZ/T-style diagonal.
            matrix = np.diag(np.exp(2j * np.pi * rng.random(1 << k)))
        else:
            # Any unitary works for timing; use a random dense matrix.
            matrix = rng.standard_normal(
                (1 << k, 1 << k)
            ) + 1j * rng.standard_normal((1 << k, 1 << k))
        timings: dict[str, float] = {}
        for label, fn in self._candidates(
            num_qubits, qubits, diagonal=diagonal
        ).items():
            best = float("inf")
            for _ in range(self.repeats):
                start = time.perf_counter()
                fn(state, matrix)
                best = min(best, time.perf_counter() - start)
            timings[label] = best
        winner = min(timings, key=timings.get)
        result = TuneResult(
            strategy=winner, seconds_per_call=timings[winner], timings=timings
        )
        self._cache[key] = result
        return result

    def best_kernel(
        self, num_qubits: int, qubits: Sequence[int], *, diagonal: bool = False
    ) -> Callable[[np.ndarray, np.ndarray], None]:
        """The tuned kernel function for this shape (tunes on first use)."""
        qubits = tuple(qubits)
        result = self.tune(num_qubits, qubits, diagonal=diagonal)
        return self._candidates(num_qubits, qubits, diagonal=diagonal)[
            result.strategy
        ]

    def apply(
        self, state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
    ) -> np.ndarray:
        """Apply *matrix* using the tuned kernel (in place)."""
        num_qubits = int(np.log2(state.shape[0]))
        self.best_kernel(num_qubits, tuple(qubits))(state, matrix)
        return state


#: Best times within this fraction of the fastest candidate are treated
#: as a tie and broken toward the plan with the fewest ops (see
#: :func:`tune_plan`).
_TUNE_NOISE_FRACTION = 0.05


def tune_plan(
    schedule,
    state_factory: Callable[[], object],
    *,
    fusion_candidates: Sequence[int] = (0, 2, 4, 5, 6, 7),
    chunk_candidates: Sequence[int | None] = (None,),
    strategies: Sequence[str | None] = (None,),
    repeats: int = 2,
) -> TuneResult:
    """Joint plan-compile search: fusion depth x strategy x chunk size.

    Per-kernel tuning (:class:`AutoTuner`) cannot see fusion: merging two
    ops changes *which* kernels run, not just how each runs, so the
    refusion width has to be searched at whole-plan granularity.  Each
    grid point compiles the schedule under the corresponding
    :class:`~repro.plan.PlanConfig` (memoized on the schedule, so
    repeated timings share one compile) and times a full execution on a
    fresh state from *state_factory*; the best-of-*repeats* wall time is
    the candidate's score.

    The winner label — ``plan[kmax=6 strategy=auto chunk=4096]`` — is
    what ``benchmarks/bench_fusion.py`` persists to
    ``BENCH_fusion.json``, where
    :data:`repro.plan.DEFAULT_FUSION_KMAX` reads the ``kmax=`` field
    back at import time: exactly the mechanism that sources
    :data:`repro.kernels.DEFAULT_CHUNK` from the kernels-autotune
    record.

    Candidates whose best times land within :data:`_TUNE_NOISE_FRACTION`
    of the fastest are treated as a measurement-noise tie, broken toward
    the *fewest plan ops*: repeated in-process timings run against warm
    CPU caches, which systematically understate the fixed per-sweep
    state-streaming cost that makes fewer, wider sweeps win cold.
    """
    from repro.plan import PlanConfig, plan_for

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    timings: dict[str, float] = {}
    plan_ops: dict[str, int] = {}
    for kmax in fusion_candidates:
        for strategy in strategies:
            for chunk in chunk_candidates:
                config = PlanConfig(
                    chunk_size=chunk,
                    fusion_kmax=kmax,
                    kernel_strategy=strategy,
                )
                program = plan_for(schedule, config)
                label = (
                    f"plan[kmax={config.fusion_kmax} "
                    f"strategy={strategy or 'auto'} "
                    f"chunk={config.chunk_size}]"
                )
                best = float("inf")
                for _ in range(repeats):
                    state = state_factory()
                    start = time.perf_counter()
                    program.execute(state)
                    best = min(best, time.perf_counter() - start)
                timings[label] = best
                plan_ops[label] = len(program.ops)
    cutoff = min(timings.values()) * (1.0 + _TUNE_NOISE_FRACTION)
    winner = min(
        (label for label, seconds in timings.items() if seconds <= cutoff),
        key=lambda label: (plan_ops[label], timings[label]),
    )
    return TuneResult(
        strategy=winner, seconds_per_call=timings[winner], timings=timings
    )
