"""Compiled plans are pinned bit for bit.

``data/plan_digests.json`` holds, per case of
``tests/scheduling/data/schedule_digests.json`` (the engine workloads,
the ``service_mix`` cold sizes and the scheduler variants) and per plan
configuration, the sha256 of everything a plan op decides: its
``exec_kind``, stage, qubits and sources, its controls and the bytes of
its blocks, whether it runs the phase multiply, the dense sweep or the
tensordot kernel, and the blocking chunk the sweep runs with.  A change
to where kernel or plan settings come from must leave every digest
equal.  A change meant to alter plans rewrites the digests with
``PYTHONPATH=src python -m tests.plan.test_plan_digests``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.circuit import generate_supremacy_circuit
from repro.kernels.apply import chunk_for
from repro.plan import PlanConfig, compile_program
from repro.scheduling import SchedulerConfig, schedule_circuit

DIGEST_FILE = Path(__file__).parent / "data" / "plan_digests.json"
SCHEDULE_CASES = json.loads(
    (
        Path(__file__).parents[1] / "scheduling" / "data" / "schedule_digests.json"
    ).read_text()
)["fast"]
CASE_PREFIXES = ("engine.", "service_cold.", "variant.")
CONFIGS = {"default": {}, "unfused": {"fusion_kmax": 0}}


def _kernel_of(op) -> tuple[str | None, int | None]:
    """(kernel, chunk) a kernel plan op runs with, from its gate and qubit
    count; (None, None) otherwise."""
    if op.exec_kind not in ("kernel", "fused_kernel"):
        return None, None
    if not op.gate.targets:
        return "phase", None
    return "sweep", chunk_for(len(op.gate.targets))


def plan_digest(program) -> str:
    """sha256 over every plan op's decisions, in op order."""
    h = hashlib.sha256()
    for op in program.ops:
        sources = [(s.op_index, s.kind, s.label) for s in op.sources]
        kernel, chunk = _kernel_of(op)
        controls = None if op.gate is None else op.gate.controls
        h.update(repr((
            op.exec_kind, op.stage, tuple(op.qubits), sources, kernel, chunk,
            controls,
        )).encode())
        if op.gate is None:
            h.update(b"-")
        else:
            blocks = np.ascontiguousarray(op.gate.blocks)
            h.update(f"{blocks.dtype.str}{blocks.shape}".encode())
            h.update(blocks.tobytes())
    return h.hexdigest()


def case_digest(name: str, config: str) -> str:
    case = SCHEDULE_CASES[name]
    circuit = generate_supremacy_circuit(
        case["qubits"], case["depth"], seed=case["circuit_seed"]
    )
    schedule = schedule_circuit(circuit, SchedulerConfig(**case["config"]))
    return plan_digest(compile_program(schedule, PlanConfig(**CONFIGS[config])))


def _cases():
    return sorted(n for n in SCHEDULE_CASES if n.startswith(CASE_PREFIXES))


DIGESTS = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", _cases())
def test_plan_unchanged(name, config):
    assert case_digest(name, config) == DIGESTS[name][config]


def test_installed_copy_compiles_the_same_plans(tmp_path):
    """A copy of the package outside the checkout has the in-tree
    defaults and compiles the in-tree plan: no setting is read from a
    file next to the source."""
    site = tmp_path / "site"
    shutil.copytree(
        Path(__file__).parents[2] / "src" / "repro", site / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    name = "service_cold.16q"
    script = (
        "import json, sys\n"
        f"sys.path.insert(1, {str(Path(__file__).parents[2])!r})\n"
        "import repro\n"
        "from repro.kernels import DEFAULT_CHUNK\n"
        "from repro.plan import DEFAULT_FUSION_KMAX\n"
        "from tests.plan.test_plan_digests import case_digest\n"
        "print(json.dumps([repro.__file__, DEFAULT_CHUNK, DEFAULT_FUSION_KMAX,\n"
        f"                  case_digest({name!r}, 'default')]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(site)}
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    where, chunk, kmax, digest = json.loads(out.stdout.splitlines()[-1])
    assert Path(where).is_relative_to(site)
    assert (chunk, kmax) == (1024, 8)
    assert digest == DIGESTS[name]["default"]


if __name__ == "__main__":
    digests = {
        name: {config: case_digest(name, config) for config in sorted(CONFIGS)}
        for name in _cases()
    }
    DIGEST_FILE.parent.mkdir(exist_ok=True)
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(json.dumps(digests, indent=1, sort_keys=True))
