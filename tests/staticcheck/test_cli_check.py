"""CLI surface: ``repro check`` and ``simulate --sanitize/--strict``."""

from repro.cli import main
from repro.circuit import generate_supremacy_circuit
from repro.io import save_schedule_json
from repro.scheduling import SchedulerConfig, schedule_circuit


class TestCheckCommand:
    def test_generated_circuit_checks_clean(self, capsys):
        rc = main(
            ["check", "--qubits", "9", "--depth", "8",
             "--local-qubits", "6", "--kmax", "4"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "CLEAN" in out

    def test_schedule_file_checks_clean(self, tmp_path, capsys):
        circ = generate_supremacy_circuit(9, 8, seed=1)
        sched = schedule_circuit(
            circ, SchedulerConfig(local_qubits=6, kmax=4, seed=1)
        )
        path = tmp_path / "sched.json"
        save_schedule_json(sched, path)
        rc = main(["check", "--schedule", str(path)])
        assert rc == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_corrupted_schedule_file_fails(self, tmp_path, capsys):
        import json

        circ = generate_supremacy_circuit(9, 8, seed=1)
        sched = schedule_circuit(
            circ, SchedulerConfig(local_qubits=6, kmax=4, seed=1)
        )
        path = tmp_path / "sched.json"
        save_schedule_json(sched, path)
        blob = json.loads(path.read_text())
        # Drop the first stage's first cluster: a coverage violation.
        for stage in blob["stages"]:
            if stage["ops"]:
                del stage["ops"][0]
                break
        path.write_text(json.dumps(blob))
        rc = main(["check", "--schedule", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert "coverage" in out

    def test_unbalanced_swap_file_fails_without_traceback(
        self, tmp_path, capsys
    ):
        import json

        circ = generate_supremacy_circuit(10, 10, seed=1)
        sched = schedule_circuit(
            circ, SchedulerConfig(local_qubits=7, kmax=4, seed=1)
        )
        assert len(sched.stages) >= 2
        path = tmp_path / "sched.json"
        save_schedule_json(sched, path)
        blob = json.loads(path.read_text())
        # Stage 1 keeps one global qubit too few: the swap into it is
        # unbalanced and no executor could run it.
        blob["stages"][1]["global_qubits"] = blob["stages"][1][
            "global_qubits"
        ][:-1]
        path.write_text(json.dumps(blob))
        rc = main(["check", "--schedule", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAIL" in captured.out
        assert "swap" in captured.out and "structure" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_missing_inputs_is_usage_error(self, capsys):
        assert main(["check"]) == 2
        assert "provide --schedule" in capsys.readouterr().err

    def test_unreadable_schedule_file(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["check", "--schedule", str(path)]) == 2

    def test_no_comm_and_no_unitarity_flags(self, capsys):
        rc = main(
            ["check", "--qubits", "9", "--local-qubits", "6",
             "--kmax", "4", "--no-unitarity"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "unitarity" not in out


class TestSimulateSanitize:
    def test_sanitized_simulate_passes(self, capsys):
        rc = main(
            ["simulate", "--qubits", "9", "--depth", "8",
             "--local-qubits", "6", "--sanitize"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "sanitizer:" in out
        assert "0 finding(s)" in out

    def test_strict_simulate_passes_clean_schedule(self, capsys):
        rc = main(
            ["simulate", "--qubits", "9", "--depth", "8",
             "--local-qubits", "6", "--strict"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "static check: PASS" in out

    def test_sanitize_requires_distributed(self, capsys):
        rc = main(["simulate", "--qubits", "9", "--sanitize"])
        assert rc == 2
        assert "--local-qubits" in capsys.readouterr().err
