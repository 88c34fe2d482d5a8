"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--qubits", "9", "--depth", "8"]
        )
        assert args.command == "generate"
        assert args.qubits == 9


class TestGenerate:
    def test_stdout(self, capsys):
        assert main(["generate", "--qubits", "9", "--depth", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("qubits 9")
        assert "cz" in out

    def test_file_output_parses_back(self, tmp_path, capsys):
        path = tmp_path / "circ.txt"
        assert main(
            ["generate", "--qubits", "9", "--depth", "4", "--output", str(path)]
        ) == 0
        from repro.circuit import circuit_from_text

        circ = circuit_from_text(path.read_text())
        assert circ.num_qubits == 9


class TestSchedule:
    def test_summary_printed(self, capsys):
        code = main(
            ["schedule", "--qubits", "12", "--depth", "8", "--local-qubits", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "num_swaps" in out
        assert "num_clusters" in out
        # Where the time went, from the scheduler's own spans.
        for phase in ("wall seconds", "find_stages", "cluster_and_adjust",
                      "validate", "evaluations=", "scans=", "scan_memo_hits="):
            assert phase in out

    def test_save_json(self, tmp_path, capsys):
        path = tmp_path / "sched.json"
        code = main(
            [
                "schedule", "--qubits", "9", "--depth", "6",
                "--local-qubits", "6", "--save", str(path),
            ]
        )
        assert code == 0
        from repro.io import load_schedule_json

        assert load_schedule_json(path).num_qubits == 9

    def test_from_circuit_file(self, tmp_path, capsys):
        circ_path = tmp_path / "c.txt"
        main(["generate", "--qubits", "9", "--depth", "6", "--output", str(circ_path)])
        capsys.readouterr()
        code = main(
            ["schedule", "--circuit", str(circ_path), "--local-qubits", "6"]
        )
        assert code == 0

    def test_missing_input(self, capsys):
        assert main(["schedule", "--local-qubits", "6"]) == 2


class TestSimulate:
    def test_single_node(self, capsys):
        code = main(["simulate", "--qubits", "8", "--depth", "8"])
        assert code == 0
        assert "entropy" in capsys.readouterr().out

    def test_distributed_with_shots(self, capsys):
        code = main(
            [
                "simulate", "--qubits", "10", "--depth", "8",
                "--local-qubits", "7", "--shots", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all-to-all" in out
        assert "top outcomes" in out

    def test_size_guard(self, capsys):
        assert main(["simulate", "--qubits", "30"]) == 2

    def test_checkpointed_run_then_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        argv = [
            "simulate", "--qubits", "10", "--depth", "8",
            "--local-qubits", "7", "--checkpoint-dir", ckpt,
            "--checkpoint-every", "4",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "checkpointed every 4 ops" in first
        # A second invocation finds the completed checkpoint and resumes.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "resumed checkpoint" in second
        # Both report the same entropy line (same final state).
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_pipeline_matches_serial(self, tmp_path, capsys):
        base = [
            "simulate", "--qubits", "10", "--depth", "8",
            "--local-qubits", "7",
        ]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--pipeline", "--pipeline-depth", "3"]) == 0
        piped = capsys.readouterr().out
        assert piped == serial  # same entropy, same counters
        storage_dir = str(tmp_path / "shards")
        assert main(base + ["--pipeline", "--storage-dir", storage_dir]) == 0
        out_of_core = capsys.readouterr().out
        assert out_of_core.splitlines()[-1] == serial.splitlines()[-1]

    def test_pipeline_composes_with_sanitize_and_checkpoint(
        self, tmp_path, capsys
    ):
        base = [
            "simulate", "--qubits", "10", "--depth", "8",
            "--local-qubits", "7", "--pipeline",
        ]
        assert main(base + ["--sanitize"]) == 0
        assert "sanitized" in capsys.readouterr().out
        ckpt = str(tmp_path / "ckpt")
        assert main(base + ["--checkpoint-dir", ckpt]) == 0
        assert "checkpointed" in capsys.readouterr().out

    def test_sanitized_checkpointed_run_equals_plain_run(
        self, tmp_path, capsys, monkeypatch
    ):
        """--sanitize --checkpoint-dir --fusion-kmax build one layer stack:
        the run checkpoints, honours the plan config, and ends on the
        plain run's state byte for byte."""
        from repro.distributed import DistributedSimulator
        from repro.distributed.checkpoint import CheckpointManager

        finals = []
        run_schedule = DistributedSimulator.run_schedule

        def recording(self, *args, **kwargs):
            assert kwargs["plan_config"].fusion_kmax == 0
            result = run_schedule(self, *args, **kwargs)
            finals.append(result.state.to_statevector().data.copy())
            return result

        monkeypatch.setattr(DistributedSimulator, "run_schedule", recording)
        base = [
            "simulate", "--qubits", "10", "--depth", "8",
            "--local-qubits", "7", "--fusion-kmax", "0",
        ]
        assert main(base) == 0
        plain = capsys.readouterr().out
        ckpt = tmp_path / "ckpt"
        assert main(base + ["--sanitize", "--checkpoint-dir", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "checkpointed every 8 ops" in out
        assert "0 finding(s)" in out
        assert out.splitlines()[-1] == plain.splitlines()[-1]
        state, _ = CheckpointManager(ckpt).load()
        assert len(finals) == 2
        assert np.array_equal(finals[0], finals[1])
        assert np.array_equal(state.to_statevector().data, finals[0])

    def test_pipeline_requires_distributed_run(self, capsys):
        assert main(["simulate", "--qubits", "8", "--pipeline"]) == 2
        assert "--local-qubits" in capsys.readouterr().err
        assert main(["simulate", "--qubits", "8", "--storage-dir", "x"]) == 2

    def test_pipeline_depth_validated(self, capsys):
        code = main(
            [
                "simulate", "--qubits", "10", "--local-qubits", "7",
                "--pipeline", "--pipeline-depth", "0",
            ]
        )
        assert code == 2
        assert "pipeline-depth" in capsys.readouterr().err


class TestExperiments:
    @pytest.mark.slow
    def test_fig8_series(self, capsys):
        assert main(["experiments", "fig8", "--qubits", "36"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert out.count("\n") >= 4

    def test_unknown_name_rejected(self):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main(["experiments", "fig99"])


class TestChaos:
    def test_default_sweep_passes(self, tmp_path, capsys):
        code = main(
            [
                "chaos", "--qubits", "12", "--local-qubits", "10",
                "--depth", "16", "--workdir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "scenarios passed" in out
        assert "crash-mid-swap" in out
        assert "FAIL" not in out

    def test_custom_plan_file(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"seed": 3, "faults": [{"op_index": 2, "kind": "corrupt"}]}'
        )
        code = main(
            [
                "chaos", "--qubits", "12", "--local-qubits", "10",
                "--depth", "16", "--plan", str(plan),
                "--workdir", str(tmp_path / "work"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "custom-plan" in out
        assert "1 corruption(s) detected" in out

    def test_rejects_single_rank(self, capsys):
        code = main(
            ["chaos", "--qubits", "10", "--local-qubits", "10"]
        )
        assert code == 2

    def test_rejects_bad_plan_file(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"seed": 1, "faults": [{"op_index": 0, "kind": "meteor"}]}')
        code = main(
            ["chaos", "--qubits", "12", "--local-qubits", "10", "--plan", str(plan)]
        )
        assert code == 2
        assert "bad fault plan" in capsys.readouterr().err


class TestProject:
    @pytest.mark.slow
    def test_table2_row(self, capsys):
        code = main(["project", "--qubits", "36", "--nodes", "64", "--depth", "25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup vs [5]" in out
        assert "PFLOPS" in out

    def test_rejects_non_power_nodes(self, capsys):
        assert main(["project", "--qubits", "36", "--nodes", "63"]) == 2


class TestTrace:
    def test_writes_valid_chrome_trace_and_report(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        code = main(
            [
                "trace", str(out_path), "--qubits", "12",
                "--local-qubits", "10", "--depth", "10",
                "--tolerance", "1e9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"spans to {out_path}" in out
        assert "predicted vs actual" in out
        assert "no deviations beyond tolerance" in out
        data = json.loads(out_path.read_text())
        lanes = {
            e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lanes == {"driver"}
        assert any(e["ph"] == "X" for e in data["traceEvents"])

    def test_jsonl_and_flamegraph(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "spans.jsonl"
        code = main(
            [
                "trace", str(out_path), "--qubits", "10",
                "--local-qubits", "8", "--depth", "8",
                "--jsonl", str(jsonl_path), "--flamegraph",
            ]
        )
        assert code == 0
        assert "span tree" in capsys.readouterr().out
        lines = jsonl_path.read_text().splitlines()
        assert lines and all(json.loads(line)["name"] for line in lines)

    def test_rejects_local_exceeding_total(self, capsys):
        code = main(
            ["trace", "out.json", "--qubits", "8", "--local-qubits", "10"]
        )
        assert code == 2
        assert "exceeds" in capsys.readouterr().err


class TestSplitErrors:
    """A qubit split the scheduler cannot take is a usage error: one
    ``error:`` line and exit 2, from every command that schedules."""

    @pytest.mark.parametrize(
        "argv, says",
        [
            # simulate has no --kmax: the scheduler's default 5 > l = 4
            (["simulate", "--qubits", "12", "--local-qubits", "4"], "kmax=5"),
            (["trace", "t.json", "--qubits", "8", "--local-qubits", "3"],
             "kmax=4"),
            (["simulate", "--qubits", "10", "--local-qubits", "12"],
             "local_qubits=12"),
            (["check", "--qubits", "12", "--local-qubits", "4"], "kmax=5"),
            (["schedule", "--qubits", "10", "--local-qubits", "4"], "kmax=5"),
        ],
        ids=["simulate-kmax", "trace-kmax", "simulate-local", "check-kmax",
             "schedule-kmax"],
    )
    def test_one_error_line_exit_2(self, argv, says, tmp_path, monkeypatch,
                                   capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err
        assert not (tmp_path / "t.json").exists()


class TestSimulateTelemetry:
    def test_trace_flag_writes_spans(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "sim_trace.json"
        code = main(
            [
                "simulate", "--qubits", "10", "--local-qubits", "8",
                "--depth", "8", "--trace", str(out_path),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert json.loads(out_path.read_text())["traceEvents"]

    def test_metrics_flag_prints_registry(self, capsys):
        code = main(
            [
                "simulate", "--qubits", "10", "--local-qubits", "8",
                "--depth", "8", "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "comm.bytes_on_network" in out
        assert "kernel.apply.seconds" in out

    def test_requires_distributed_run(self, capsys):
        assert main(["simulate", "--qubits", "10", "--metrics"]) == 2
        assert "--local-qubits" in capsys.readouterr().err

    def test_composes_with_sanitize(self, capsys):
        code = main(
            [
                "simulate", "--qubits", "10", "--local-qubits", "8",
                "--metrics", "--sanitize", "--plan-stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "comm.bytes_on_network" in out
        assert "lock.acquire.count" in out
        assert "compiled plan:" in out
