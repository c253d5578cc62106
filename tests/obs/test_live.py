"""Live run monitoring: status file, slab attachment, and ``repro top``."""

import io
import json
import os
import time

from repro.cli import main
from repro.obs.live import (
    STALE_AFTER,
    LiveStatusFile,
    attach_status_slab,
    read_status,
    render_top,
    slab_spec_from_json,
    slab_spec_to_json,
    top_command,
)
from repro.obs.recorder import ObsConfig, session
from repro.obs.slab import HOGWILD_SLOTS, MetricsSlab
from repro.parallel.shm import shared_arrays


class TestSlabSpecJson:
    def test_roundtrip(self):
        with shared_arrays() as scope:
            shared = scope.create((2, len(HOGWILD_SLOTS)), "float64")
            slab = MetricsSlab.over(shared, HOGWILD_SLOTS)
            payload = slab_spec_to_json(slab.spec)
            json.dumps(payload)  # status-file storable
            back = slab_spec_from_json(payload)
            assert back == slab.spec


class TestLiveStatusFile:
    def test_writes_atomic_doc_with_identity(self, tmp_path):
        path = tmp_path / "status.json"
        live = LiveStatusFile(path)
        live.update(command="embed")
        doc = read_status(path)
        assert doc is not None
        assert doc["kind"] == "repro-live-status"
        assert doc["pid"] == os.getpid()
        assert doc["status"] == "running"
        assert doc["command"] == "embed"
        assert doc["updated_unix"] >= doc["started_unix"]

    def test_nested_dicts_merge_keywise(self, tmp_path):
        live = LiveStatusFile(tmp_path / "s.json")
        live.update(train={"workers": 2, "total_batches": 100})
        live.update(train={"batches_done": 40})
        doc = read_status(tmp_path / "s.json")
        assert doc["train"] == {
            "workers": 2,
            "total_batches": 100,
            "batches_done": 40,
        }
        # non-dict replaces wholesale
        live.update(train=None)
        assert read_status(tmp_path / "s.json")["train"] is None

    def test_write_failure_is_swallowed(self, tmp_path):
        live = LiveStatusFile(tmp_path / "no" / "such" / "dir" / "s.json")
        live.update(stage="walks")  # must not raise

    def test_read_status_rejects_garbage(self, tmp_path):
        assert read_status(tmp_path / "absent.json") is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"kind": "repro-live-st')
        assert read_status(torn) is None
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"kind": "something-else"}))
        assert read_status(other) is None


def _status_doc(**overrides):
    now = time.time()
    doc = {
        "kind": "repro-live-status",
        "schema_version": 1,
        "pid": os.getpid(),
        "status": "running",
        "command": "embed",
        "started_unix": now - 10.0,
        "updated_unix": now,
    }
    doc.update(overrides)
    return doc


class TestRenderTop:
    def test_header_shows_stage_position(self):
        frame = render_top(
            _status_doc(stage="train", stages=["walks", "train"])
        )
        assert "stage train (2/2)" in frame
        assert "running" in frame
        assert "[pid gone]" not in frame

    def test_flags_dead_pid_and_staleness(self):
        # a pid we know is gone: fork + exit, then reap
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child exits immediately
            os._exit(0)
        os.waitpid(pid, 0)
        assert "[pid gone]" in render_top(_status_doc(pid=pid))

        now = time.time()
        stale = _status_doc(updated_unix=now - STALE_AFTER - 5.0)
        assert "[stale" in render_top(stale, now=now)

    def test_progress_bar_and_eta(self):
        now = time.time()
        frame = render_top(
            _status_doc(
                train={
                    "workers": 2,
                    "epochs": 4,
                    "epoch": 1,
                    "total_batches": 100,
                    "batches_done": 50,
                    "started_unix": now - 10.0,
                }
            ),
            now=now,
        )
        assert " 50.0%" in frame
        assert "50/100 batches" in frame
        assert "5.0 batches/s" in frame
        assert "ETA 10s" in frame

    def test_worker_rows_fold_into_progress(self):
        now = time.time()
        rows = [
            {
                "batches": 20.0,
                "examples": 400.0,
                "loss_sum": 10.0,
                "epoch": 1.0,
                "cancel": 0.0,
                "updated": now - 0.5,
            },
            {
                "batches": 0.0,
                "examples": 0.0,
                "loss_sum": 0.0,
                "epoch": 0.0,
                "cancel": 0.0,
                "updated": 0.0,
            },
        ]
        frame = render_top(
            _status_doc(
                train={"total_batches": 100, "batches_done": 30, "epochs": 2},
            ),
            slab_rows=rows,
            now=now,
        )
        # live slab batches stack on top of the committed epoch count
        assert "50/100 batches" in frame
        assert "0.5000" in frame  # mean loss = 10 / 20
        lines = frame.splitlines()
        worker_lines = [ln for ln in lines if ln.strip().startswith(("0 ", "1 "))]
        assert len(worker_lines) == 2
        assert "-" in worker_lines[1]  # idle worker: no loss, no age

    def test_finished_run_renders_reason(self):
        frame = render_top(
            _status_doc(status="interrupted", interrupt_reason="signal:SIGTERM")
        )
        assert "run finished: interrupted (reason: signal:SIGTERM)" in frame


class TestTopCommand:
    def test_missing_file_once_is_rc2(self, tmp_path):
        out = io.StringIO()
        rc = top_command(tmp_path / "nope.json", once=True, stream=out)
        assert rc == 2
        assert "no status file" in out.getvalue()

    def test_missing_file_times_out(self, tmp_path):
        out = io.StringIO()
        start = time.monotonic()
        rc = top_command(
            tmp_path / "nope.json", interval=0.05, timeout=0.2, stream=out
        )
        assert rc == 2
        assert time.monotonic() - start < 5.0

    def test_finished_run_exits_zero(self, tmp_path):
        path = tmp_path / "s.json"
        live = LiveStatusFile(path)
        live.update(status="completed", command="embed")
        out = io.StringIO()
        assert top_command(path, stream=out) == 0
        assert "run finished: completed" in out.getvalue()

    def test_renders_live_slab_rows(self, tmp_path):
        """A frame against a real shared slab another 'process' is writing."""
        path = tmp_path / "s.json"
        with shared_arrays() as scope:
            shared = scope.create((2, len(HOGWILD_SLOTS)), "float64")
            slab = MetricsSlab.over(shared, HOGWILD_SLOTS)
            now = time.time()
            slab.put(0, "batches", 12)
            slab.put(0, "examples", 240)
            slab.put(0, "loss_sum", 6.0)
            slab.put(0, "epoch", 1)
            slab.put(0, "updated", now)
            slab.put(1, "batches", 8)
            slab.put(1, "examples", 160)
            slab.put(1, "updated", now)

            live = LiveStatusFile(path)
            live.update(
                command="embed",
                stage="train",
                stages=["walks", "train"],
                slab=slab_spec_to_json(slab.spec),
                train={
                    "workers": 2,
                    "epochs": 2,
                    "epoch": 0,
                    "total_batches": 40,
                    "batches_done": 0,
                    "started_unix": now - 4.0,
                },
            )
            out = io.StringIO()
            assert top_command(path, once=True, stream=out) == 0
            frame = out.getvalue()
            assert "stage train (2/2)" in frame
            assert "20/40 batches" in frame  # 12 + 8 live
            assert "0.5000" in frame  # worker 0 mean loss
            assert "ETA" in frame

    def test_attach_returns_none_for_dead_segment(self):
        status = _status_doc(
            slab={
                "name": "repro_gone_segment",
                "shape": [1, len(HOGWILD_SLOTS)],
                "dtype": "float64",
                "slots": list(HOGWILD_SLOTS),
            }
        )
        assert attach_status_slab(status) is None


class TestLiveEndToEnd:
    def test_hogwild_run_keeps_status_current(self, tmp_path):
        """A real monitored run: session wiring, train fan-out, teardown."""
        from repro.core.trainer import TrainConfig
        from repro.graph.generators import planted_partition
        from repro.parallel.hogwild import train_hogwild
        from repro.walks.engine import RandomWalkConfig, generate_walks

        graph = planted_partition(
            n=90, groups=3, alpha=0.7, inter_edges=10, seed=0
        )
        corpus = generate_walks(
            graph, RandomWalkConfig(walks_per_vertex=4, walk_length=20, seed=5)
        )
        path = tmp_path / "status.json"
        cfg = ObsConfig(log_level="error", status_path=str(path))
        seen_mid_run = []
        with session(cfg, run_config={"command": "embed"}, stream=io.StringIO()):
            config = TrainConfig(
                dim=12, epochs=2, batch_size=128, seed=3,
                early_stop=False, workers=2,
            )

            def spy(epoch, loss):
                seen_mid_run.append(read_status(path))

            train_hogwild(corpus, config, epoch_callback=spy)

        # mid-run frames saw the live fan-out and the slab handle
        assert seen_mid_run and all(doc is not None for doc in seen_mid_run)
        mid = seen_mid_run[0]
        assert mid["command"] == "embed"
        assert mid["slab"] is not None
        assert mid["train"]["workers"] == 2
        assert mid["train"]["total_batches"] > 0

        final = read_status(path)
        assert final["status"] == "completed"
        assert final["slab"] is None  # torn down with the segment
        assert final["train"]["batches_done"] == final["train"]["total_batches"]

    def test_cli_top_smoke(self, tmp_path, capsys):
        graph = tmp_path / "g.edges"
        status = tmp_path / "status.json"
        assert main(["generate", "-o", str(graph), "--n", "40", "--seed", "1"]) == 0
        assert (
            main(
                [
                    "embed",
                    str(graph),
                    "-o",
                    str(tmp_path / "v.npz"),
                    "--dim",
                    "8",
                    "--epochs",
                    "2",
                    "--walks",
                    "2",
                    "--length",
                    "10",
                    "--log-level",
                    "error",
                    "--status-file",
                    str(status),
                ]
            )
            == 0
        )
        assert main(["top", str(status), "--once"]) == 0
        out = capsys.readouterr().out
        assert "run finished: completed" in out
        assert main(["top", str(tmp_path / "nope.json"), "--once"]) == 2
