"""CLI persistence flows: save / load / --from-store, and their error paths.

The error-path contract (exercised in-process through ``main``): every
failure mode a user can hit — missing store, corrupted manifest,
checksum mismatch, populated save target — exits nonzero with an
actionable single-line message on stderr, never a traceback.
"""

import os
import re

import pytest

from repro import (
    BatchMiner,
    BurstySearchEngine,
    Document,
    Point,
    SpatiotemporalCollection,
)
from repro.cli import main
from repro.store import MANIFEST_NAME, save_search_index


@pytest.fixture(scope="module")
def index_store(tmp_path_factory):
    """A small but real index store, saved through the library API."""
    collection = SpatiotemporalCollection(timeline=20)
    for i in range(4):
        collection.add_stream(f"s{i}", Point(float(i % 2), float(i // 2)))
    doc = 0
    for t in range(20):
        for i in range(4):
            collection.add_document(Document(doc, f"s{i}", t, ("filler",)))
            doc += 1
    for t in (8, 9, 10, 11):
        for i in (0, 1):
            for _ in range(4):
                collection.add_document(
                    Document(doc, f"s{i}", t, ("crisis", "crisis"))
                )
                doc += 1
    mined = BatchMiner().mine_regional(collection)
    engine = BurstySearchEngine(collection, mined)
    path = str(tmp_path_factory.mktemp("clistore") / "index")
    save_search_index(
        path, engine, "regional", terms=sorted(collection.vocabulary)
    )
    return path


def corrupt(path, name):
    target = os.path.join(path, name)
    with open(target, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        last = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([last[0] ^ 0xFF]))


class TestErrorPaths:
    def test_load_missing_store(self, tmp_path, capsys):
        assert main(["load", "--store", str(tmp_path / "nope")]) != 0
        err = capsys.readouterr().err
        assert "error:" in err
        assert "does not exist" in err
        assert "Traceback" not in err

    def test_load_interrupted_store(self, tmp_path, capsys):
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "stray.npy").write_bytes(b"xx")
        assert main(["load", "--store", str(partial)]) != 0
        err = capsys.readouterr().err
        assert "interrupted" in err or "not a segment store" in err
        assert "Traceback" not in err

    def test_load_corrupted_manifest(self, index_store, tmp_path, capsys):
        import shutil

        broken = str(tmp_path / "broken")
        shutil.copytree(index_store, broken)
        with open(os.path.join(broken, MANIFEST_NAME), "w") as handle:
            handle.write('{"format": "repro-segment-store", oops')
        assert main(["load", "--store", broken]) != 0
        err = capsys.readouterr().err
        assert "corrupted manifest" in err
        assert "Traceback" not in err

    def test_search_from_store_checksum_mismatch(
        self, index_store, tmp_path, capsys
    ):
        import shutil

        broken = str(tmp_path / "broken")
        shutil.copytree(index_store, broken)
        corrupt(broken, os.path.join("postings", "scores.npy"))
        code = main(
            ["search", "--from-store", broken, "--query", "crisis"]
        )
        assert code != 0
        err = capsys.readouterr().err
        assert "checksum mismatch" in err
        assert "postings/scores.npy" in err
        assert "Traceback" not in err

    def test_save_into_nonempty_directory(self, tmp_path, capsys):
        target = tmp_path / "occupied"
        target.mkdir()
        (target / "keep.txt").write_text("precious")
        assert main(["save", "--out", str(target)]) != 0
        err = capsys.readouterr().err
        assert "not empty" in err
        assert "Traceback" not in err
        # Nothing was touched — and no corpus was built first (the
        # failure must come before the expensive mine).
        assert (target / "keep.txt").read_text() == "precious"
        assert "corpus ready" not in err

    def test_ingest_checkpoint_into_nonempty_directory(self, tmp_path, capsys):
        target = tmp_path / "occupied"
        target.mkdir()
        (target / "keep.txt").write_text("precious")
        assert main(["ingest", "--checkpoint-to", str(target)]) != 0
        err = capsys.readouterr().err
        assert "not empty" in err
        assert "Traceback" not in err

    def test_load_wrong_kind_verify_message(self, tmp_path, capsys):
        from repro.store import SegmentWriter

        path = str(tmp_path / "odd")
        writer = SegmentWriter(path)
        writer.add_json("x.json", {})
        writer.commit("mystery-kind")
        assert main(["load", "--store", path, "--verify"]) != 0
        err = capsys.readouterr().err
        assert "mystery-kind" in err
        assert "Traceback" not in err


class TestServingFlows:
    def test_load_summary_and_verify(self, index_store, capsys):
        assert main(["load", "--store", index_store, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "checksums OK" in out
        assert "byte-identical" in out

    def test_search_from_store(self, index_store, capsys):
        assert (
            main(
                [
                    "search",
                    "--from-store",
                    index_store,
                    "--query",
                    "crisis",
                    "--compare",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "cold-started engine from store" in captured.err
        assert "rankings byte-identical across strategies: yes" in captured.out
        # --explain: one line per served query naming the strategy that
        # ran, whether auto chose it, and the sorted accesses.
        for extra, how in (
            ([], "chosen by auto"),
            (["--strategy", "blockmax"], "explicit"),
        ):
            argv = ["search", "--from-store", index_store, "--query", "crisis"]
            assert main(argv + extra + ["--explain"]) == 0
            explained = [
                line.strip()
                for line in capsys.readouterr().out.splitlines()
                if "explain:" in line
            ]
            assert len(explained) == 1, explained
            assert re.fullmatch(
                rf"explain: ran '(scan|blockmax)' \({how}\), "
                r"\d+ sorted access\(es\)",
                explained[0],
            ), explained

    def test_ingest_checkpoint_resume_cycle(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert (
            main(
                [
                    "ingest",
                    "--checkpoint-to",
                    ckpt,
                    "--report-every",
                    "0",
                    "--verify",
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert "checkpoint written" in first
        assert "OK" in first
        # Resume from the checkpoint over the identical feed: every
        # record is already covered, so the engine serves immediately
        # and still matches a cold batch rebuild.
        assert (
            main(
                [
                    "ingest",
                    "--from-store",
                    ckpt,
                    "--report-every",
                    "0",
                    "--verify",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "resuming ingestion" in captured.err
        assert "OK" in captured.out
        assert main(["load", "--store", ckpt, "--verify"]) == 0

    def test_resume_verify_uses_checkpoint_timeline(self, tmp_path, capsys):
        """Regression: --verify rebuilt the cold collection with this
        run's --timeline instead of the checkpoint's, crashing when a
        checkpoint written with a longer timeline was resumed under
        the default."""
        import json

        feed = tmp_path / "feed.jsonl"
        records = [{"type": "stream", "id": "s0", "x": 0.0, "y": 0.0},
                   {"type": "stream", "id": "s1", "x": 1.0, "y": 0.0}]
        doc = 0
        for t in range(60, 100):
            for sid in ("s0", "s1"):
                records.append(
                    {"doc_id": doc, "stream": sid, "timestamp": t,
                     "text": "storm storm" if t % 7 else "calm"}
                )
                doc += 1
        feed.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        ckpt = str(tmp_path / "ckpt")
        assert (
            main(["ingest", "--file", str(feed), "--timeline", "128",
                  "--checkpoint-to", ckpt, "--report-every", "0"])
            == 0
        )
        capsys.readouterr()
        # Resume with the default --timeline (64 < the document range).
        assert (
            main(["ingest", "--file", str(feed), "--from-store", ckpt,
                  "--report-every", "0", "--verify"])
            == 0
        )
        captured = capsys.readouterr()
        assert "OK" in captured.out
        assert "Traceback" not in captured.err


class TestFeedValidation:
    """``repro ingest`` rejects malformed JSONL with line-numbered
    reasons and applies nothing from a bad batch."""

    def test_malformed_json_line_exits_2_with_line_number(
        self, tmp_path, capsys
    ):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(
            '{"type": "stream", "id": "s0", "x": 0.0, "y": 0.0}\n'
            "{this is not json}\n"
        )
        assert main(["ingest", "--file", str(feed)]) == 2
        err = capsys.readouterr().err
        assert f"{feed}:2" in err
        assert "not valid JSON" in err
        assert "no records were applied" in err
        assert "Traceback" not in err

    def test_missing_field_names_line_kind_and_fields(
        self, tmp_path, capsys
    ):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(
            '{"type": "stream", "id": "s0", "x": 0.0, "y": 0.0}\n'
            "\n"
            '{"doc_id": 1, "stream": "s0"}\n'
        )
        assert main(["ingest", "--file", str(feed)]) == 2
        err = capsys.readouterr().err
        assert f"{feed}:3" in err  # blank lines still count
        assert "'doc'" in err
        assert "timestamp" in err and "text" in err
        assert "Traceback" not in err

    def test_unknown_record_type_rejected(self, tmp_path, capsys):
        feed = tmp_path / "feed.jsonl"
        feed.write_text('{"type": "selfdestruct"}\n')
        assert main(["ingest", "--file", str(feed)]) == 2
        err = capsys.readouterr().err
        assert "selfdestruct" in err
        assert "Traceback" not in err

    def test_bad_batch_applies_nothing(self, tmp_path, capsys):
        """A checkpoint target stays untouched when the feed is bad —
        validation happens before any record is applied."""
        feed = tmp_path / "feed.jsonl"
        feed.write_text(
            '{"type": "stream", "id": "s0", "x": 0.0, "y": 0.0}\n'
            '{"type": "advance", "timestamp": "soon"}\n'
        )
        ckpt = tmp_path / "ckpt"
        assert (
            main(["ingest", "--file", str(feed), "--checkpoint-to", str(ckpt)])
            == 2
        )
        err = capsys.readouterr().err
        assert f"{feed}:2" in err
        assert "integer" in err
        assert not ckpt.exists()


class TestFsckRepairCli:
    def test_fsck_clean_store_exit_0(self, index_store, capsys):
        assert main(["fsck", "--store", index_store]) == 0
        out = capsys.readouterr().out
        assert "verdict: clean" in out

    def test_fsck_json_report_written(self, index_store, tmp_path, capsys):
        import json

        out_file = str(tmp_path / "fsck.json")
        assert (
            main(["fsck", "--store", index_store, "--format", "json",
                  "--output", out_file])
            == 0
        )
        with open(out_file) as handle:
            payload = json.load(handle)
        assert payload["exit_code"] == 0
        assert payload["kind"] == "index"
        assert all(v == "ok" for v in payload["files"].values())

    def test_fsck_missing_store_exit_2(self, tmp_path, capsys):
        assert main(["fsck", "--store", str(tmp_path / "nope")]) == 2
        out = capsys.readouterr().out
        assert "unreadable" in out

    def test_corrupt_fsck_repair_fsck_flow(self, index_store, tmp_path, capsys):
        """The CI recovery flow: flip a byte, fsck flags it (exit 1),
        repair quarantines and rebuilds, fsck comes back clean."""
        import shutil

        broken = str(tmp_path / "broken")
        shutil.copytree(index_store, broken)
        corrupt(broken, os.path.join("postings", "scores.npy"))
        assert main(["fsck", "--store", broken]) == 1
        out = capsys.readouterr().out
        assert "checksum mismatch" in out
        assert "postings/scores.npy" in out
        # dry run first: reports, changes nothing
        assert main(["repair", "--store", broken]) == 1
        assert "dry run" in capsys.readouterr().out
        assert main(["fsck", "--store", broken]) == 1
        capsys.readouterr()
        # the real repair
        assert main(["repair", "--store", broken, "--quarantine"]) == 0
        out = capsys.readouterr().out
        assert "quarantined postings/scores.npy" in out
        assert "rebuilt segment postings/" in out
        assert main(["fsck", "--store", broken]) == 0
        capsys.readouterr()
        assert main(["load", "--store", broken, "--verify"]) == 0
        assert os.path.exists(
            os.path.join(broken, "quarantine", "postings", "scores.npy")
        )

    def test_search_degraded_mode(self, index_store, tmp_path, capsys):
        import shutil

        broken = str(tmp_path / "broken")
        shutil.copytree(index_store, broken)
        corrupt(broken, os.path.join("postings", "scores.npy"))
        # default policy refuses
        assert (
            main(["search", "--from-store", broken, "--query", "crisis"])
            != 0
        )
        capsys.readouterr()
        # degrade policy serves, reporting the quarantined term
        assert (
            main(["search", "--from-store", broken, "--query", "crisis",
                  "--on-corruption", "degrade"])
            == 0
        )
        captured = capsys.readouterr()
        assert "DEGRADED MODE" in captured.err or "WARNING" in captured.out
        assert "Traceback" not in captured.err
