"""The stream CLI: normalized flags, removed spellings, end-to-end parity."""

import json

import pytest

from repro.cli import build_parser, main
from repro.stream import DeltaJournal

ARGS = ["--scale-log2", "-14", "--seed", "3"]

#: Every pipeline command must accept the shared knob set after the
#: subcommand (the stream satellites' flag normalization).
PIPELINE_COMMANDS = [
    ["estimate"],
    ["windows"],
    ["health"],
    ["crossval"],
    ["supply"],
    ["sensitivity"],
    ["campaign", "submit"],
    ["stream", "ingest", "--journal", "j"],
    ["stream", "advance", "--journal", "j"],
    ["stream", "snapshot", "--journal", "j"],
]


class TestFlagNormalization:
    @pytest.mark.parametrize("command", PIPELINE_COMMANDS, ids=" ".join)
    def test_knobs_parse_after_the_subcommand(self, command):
        args = build_parser().parse_args(
            command
            + [
                "--store", "store-dir",
                "--quarantine-policy", "strict",
                "--trace", "trace-dir",
                "--metrics-out", "metrics.prom",
                "--inject-faults", "fit:error",
            ]
        )
        assert args.store == "store-dir"
        assert args.quarantine_policy == "strict"
        assert args.trace == "trace-dir"
        assert args.metrics_out == "metrics.prom"
        assert len(args.inject_faults) == 1

    def test_main_parser_value_survives_the_subcommand(self):
        # Knobs given before the subcommand must not be clobbered by
        # the subcommand's (SUPPRESS-defaulted) copies.
        args = build_parser().parse_args(
            ["--store", "early", "--quarantine-policy", "strict", "estimate"]
        )
        assert args.store == "early"
        assert args.quarantine_policy == "strict"

    def test_subcommand_value_wins_over_main(self):
        args = build_parser().parse_args(
            ["--store", "early", "estimate", "--store", "late"]
        )
        assert args.store == "late"

    @pytest.mark.parametrize("spelling", ["--artifact-store", "--trace-dir"])
    def test_removed_spellings_exit_2(self, spelling, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["estimate", spelling, "x"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_deprecated_spellings_are_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--help"])
        help_text = capsys.readouterr().out
        assert "--artifact-store" not in help_text
        assert "--quarantine " not in help_text
        assert "--store" in help_text


class TestStreamParser:
    def test_stream_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream"])

    def test_journal_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "ingest"])

    def test_ingest_flags(self):
        args = build_parser().parse_args(
            ["stream", "ingest", "--journal", "j", "--simulate",
             "--through", "2012.0", "--limit", "40"]
        )
        assert args.simulate and args.through == 2012.0 and args.limit == 40

    def test_advance_windows_repeat(self):
        args = build_parser().parse_args(
            ["stream", "advance", "--journal", "j",
             "--window", "2011.0:2012.0", "--window", "2011.25:2012.25"]
        )
        assert len(args.window) == 2


class TestStreamEndToEnd:
    @pytest.fixture(scope="class")
    def journal_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli-stream")

    def _body(self, text):
        # format_table puts the title on line 1; everything below is
        # the byte-comparable body.
        lines = text.splitlines()
        return [
            line for line in lines[1:]
            if not line.startswith("snapshot written")
        ]

    def test_stream_replay_matches_batch_sweep(self, journal_dir, capsys):
        assert main(ARGS + ["windows"]) == 0
        batch = capsys.readouterr().out

        journal = str(journal_dir / "journal")
        assert main(
            ARGS + ["stream", "ingest", "--journal", journal, "--simulate"]
        ) == 0
        ingest_out = capsys.readouterr().out
        assert "wrote" in ingest_out
        assert "closeable windows: 11" in ingest_out

        assert main(ARGS + ["stream", "advance", "--journal", journal]) == 0
        stream = capsys.readouterr().out
        assert self._body(stream) == self._body(batch)

    def test_ingest_refuses_a_populated_journal(self, journal_dir, capsys):
        journal = str(journal_dir / "journal")
        assert main(
            ARGS + ["stream", "ingest", "--journal", journal, "--simulate"]
        ) == 2
        assert "not empty" in capsys.readouterr().err

    def test_snapshot_requires_store(self, journal_dir, capsys):
        journal = str(journal_dir / "journal")
        assert main(ARGS + ["stream", "snapshot", "--journal", journal]) == 2
        assert "--store" in capsys.readouterr().err

    def test_kill_and_resume_matches_uninterrupted(
        self, journal_dir, tmp_path, capsys
    ):
        journal = str(journal_dir / "journal")
        store = str(tmp_path / "store")
        # Partial ingest + snapshot, as if the process died mid-stream.
        assert main(
            ARGS + ["stream", "ingest", "--journal", journal,
                    "--store", store, "--limit", "40"]
        ) == 0
        capsys.readouterr()
        # A fresh invocation resumes from the snapshot + journal tail.
        assert main(
            ARGS + ["stream", "advance", "--journal", journal,
                    "--store", store]
        ) == 0
        resumed = capsys.readouterr().out
        assert main(ARGS + ["stream", "advance", "--journal", journal]) == 0
        uninterrupted = capsys.readouterr().out
        assert self._body(resumed) == self._body(uninterrupted)

    def test_snapshot_status_report(self, journal_dir, tmp_path, capsys):
        journal = str(journal_dir / "journal")
        store = str(tmp_path / "store")
        assert main(
            ARGS + ["stream", "snapshot", "--journal", journal,
                    "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert "closed windows:" in out
        assert "snapshot written" in out


class TestJournalCorruption:
    @pytest.mark.parametrize("verb", ["ingest", "advance", "snapshot"])
    def test_corrupt_interior_record_fails_in_one_line(
        self, verb, tmp_path, capsys
    ):
        path = tmp_path / "journal"
        journal = DeltaJournal(path)
        journal.declare_source("A", 2011.0)
        for quarter in range(3):
            journal.append("A", quarter, add=[10 + quarter, 20 + quarter])
        # Flip one address digit of line 3, an interior delta: its
        # checksum fails with committed records after it.
        segment = path / "segment-000000.jsonl"
        lines = segment.read_bytes().split(b"\n")
        line = bytearray(lines[2])
        line[line.index(b'"add":[') + 7] ^= 1
        lines[2] = bytes(line)
        segment.write_bytes(b"\n".join(lines))

        code = main(
            ARGS + ["stream", verb, "--journal", str(path),
                    "--store", str(tmp_path / "store")]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "corrupt record at segment-000000.jsonl:3 " in err[0]


class TestJournalPaths:
    @pytest.mark.parametrize("verb", ["advance", "snapshot"])
    def test_read_only_verbs_create_no_journal(self, verb, tmp_path, capsys):
        path = tmp_path / "no" / "such" / "journal"
        code = main(
            ARGS + ["stream", verb, "--journal", str(path),
                    "--store", str(tmp_path / "store")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"no journal at {path}\n"
        assert sorted(tmp_path.iterdir()) == []

    def test_ingest_creates_the_journal(self, tmp_path, capsys):
        path = tmp_path / "new" / "journal"
        assert main(ARGS + ["stream", "ingest", "--journal", str(path)]) == 0
        assert path.is_dir()
        assert "ingested 0 record(s)" in capsys.readouterr().out

    def test_simulated_ingest_builds_the_world_once(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli

        built = []
        real = repro.cli.SyntheticInternet

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.cli, "SyntheticInternet", counted)
        assert main(
            ARGS + ["stream", "ingest", "--journal", str(tmp_path / "journal"),
                    "--simulate", "--through", "2012.0"]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        assert len(built) == 1


class TestLedgerSchemaErrors:
    def test_query_fails_clearly_on_newer_ledger(self, tmp_path, capsys):
        service = tmp_path / "service"
        campaign = service / "c1"
        campaign.mkdir(parents=True)
        (campaign / "ledger.json").write_text(
            json.dumps({"schema": 999, "entries": []})
        )
        code = main(["query", "c1", "--service", str(service)])
        assert code == 2
        err = capsys.readouterr().err
        assert "newer build" in err
        assert "999" in err
