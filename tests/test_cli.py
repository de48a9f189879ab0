"""Tests for the fetch-detect command line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def elf_path(tmp_path, rich_binary):
    path = tmp_path / "input.elf"
    path.write_bytes(rich_binary.elf_bytes)
    return str(path)


def test_parser_defaults():
    args = build_parser().parse_args(["binary.elf"])
    assert args.binary == "binary.elf"
    assert not args.no_recursion and not args.no_tailcall


def test_cli_prints_detected_starts(elf_path, rich_binary, capsys):
    assert main([elf_path]) == 0
    output = capsys.readouterr().out
    lines = [line for line in output.splitlines() if line and not line.startswith("#")]
    detected = {int(line.split()[0], 16) for line in lines}
    truth = rich_binary.ground_truth.function_starts
    assert len(detected & truth) / len(truth) > 0.97


def test_cli_reports_merged_parts(elf_path, capsys):
    assert main([elf_path]) == 0
    output = capsys.readouterr().out
    assert "merged" in output


def test_cli_fde_only_mode(elf_path, rich_binary, capsys):
    assert main([elf_path, "--no-recursion"]) == 0
    output = capsys.readouterr().out
    lines = [line for line in output.splitlines() if line and not line.startswith("#")]
    assert len(lines) == len(rich_binary.image.fdes) - (
        1 if any(f.bad_fde_offset for f in rich_binary.ground_truth.functions) else 0
    ) or len(lines) <= len(rich_binary.image.fdes)


def test_cli_stage_attribution(elf_path, capsys):
    assert main([elf_path, "--stages"]) == 0
    output = capsys.readouterr().out
    assert "\tfde" in output


def test_cli_symbol_comparison(elf_path, capsys):
    assert main([elf_path, "--compare-symbols"]) == 0
    output = capsys.readouterr().out
    assert "symbols:" in output


def test_cli_missing_file_returns_error(capsys):
    assert main(["/nonexistent/path.elf"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_rejects_non_elf_input(tmp_path, capsys):
    path = tmp_path / "not_elf.bin"
    path.write_bytes(b"definitely not an ELF file")
    assert main([str(path)]) == 1


def test_cli_warns_without_eh_frame(tmp_path, capsys):
    from repro.elf import ElfFile, Section
    from repro.elf.writer import write_elf
    from repro.elf import constants as C

    text = Section(
        name=".text", data=b"\xc3" + b"\x90" * 15, address=0x401000,
        flags=C.SHF_ALLOC | C.SHF_EXECINSTR,
    )
    path = tmp_path / "noeh.elf"
    path.write_bytes(write_elf(ElfFile(sections=[text], entry_point=0x401000)))
    assert main([str(path)]) == 0
    assert "no .eh_frame" in capsys.readouterr().err


def test_cli_multiple_binaries_worker_processes(elf_path, tmp_path, capsys):
    other = tmp_path / "other.elf"
    other.write_bytes(open(elf_path, "rb").read())
    paths = [str(other), elf_path, str(other), elf_path]
    assert main([*paths, "--workers", "2"]) == 0
    headers = [
        line.rsplit(" in ", 1)[1]
        for line in capsys.readouterr().out.splitlines()
        if "function starts detected" in line
    ]
    assert headers == paths


def test_cli_json_output_matches_text(elf_path, capsys):
    import json as json_module

    assert main([elf_path]) == 0
    text = capsys.readouterr().out
    text_starts = [
        int(line.split()[0], 16)
        for line in text.splitlines()
        if line and not line.startswith("#")
    ]

    assert main([elf_path, "--json"]) == 0
    document = json_module.loads(capsys.readouterr().out)
    record = document["binaries"][0]
    assert record["function_starts"] == text_starts
    assert record["count"] == len(text_starts)
    assert record["detector"] == "fetch"
    assert "fde" in record["stages"]
    assert set(record["timings_seconds"]) == {"load", "detect"}
    assert record["cached"] is False


def test_cli_detector_flag_runs_any_registered_tool(elf_path, capsys):
    assert main([elf_path, "--detector", "ida"]) == 0
    assert "function starts detected" in capsys.readouterr().out

    with pytest.raises(SystemExit):
        main([elf_path, "--detector", "objdump"])


def test_cli_list_detectors(capsys):
    assert main(["--list-detectors"]) == 0
    output = capsys.readouterr().out
    for name in ("fetch", "ghidra", "byteweight"):
        assert name in output


def test_cli_store_caches_detection(elf_path, tmp_path, capsys):
    import json as json_module

    store_dir = str(tmp_path / "store")
    assert main([elf_path]) == 0
    plain = capsys.readouterr().out

    assert main([elf_path, "--store", store_dir]) == 0
    cold = capsys.readouterr().out
    assert cold == plain, "store must not change the text output"

    assert main([elf_path, "--store", store_dir, "--json"]) == 0
    record = json_module.loads(capsys.readouterr().out)["binaries"][0]
    assert record["cached"] is True

    # cached runs render --stages identically to uncached ones
    assert main([elf_path, "--stages"]) == 0
    uncached_stages = capsys.readouterr().out
    assert main([elf_path, "--stages", "--store", store_dir]) == 0
    assert capsys.readouterr().out == uncached_stages


def test_cli_no_store_overrides_environment(elf_path, tmp_path, monkeypatch, capsys):
    import json as json_module

    store_dir = tmp_path / "envstore"
    monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
    assert main([elf_path, "--no-store", "--json"]) == 0
    capsys.readouterr()
    assert not store_dir.exists()

    assert main([elf_path, "--json"]) == 0
    record = json_module.loads(capsys.readouterr().out)["binaries"][0]
    assert record["cached"] is False and store_dir.exists()


def test_cli_corpus_build_and_info(tmp_path, capsys):
    store_dir = str(tmp_path / "corpus-store")
    args = ["corpus", "build", "--kind", "scenario-matrix", "--scale", "0.1",
            "--programs", "1", "--store", store_dir]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "6 built" in first

    assert main(args) == 0
    second = capsys.readouterr().out
    assert "6 corpus manifest(s) reused" in second

    assert main(["corpus", "info", "--store", store_dir]) == 0
    info = capsys.readouterr().out
    assert "6 corpus manifest(s)" in info
    assert "scenario=vanilla" in info


def test_cli_store_stats_gc(tmp_path, capsys):
    import json as json_module

    store_dir = str(tmp_path / "maint-store")
    build = ["corpus", "build", "--kind", "scenario-matrix", "--scale", "0.1",
             "--programs", "1", "--store", store_dir]
    assert main(build) == 0
    capsys.readouterr()

    assert main(["store", "stats", "--store", store_dir, "--json"]) == 0
    stats = json_module.loads(capsys.readouterr().out)
    assert stats["root"] == store_dir
    assert stats["entries"] == sum(
        bucket["entries"] for bucket in stats["namespaces"].values()
    )
    assert stats["namespaces"]["corpora"]["entries"] == 6
    assert stats["namespaces"]["objects"]["entries"] > 0

    assert main(["store", "gc", "--dry-run", "--max-age-days", "30",
                 "--store", store_dir, "--json"]) == 0
    preview = json_module.loads(capsys.readouterr().out)
    assert preview["dry_run"] is True
    assert preview["evicted"] == 0, "nothing is 30 days old yet"
    assert preview["examined"] > 0

    # evict everything evictable; manifests survive and corpora still list
    assert main(["store", "gc", "--max-bytes", "0", "--store", store_dir]) == 0
    assert "evicted" in capsys.readouterr().out
    assert main(["corpus", "info", "--store", store_dir]) == 0
    assert "6 corpus manifest(s)" in capsys.readouterr().out


def test_cli_binary_named_store_is_still_analysed(rich_binary, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "store").write_bytes(rich_binary.elf_bytes)
    assert main(["store"]) == 0
    assert "function starts detected in store" in capsys.readouterr().out


def test_cli_bare_store_without_file_shows_subcommand_usage(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit):
        main(["store"])
    assert "gc" in capsys.readouterr().err


def test_cli_binary_named_corpus_is_still_analysed(rich_binary, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus").write_bytes(rich_binary.elf_bytes)
    assert main(["corpus"]) == 0
    assert "function starts detected in corpus" in capsys.readouterr().out


def test_cli_bare_corpus_without_file_shows_subcommand_usage(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit):
        main(["corpus"])
    assert "build" in capsys.readouterr().err
