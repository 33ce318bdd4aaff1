"""End-to-end command-line tests."""

from __future__ import annotations

import json

import pytest

from exists_lab.cli import main
from exists_lab.fixtures import FIG1, FIG2, fixture


@pytest.fixture()
def files(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


@pytest.fixture()
def fig1_path(files):
    return files("fig1.ttl", FIG1)


@pytest.fixture()
def fig2_path(files):
    return files("fig2.ttl", FIG2)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_subselect_query_under_s3(self, capsys, files, fig1_path):
        query = files("q.rq", fixture(2).query)
        code, out, _ = run_cli(
            capsys, "run", "--data", fig1_path, "--query", query, "--semantics", "s3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["bindings"] == [
            {"parent": {"type": "uri", "value": "urn:ex:b"}}
        ]

    def test_subselect_query_under_s1(self, capsys, files, fig1_path):
        query = files("q.rq", fixture(2).query)
        code, out, _ = run_cli(
            capsys, "run", "--data", fig1_path, "--query", query, "--semantics", "s1"
        )
        assert code == 0
        values = [
            b["parent"]["value"] for b in json.loads(out)["results"]["bindings"]
        ]
        assert values == ["urn:ex:a", "urn:ex:b"]

    def test_empty_data_gives_empty_bindings(self, capsys, files):
        data = files("empty.ttl", "")
        query = files("q.rq", fixture(1).query)
        code, out, _ = run_cli(
            capsys, "run", "--data", data, "--query", query, "--semantics", "s2"
        )
        assert code == 0
        assert json.loads(out)["results"]["bindings"] == []

    def test_tsv_format(self, capsys, files, fig1_path):
        query = files("q.rq", fixture(2).query)
        code, out, _ = run_cli(
            capsys,
            "run",
            "--data",
            fig1_path,
            "--query",
            query,
            "--semantics",
            "s1",
            "--format",
            "tsv",
        )
        assert code == 0
        assert out == "?parent\n:a\n:b\n"

    def test_graph_flag_selects_active_graph(self, capsys, files):
        data = files("named.ttl", "GRAPH <urn:ex:g> { :a :p :b . }")
        query = files("q.rq", "SELECT ?x WHERE { ?x :p ?y }")
        code, out, _ = run_cli(
            capsys,
            "run",
            "--data",
            data,
            "--query",
            query,
            "--semantics",
            "s2",
            "--graph",
            "urn:ex:g",
        )
        assert code == 0
        assert json.loads(out)["results"]["bindings"][0]["x"]["value"] == "urn:ex:a"

    def test_parse_error_exits_1(self, capsys, files, fig1_path):
        query = files("bad.rq", "SELECT (1 AS ?x) WHERE { ?y :p ?z }")
        code, _, err = run_cli(
            capsys, "run", "--data", fig1_path, "--query", query, "--semantics", "s1"
        )
        assert code == 1
        assert "unsupported projection expression" in err

    def test_service_evaluation_exits_2(self, capsys, files, fig1_path):
        query = files("svc.rq", "SELECT ?x WHERE { SERVICE <urn:svc> { ?x :p ?y } }")
        code, _, err = run_cli(
            capsys, "run", "--data", fig1_path, "--query", query, "--semantics", "s1"
        )
        assert code == 2
        assert "SERVICE" in err

    def test_output_is_deterministic(self, capsys, files, fig2_path):
        query = files("q.rq", fixture(10).query)
        argv = ["run", "--data", fig2_path, "--query", query, "--semantics", "s2"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestCompare:
    def test_hidden_subselect_variable_row(self, capsys, files, fig1_path):
        query = files("q.rq", fixture(2).query)
        code, out, _ = run_cli(capsys, "compare", "--data", fig1_path, "--query", query)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "s1\t{?parent=:a} {?parent=:b}",
            "s2\t{?parent=:a} {?parent=:b}",
            "s3\t{?parent=:b}",
        ]

    def test_bound_probe_row(self, capsys, files, fig1_path):
        query = files("q.rq", fixture(4).query)
        code, out, _ = run_cli(capsys, "compare", "--data", fig1_path, "--query", query)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "s1\t{}",
            "s2\t{?parent=:a} {?parent=:b}",
            "s3\t{?parent=:a} {?parent=:b}",
        ]

    def test_optional_chain_row(self, capsys, files, fig2_path):
        query = files("q.rq", fixture(10).query)
        code, out, _ = run_cli(capsys, "compare", "--data", fig2_path, "--query", query)
        assert code == 0
        cell = "{?x=:a, ?y=:b, ?z=:c} {?x=:h, ?y=:i}"
        assert out.strip().splitlines() == [f"s{i}\t{cell}" for i in (1, 2, 3)]


class TestPaperTable:
    def test_all_cells_match(self, capsys):
        code, out, _ = run_cli(capsys, "paper-table")
        assert code == 0
        assert "30/30 cells match" in out
        assert len(out.strip().splitlines()) == 12  # header + 10 rows + summary

    def test_only_one_row(self, capsys):
        code, out, _ = run_cli(capsys, "paper-table", "--only", "10")
        assert code == 0
        assert "3/3 cells match" in out

    def test_disabling_s3_subselect_links_breaks_row_2(self, capsys):
        code, out, _ = run_cli(capsys, "paper-table", "--no-s3-subselect-links")
        assert code == 3
        assert "MISMATCH row 2 s3" in out


class TestInspectionCommands:
    def test_normalize_prints_pattern_and_maps(self, capsys, files):
        query = files("q.rq", fixture(2).query)
        code, out, _ = run_cli(capsys, "normalize", "--query", query, "--semantics", "s3")
        assert code == 0
        assert "?__f" in out
        assert "d:" in out and "g:" in out
        assert "<- ?parent" in out

    def test_normalize_seed_env(self, capsys, files, monkeypatch):
        monkeypatch.setenv("EXISTS_LAB_SEED", "7")
        query = files("q.rq", "SELECT ?x WHERE { ?x :p ?y }")
        code, out, _ = run_cli(capsys, "normalize", "--query", query, "--semantics", "s2")
        assert code == 0
        assert "?__f7" in out

    def test_dom_prints_sorted_names(self, capsys, files):
        query = files("q.rq", "SELECT ?b ?a WHERE { ?b :p ?a }")
        code, out, _ = run_cli(capsys, "dom", "--query", query)
        assert code == 0
        assert out.splitlines() == ["a", "b"]

    def test_bind_prints_serialized_pattern(self, capsys, files):
        query = files("q.rq", fixture(3).query)
        code, out, _ = run_cli(
            capsys,
            "bind",
            "--query",
            query,
            "--semantics",
            "s2",
            "--mapping",
            "?parent=:b",
        )
        assert code == 0
        assert "VALUES (?parent) { (:b) }" in out
        assert ":b" in out

    def test_bad_mapping_exits_1(self, capsys, files):
        query = files("q.rq", fixture(3).query)
        code, _, err = run_cli(
            capsys,
            "bind",
            "--query",
            query,
            "--semantics",
            "s2",
            "--mapping",
            "parent::b",
        )
        assert code == 1
        assert "mapping" in err

    def test_non_integer_seed_names_the_variable(self, capsys, files, monkeypatch):
        monkeypatch.setenv("EXISTS_LAB_SEED", "abc")
        query = files("q.rq", "SELECT ?x WHERE { ?x :p ?y }")
        code, _, err = run_cli(capsys, "normalize", "--query", query, "--semantics", "s2")
        assert code == 1
        assert err == "error: EXISTS_LAB_SEED must be an integer, got 'abc'\n"


class TestErrors:
    def test_recursion_limit_exits_4_with_one_line(self, capsys, files):
        disjuncts = " || ".join(["bound(?x)"] * 1500)
        data = files("d.ttl", ":a :p :b .")
        query = files("q.rq", f"SELECT ?x WHERE {{ ?x :p ?o FILTER ({disjuncts}) }}")
        code, out, err = run_cli(
            capsys, "run", "--data", data, "--query", query, "--semantics", "s1"
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
