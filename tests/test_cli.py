import json
import subprocess
import sys

import pytest

from xhomotopy import cli
from xhomotopy.cli import run_cli

DOC = """\
graph triangle
vertices: a b c
edges: a-b b-c a-c

graph path
vertices: 1 2 3
edges: 1-2 2-3

graph edge
vertices: 1 2
edges: 1-2

graph path2
vertices: u v w
edges: u-v v-w

map fold : path -> edge
1 -> 1
2 -> 2
3 -> 1

map coloring : path -> triangle
1 -> a
2 -> b
3 -> a
"""


@pytest.fixture
def doc_file(tmp_path):
    path = tmp_path / "doc.graphs"
    path.write_text(DOC)
    return str(path)


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_parse_round_trips(self, doc_file, capsys):
        code, out, _ = run(capsys, "parse", doc_file)
        assert code == 0
        assert "graph triangle" in out and "map fold : path -> edge" in out

    def test_stiff_all_graphs(self, doc_file, capsys):
        code, out, _ = run(capsys, "stiff", doc_file)
        assert code == 0
        assert "triangle: (already stiff)" in out

    def test_stiff_json(self, doc_file, capsys):
        code, out, _ = run(capsys, "stiff", doc_file, "path", "--json")
        assert code == 0
        blob = json.loads(out)
        # the first-policy fold is (1 -> 3), leaving the edge {2, 3}
        assert blob["path"]["resultVertices"] == ["2", "3"]

    def test_iso_exit_codes(self, doc_file, capsys):
        assert run(capsys, "iso", doc_file, "path", "path2")[0] == 0
        assert run(capsys, "iso", doc_file, "path", "triangle")[0] == 1

    def test_homs_counting(self, doc_file, capsys):
        code, out, _ = run(capsys, "homs", doc_file, "edge", "triangle", "--count-only")
        assert code == 0 and out.startswith("6 maps")

    def test_homs_count_only_reads_only_the_count(self, doc_file, capsys, monkeypatch):
        class Unlisted(list):
            def __iter__(self):
                raise AssertionError("no per-hom output expected")

        monkeypatch.setattr(cli, "enumerate_hom_assignments", lambda *args, **kwargs: Unlisted([("a", "b")] * 6))
        code, out, _ = run(capsys, "homs", doc_file, "edge", "triangle", "--count-only")
        assert code == 0 and out == "6 maps\n"

    def test_homs_json_lists_the_maps_with_or_without_count_only(self, doc_file, capsys):
        full = run(capsys, "homs", doc_file, "path", "edge", "--json")
        assert run(capsys, "homs", doc_file, "path", "edge", "--json", "--count-only") == full
        assert json.loads(full[1]) == {
            "count": 2,
            "maps": [{"1": "1", "2": "2", "3": "1"}, {"1": "2", "2": "1", "3": "2"}],
        }

    def test_homotopic(self, doc_file, capsys):
        code, out, _ = run(capsys, "homotopic", doc_file, "coloring", "coloring", "--json")
        assert code == 0
        assert json.loads(out)["homotopic"] is True

    def test_is_weq(self, doc_file, capsys):
        assert run(capsys, "is-weq", doc_file, "fold")[0] == 0
        assert run(capsys, "is-weq", doc_file, "coloring")[0] == 1

    def test_equiv(self, doc_file, capsys):
        assert run(capsys, "equiv", doc_file, "path", "edge")[0] == 0
        assert run(capsys, "equiv", doc_file, "path", "triangle")[0] == 1

    def test_in_w(self, doc_file, capsys):
        code, out, _ = run(capsys, "in-w", doc_file, "fold", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "in"

    def test_product(self, doc_file, capsys):
        code, out, _ = run(capsys, "product", doc_file, "edge", "edge", "--json")
        assert code == 0
        assert "vertices: (1,1) (1,2) (2,1) (2,2)" in json.loads(out)["graph"]

    def test_pushout_and_cylinder(self, doc_file, capsys):
        code, out, _ = run(capsys, "pushout", doc_file, "fold", "coloring", "--json")
        assert code == 0 and "apex" in json.loads(out)
        code, out, _ = run(capsys, "cylinder", doc_file, "coloring", "--json")
        assert code == 0 and "retract" in json.loads(out)

    def test_counterexample(self, doc_file, capsys):
        code, out, _ = run(capsys, "counterexample", doc_file, "fold", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["report"]["case"] == "simple"
        assert blob["report"]["equivalent"] is False

    def test_check_axiom(self, doc_file, capsys):
        code, out, _ = run(capsys, "check-axiom", "2of3", doc_file, "fold", "fold", "--json")
        assert code == 2  # fold then fold is not composable in this document
        code, out, _ = run(capsys, "check-axiom", "2of3", doc_file, "coloring", "coloring")
        assert code == 2  # path -> triangle -> ? not composable either

    def test_export_dot(self, doc_file, capsys, tmp_path):
        target = tmp_path / "out.dot"
        code, _, _ = run(capsys, "export-dot", doc_file, "triangle", "-o", str(target))
        assert code == 0
        assert target.read_text().startswith('graph "triangle" {')


class TestVerifySuites:
    def test_verify_all_passes(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "all")
        assert code == 0
        assert "suite figure1" in out and "suite thm36" in out

    def test_single_suite_json(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "figure3", "--json")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1 and reports[0]["suite"] == "figure3"

    def test_dot_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "dots"
        code, _, _ = run(capsys, "verify-paper", "figure3", "--dot-dir", str(out_dir), "--quiet")
        assert code == 0
        assert (out_dir / "fig3.D.dot").exists()

    def test_budget_exhaustion_yields_partial_report_and_exit_3(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "figure1", "--budget", "5")
        assert code == 3
        assert "[UNKNOWN]" in out and "[PASS" in out


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["definitely-not-a-command"])
        assert err.value.code == 2

    def test_missing_file_is_2(self, capsys):
        assert run(capsys, "parse", "/nonexistent/nope.graphs")[0] == 2

    def test_undecodable_file_is_2(self, tmp_path, capsys):
        path = tmp_path / "binary.graphs"
        path.write_bytes(b"graph g\nvertices: a\xff b\n")
        code, out, err = run(capsys, "parse", str(path))
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_budget_exhaustion_is_3(self, doc_file, capsys):
        code, _, err = run(capsys, "homs", doc_file, "triangle", "triangle", "--budget", "2")
        assert code == 3
        assert "budget" in err

    def test_budget_from_environment(self, doc_file, capsys, monkeypatch):
        monkeypatch.setenv("XHOMOTOPY_BUDGET", "2")
        code, _, err = run(capsys, "homs", doc_file, "triangle", "triangle")
        assert code == 3
        monkeypatch.setenv("XHOMOTOPY_BUDGET", "nonsense")
        assert run(capsys, "homs", doc_file, "triangle", "triangle")[0] == 2

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_resource_exhaustion_is_3(self, doc_file, capsys, monkeypatch, error):
        def exhaust(*args, **kwargs):
            raise error("maximum recursion depth exceeded" if error is RecursionError else "")

        monkeypatch.setattr(cli, "is_isomorphic", exhaust)
        code, out, err = run(capsys, "iso", doc_file, "triangle", "triangle")
        assert code == 3 and out == ""
        assert err == f"undecided: {error.__name__} before an answer was reached\n"

    def test_check_axiom_composable_chain(self, tmp_path, capsys):
        text = (
            "graph a\nvertices: p\nedges: p-p\n\n"
            "graph b\nvertices: q r\nedges: q-q r-r q-r\n\n"
            "map up : a -> b\np -> q\n\n"
            "map down : b -> a\nq -> p\nr -> p\n"
        )
        path = tmp_path / "chain.graphs"
        path.write_text(text)
        code, out, _ = run(capsys, "check-axiom", "2of3", str(path), "up", "down", "--class", "wx", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["memberships"] == {"f": "in", "g": "in", "gf": "in"}


# `--help` output recorded with COLUMNS=80 before the parser was cached
MAIN_HELP = """\
usage: xhomotopy [-h]
                 {parse,stiff,iso,homs,homotopic,is-weq,equiv,in-w,product,pushout,cylinder,counterexample,check-axiom,verify-paper,export-dot}
                 ...

Command-line front end. Exit codes: 0 success (and, for decision commands, a
positive answer), 1 negative answer or failed asserted claim, 2 usage or input
errors, 3 undecided: an exhausted search budget (with a partial report where
possible), or an input that ran the interpreter out of memory or recursion
depth (one "undecided:" line on stderr).

positional arguments:
  {parse,stiff,iso,homs,homotopic,is-weq,equiv,in-w,product,pushout,cylinder,counterexample,check-axiom,verify-paper,export-dot}
    parse               validate and echo a graphs/maps file
    stiff               fold a graph down to a stiff subgraph
    iso                 search for an isomorphism
    homs                enumerate edge-preserving maps
    homotopic           decide homotopy of two named maps
    is-weq              decide homotopy equivalence of a map
    equiv               decide equivalence of two graphs
    in-w                relaxed-class membership of a map
    product             categorical product of two graphs
    pushout             pushout of two maps with shared domain
    cylinder            mapping cylinder factorization
    counterexample      cobase-change counterexample
    check-axiom         two-out-of-three / two-out-of-six instance check
    verify-paper        run the bundled verification suites
    export-dot          export graphs as DOT

options:
  -h, --help            show this help message and exit
"""

IN_W_HELP = """\
usage: xhomotopy in-w [-h] [--budget BUDGET] [--seed SEED] [--json] [--quiet]
                      [--copy-mode {subgraph,induced}]
                      [--image-mode {image,induced}]
                      file map

positional arguments:
  file
  map

options:
  -h, --help            show this help message and exit
  --budget BUDGET       search budget override
  --seed SEED           seed for randomized policies
  --json                machine-readable output
  --quiet               suppress non-essential output
  --copy-mode {subgraph,induced}
  --image-mode {image,induced}
"""


class TestParserReuse:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    @pytest.mark.parametrize("argv, expected", [(["--help"], MAIN_HELP), (["in-w", "--help"], IN_W_HELP)])
    def test_help_text_is_unchanged(self, argv, expected, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                run_cli(argv)
            assert err.value.code == 0
            assert capsys.readouterr().out == expected

    def test_two_calls_build_the_parser_once(self, doc_file, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        assert run(capsys, "parse", doc_file)[0] == 0
        assert run(capsys, "iso", doc_file, "path", "path2")[0] == 0
        assert built == [1]

    def test_budget_environment_is_read_on_every_call(self, doc_file, capsys, monkeypatch):
        monkeypatch.delenv("XHOMOTOPY_BUDGET", raising=False)
        assert run(capsys, "homs", doc_file, "triangle", "triangle")[0] == 0
        monkeypatch.setenv("XHOMOTOPY_BUDGET", "abc")
        code, _, err = run(capsys, "homs", doc_file, "triangle", "triangle")
        assert code == 2
        assert "XHOMOTOPY_BUDGET" in err

    def test_unknown_command_after_a_successful_call(self, doc_file, capsys):
        assert run(capsys, "parse", doc_file)[0] == 0
        with pytest.raises(SystemExit) as err:
            run_cli(["definitely-not-a-command"])
        assert err.value.code == 2
        assert run(capsys, "parse", doc_file)[0] == 0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "xhomotopy.cli", "verify-paper", "figure2", "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
