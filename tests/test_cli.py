import json
import resource
import subprocess
import sys

import pytest

from moondec.cli import main
from planting import self_replicable
from conftest import FLAGSHIP_TEXT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_power(capsys):
    code, out, _ = run_cli(capsys, "decompose", "x^4")
    assert code == 0
    assert out == "degrees 2*2: x^2 o x^2\n"


def test_decompose_indecomposable_exit_code(capsys):
    code, out, _ = run_cli(capsys, "decompose", "x^2+x+1")
    assert code == 3
    assert out == "indecomposable\n"


def test_decompose_degree_one_is_a_data_error(capsys):
    code, _, err = run_cli(capsys, "decompose", "x+1")
    assert code == 2
    assert err.startswith("error: invalid-input:")


def test_decompose_flagship_chains(capsys):
    code, out, _ = run_cli(capsys, "decompose", FLAGSHIP_TEXT,
                           "--chains", "--verify")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert sum(1 for l in lines if l.startswith("chain length 3")) == 1
    assert sum(1 for l in lines if l.startswith("chain length 2")) == 2
    long_chain = next(l for l in lines if l.startswith("chain length 3"))
    assert "degrees 3*2*2" in long_chain


@pytest.mark.parametrize("text", ["-x^4", "-5*x^4+x^2"])
@pytest.mark.parametrize("flags", [(), ("--chains",), ("--verify",),
                                   ("--chains", "--verify")])
def test_decompose_leading_minus_needs_no_separator(capsys, text, flags):
    expected = run_cli(capsys, "decompose", *flags, "--", text)
    assert expected[0] == 0
    assert run_cli(capsys, "decompose", *flags, text) == expected
    assert run_cli(capsys, "decompose", text, *flags) == expected


def test_decompose_help_and_missing_function_stay_usage(capsys):
    code, out, _ = run_cli(capsys, "decompose", "-h")
    assert code == 0
    assert out.startswith("usage: moondec decompose")
    assert run_cli(capsys, "decompose", "--chains")[0] == 1
    assert run_cli(capsys, "decompose", "-x^4", "-x^2")[0] == 1


def test_decompose_one_level_verify(capsys):
    plain = run_cli(capsys, "decompose", FLAGSHIP_TEXT)
    code, out, _ = run_cli(capsys, "decompose", FLAGSHIP_TEXT, "--verify")
    assert code == plain[0] == 0
    assert out == plain[1]
    assert out.count("\n") == 4


@pytest.mark.parametrize("flags", [("--verify",), ("--chains", "--verify")])
def test_decompose_verify_catches_misprint(capsys, monkeypatch, flags):
    import moondec.cli as cli
    real = cli.ratfun_text
    monkeypatch.setattr(cli, "ratfun_text", lambda f: real(f) + "+1")
    code, _, err = run_cli(capsys, "decompose", FLAGSHIP_TEXT, *flags)
    assert code == 2
    assert err.startswith("error: verification-failure:")


def test_decompose_syntax_error(capsys):
    code, _, err = run_cli(capsys, "decompose", "x^")
    assert code == 2
    assert err.startswith("error: syntax-error:")


def test_usage_error_exit_one(capsys):
    assert main(["decompose"]) == 1
    assert main(["no-such-verb"]) == 1
    capsys.readouterr()


def test_relate_bundled_synthetic_pair(capsys, synthetic_pair_path):
    code, out, _ = run_cli(capsys, "relate", "--catalog",
                           str(synthetic_pair_path),
                           "--from", "TOP", "--to", "BASE", "--verify")
    assert code == 0
    assert out == "r=1 e=2 verified_to=15 f=(x^2+2*x+3)/(x+5)\n"


def test_relate_none_direction(capsys, synthetic_pair_path):
    code, out, _ = run_cli(capsys, "relate", "--catalog",
                           str(synthetic_pair_path),
                           "--from", "BASE", "--to", "TOP")
    assert code == 3
    assert out == "none\n"


def test_relate_all_r_moonshine(capsys, moonshine_catalog_path):
    code, out, _ = run_cli(capsys, "relate", "--catalog",
                           str(moonshine_catalog_path),
                           "--from", "1A", "--to", "9B", "--all-r")
    assert code == 0
    lines = out.strip().split("\n")
    assert [l.split()[0] for l in lines] == ["r=1", "r=3", "r=9"]
    from moondec.parsing import parse_ratfun
    from moondec.ratfun import ratfun_text
    expanded = ratfun_text(parse_ratfun(FLAGSHIP_TEXT))
    assert any(l.endswith(f"f={expanded}") for l in lines)


def test_relate_nonpositive_degree(capsys, moonshine_catalog_path):
    code, _, err = run_cli(capsys, "relate", "--catalog",
                           str(moonshine_catalog_path),
                           "--from", "1A", "--to", "9B", "--e", "0")
    assert code == 2
    assert err.startswith("error: invalid-input:")


def test_relate_unknown_node(capsys, moonshine_catalog_path):
    code, _, err = run_cli(capsys, "relate", "--catalog",
                           str(moonshine_catalog_path),
                           "--from", "1A", "--to", "nope")
    assert code == 2
    assert err.startswith("error: unknown-node:")


def test_relate_determinism(capsys, moonshine_catalog_path):
    args = ("relate", "--catalog", str(moonshine_catalog_path),
            "--from", "1A", "--to", "9B")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_relate_emax_scan_is_lazy(capsys, moonshine_catalog_path):
    # the area quotient 9B -> 1A is not natural, so --emax bounds a scan
    # that stops at the first degree the series cannot certify
    args = ("relate", "--catalog", str(moonshine_catalog_path),
            "--from", "9B", "--to", "1A", "--emax")
    expected = run_cli(capsys, *args, "30")
    assert expected[:2] == (3, "none\n")
    assert run_cli(capsys, *args, str(10 ** 12)) == expected


@pytest.mark.parametrize("emax", ["0", "-1"])
@pytest.mark.parametrize("verb", ["relate", "graph-build", "modpoly"])
def test_nonpositive_emax_is_invalid_input(capsys, tmp_path,
                                           moonshine_catalog_path, verb,
                                           emax):
    # 9B -> 1A has no natural area quotient, so relate reads --emax
    extra = {"relate": ["--from", "9B", "--to", "1A"],
             "graph-build": ["--out", str(tmp_path / "g.jsonl")],
             "modpoly": ["--target", "9B"]}[verb]
    code, out, err = run_cli(capsys, verb, "--catalog",
                             str(moonshine_catalog_path), *extra,
                             "--emax", emax)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid-input:")
    assert not (tmp_path / "g.jsonl").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_nonpositive_jobs_is_invalid_input(capsys, tmp_path,
                                           moonshine_catalog_path, jobs):
    code, out, err = run_cli(capsys, "graph-build", "--catalog",
                             str(moonshine_catalog_path),
                             "--out", str(tmp_path / "g.jsonl"),
                             "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid-input: --jobs")
    assert not (tmp_path / "g.jsonl").exists()


@pytest.fixture()
def replicable_catalog(tmp_path):
    base = self_replicable(4, 2, 24)
    path = tmp_path / "replicable.jsonl"
    rec = {"name": "B", "area": "1",
           "coeffs": [str(c) for c in base.coeffs]}
    path.write_text(json.dumps(rec) + "\n")
    return path


def test_modpoly_classical_shape(capsys, replicable_catalog):
    code, out, _ = run_cli(capsys, "modpoly", "--catalog",
                           str(replicable_catalog), "--target", "B",
                           "--emax", "2")
    assert code == 0
    assert out == "source=B r1=1 r2=2 k1=2 k2=1 P=x-y^2-4*y-2\n"


def test_modpoly_none(capsys, synthetic_pair_path):
    code, out, _ = run_cli(capsys, "modpoly", "--catalog",
                           str(synthetic_pair_path), "--target", "BASE",
                           "--emax", "2")
    assert code == 3
    assert out == "none\n"


def test_graph_workflow(capsys, tmp_path, moonshine_catalog_path, flagship):
    graph_path = tmp_path / "graph.jsonl"
    refined_path = tmp_path / "refined.jsonl"
    report_path = tmp_path / "report.jsonl"

    code, out, _ = run_cli(capsys, "graph-build",
                           "--catalog", str(moonshine_catalog_path),
                           "--out", str(graph_path),
                           "--report", str(report_path))
    assert code == 0
    assert out == "nodes=2 edges=1\n"
    report = [json.loads(l) for l in report_path.read_text().splitlines()]
    assert report == [{"kind": "skip", "from": "9B", "to": "1A",
                       "reason": "area-quotient-not-natural"}]

    # the bundled pair relates at r=1 (the index-12 relation), whose
    # function refines through a single intermediate
    code, out, _ = run_cli(capsys, "graph-refine", "--in", str(graph_path),
                           "--out", str(refined_path),
                           "--report", str(report_path))
    assert code == 0
    assert out == "nodes=3 edges=2\n"

    code, out, _ = run_cli(capsys, "chains", "--in", str(refined_path),
                           "--from", "1A", "--to", "9B")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].count("->") == 2

    code, out, _ = run_cli(capsys, "export", "--in", str(refined_path),
                           "--format", "dot")
    assert code == 0
    assert out.startswith("digraph relations {")
    assert 'label="d=' in out

    code, out, _ = run_cli(capsys, "export", "--in", str(refined_path),
                           "--format", "jsonlines")
    assert code == 0
    assert out.encode() == refined_path.read_bytes()


def test_graph_build_skips_a_pair_short_of_precision(
        capsys, tmp_path, moonshine_catalog_path):
    # the degree-12 pair 1A -> 9B needs both series through q^25
    catalog = tmp_path / "cut.jsonl"
    records = [json.loads(line) for line in
               moonshine_catalog_path.read_text().splitlines()]
    catalog.write_text("".join(
        json.dumps({**rec, "coeffs": rec["coeffs"][:21]}) + "\n"
        for rec in records))
    report_path = tmp_path / "report.jsonl"
    code, out, _ = run_cli(capsys, "graph-build", "--catalog", str(catalog),
                           "--out", str(tmp_path / "graph.jsonl"),
                           "--report", str(report_path))
    assert (code, out) == (0, "nodes=2 edges=0\n")
    assert report_path.read_text().splitlines() == [
        '{"kind":"skip","from":"1A","to":"9B",'
        '"reason":"insufficient-precision"}',
        '{"kind":"skip","from":"9B","to":"1A",'
        '"reason":"area-quotient-not-natural"}']


def test_chains_same_node(capsys, tmp_path, moonshine_catalog_path):
    graph_path = tmp_path / "graph.jsonl"
    run_cli(capsys, "graph-build", "--catalog", str(moonshine_catalog_path),
            "--out", str(graph_path))
    code, out, _ = run_cli(capsys, "chains", "--in", str(graph_path),
                           "--from", "1A", "--to", "1A")
    assert code == 0
    assert out == "(empty path)\n"


def test_chains_on_a_long_path_graph(capsys, tmp_path):
    n = 1500
    graph_path = tmp_path / "path.jsonl"
    graph_path.write_text("".join(
        [json.dumps({"type": "node", "name": f"A{i}", "coeffs": []}) + "\n"
         for i in range(n)]
        + [json.dumps({"type": "edge", "from": f"A{i}", "to": f"A{i + 1}",
                       "d": 1, "r": 1, "f": "x"}) + "\n"
           for i in range(n - 1)]))
    code, out, err = run_cli(capsys, "chains", "--in", str(graph_path),
                             "--from", "A0", "--to", f"A{n - 1}")
    assert (code, err) == (0, "")
    assert out.count("\n") == 1
    assert out.count("->") == n - 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "moondec.cli", "decompose", "x^4"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "degrees 2*2: x^2 o x^2\n"


def test_refine_rejects_an_edge_whose_power_is_not_its_pole_order(
        capsys, tmp_path, moonshine_catalog_path):
    """src(q^r) holds r times as many terms as src, so an edge with a huge
    r must fail verification on its pole orders before anything is
    expanded; under a memory cap the expansion would be a MemoryError."""
    graph = tmp_path / "graph.jsonl"
    assert run_cli(capsys, "graph-build", "--catalog",
                   str(moonshine_catalog_path), "--out", str(graph))[0] == 0
    records = [json.loads(line) for line in graph.read_text().splitlines()]
    for rec in records:
        if rec["type"] == "edge" and rec["d"] == 12:
            rec["r"] *= 10 ** 15
    huge = tmp_path / "huge.jsonl"
    huge.write_text("".join(json.dumps(rec) + "\n" for rec in records))

    def cap_memory():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "moondec.cli", "graph-refine", "--in",
         str(huge), "--out", str(tmp_path / "refined.jsonl")],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_memory)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: verification-failure: refined edge")
    assert "does not verify" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_chains_malformed_graph_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type":"node","name":"a","coeffs":[]}\n{"type":"node"}\n')
    code, out, err = run_cli(capsys, "chains", "--in", str(bad),
                             "--from", "a", "--to", "a")
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse-error: line 2:")
    assert "Traceback" not in err


def test_optimized_interpreter_same_output(capsys):
    """Invariant checks are not asserts, so -O changes nothing."""
    argv = ["decompose", FLAGSHIP_TEXT, "--chains"]
    code, out, _ = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, "-O", "-m", "moondec.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert code == proc.returncode == 0
    assert proc.stdout == out


@pytest.mark.parametrize("text", ["x^²", "x^٣", "²*x", "₂", "x^2+٣"])
def test_decompose_non_ascii_digits_are_a_syntax_error(capsys, text):
    code, out, err = run_cli(capsys, "decompose", text)
    assert (code, out) == (2, "")
    assert err.startswith("error: syntax-error:")


@pytest.mark.parametrize("verb", [
    ["chains", "--from", "1A", "--to", "9B"],
    ["export", "--format", "dot"],
    ["graph-refine", "--out", "{out}"],
])
def test_graph_edge_with_non_ascii_digits_is_a_parse_error(
        capsys, tmp_path, moonshine_catalog_path, verb):
    graph_path = tmp_path / "graph.jsonl"
    run_cli(capsys, "graph-build", "--catalog", str(moonshine_catalog_path),
            "--out", str(graph_path))
    lines = graph_path.read_text().splitlines()
    edge = json.loads(lines[-1])
    edge["f"] = "x^²"
    graph_path.write_text("\n".join(lines[:-1] + [json.dumps(edge)]) + "\n")
    argv = [a.format(out=tmp_path / "out.jsonl") for a in verb]
    code, out, err = run_cli(capsys, argv[0], "--in", str(graph_path),
                             *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: parse-error: line 3: bad function:")


def _refine_names(capsys, tmp_path, graph_path):
    """Refine a graph file; the node names of the result, which must load."""
    out = tmp_path / "refined.jsonl"
    code, stdout, err = run_cli(capsys, "graph-refine", "--in",
                                str(graph_path), "--out", str(out))
    assert (code, err) == (0, "")
    assert stdout.endswith(" edges=2\n")  # the one edge split in two
    code, _, err = run_cli(capsys, "export", "--in", str(out),
                           "--format", "dot")
    assert (code, err) == (0, "")
    return [json.loads(line)["name"] for line in out.read_text().splitlines()
            if json.loads(line)["type"] == "node"]


def test_refine_skips_a_catalog_node_named_like_a_synthetic_one(
        capsys, tmp_path, moonshine_catalog_path):
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text(moonshine_catalog_path.read_text() + json.dumps(
        {"name": "X1", "area": "7/5", "coeffs": ["1", "2", "3"]}) + "\n")
    graph_path = tmp_path / "graph.jsonl"
    run_cli(capsys, "graph-build", "--catalog", str(catalog),
            "--out", str(graph_path))
    assert _refine_names(capsys, tmp_path, graph_path) == \
        ["1A", "9B", "X1", "X2"]


def test_refine_skips_a_renamed_catalog_node(capsys, tmp_path,
                                             moonshine_catalog_path):
    graph_path = tmp_path / "graph.jsonl"
    run_cli(capsys, "graph-build", "--catalog", str(moonshine_catalog_path),
            "--out", str(graph_path))
    graph_path.write_text(graph_path.read_text().replace('"9B"', '"X1"'))
    assert _refine_names(capsys, tmp_path, graph_path) == ["1A", "X1", "X2"]


def test_refine_survives_a_synthetic_id_too_long_for_int(
        capsys, tmp_path, moonshine_catalog_path):
    graph_path = tmp_path / "graph.jsonl"
    run_cli(capsys, "graph-build", "--catalog", str(moonshine_catalog_path),
            "--out", str(graph_path))
    huge = "X" + "7" * 5000
    node = {"type": "node", "name": huge, "origin": "synthetic",
            "coeffs": ["0"] * 8}
    lines = graph_path.read_text().splitlines()
    graph_path.write_text("\n".join([json.dumps(node)] + lines) + "\n")
    names = _refine_names(capsys, tmp_path, graph_path)
    assert sorted(names) == sorted([huge, "1A", "9B", "X1"])


def test_one_parser_per_process_prints_what_a_fresh_process_prints(
        capsys, tmp_path, moonshine_catalog_path):
    """The argparse parser is built once per process and reused: a usage
    error, then a data error, then a valid chains call in this process
    print the same bytes and exit codes as each in a fresh process."""
    built, graph = tmp_path / "graph.jsonl", tmp_path / "refined.jsonl"
    assert run_cli(capsys, "graph-build", "--catalog",
                   str(moonshine_catalog_path), "--out", str(built))[0] == 0
    assert run_cli(capsys, "graph-refine", "--in", str(built),
                   "--out", str(graph))[0] == 0
    calls = [["chains", "--in", str(graph), "--from", "1A"],
             ["chains", "--in", str(graph), "--from", "1A", "--to", "2B"],
             ["chains", "--in", str(graph), "--from", "1A", "--to", "9B"]]
    seen = []
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "moondec.cli", *argv],
                               capture_output=True, text=True, timeout=120)
        assert run_cli(capsys, *argv) == \
            (fresh.returncode, fresh.stdout, fresh.stderr)
        seen.append(fresh.returncode)
    assert seen == [1, 2, 0]
