import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from enum import IntEnum
from pathlib import Path
from subprocess import PIPE
from typing import NamedTuple

import pytest

import chercomb.cli as cli
import chercomb.peeling as peeling
from chercomb import LaurentPoly
from chercomb.cli import build_parser, main
from chercomb.contextio import context_to_json, parse_context, ParseError
from chercomb.selfcheck import OracleRun
from chercomb.tensor import FactorReport

HOOK_CONTEXT = {
    "e": 5,
    "multicharge": [0],
    "theta": ["0"],
    "g": "1",
    "gamma": [[5, 1, 1, 1, 1]],
    "residues": [0],
    "multiset": {"0": 1},
}

DECORATION_CONTEXT = {
    "e": 4,
    "multicharge": [1] * 10,
    "theta": [f"{78 * k}/11" for k in range(10)],
    "g": "1",
}


@pytest.fixture
def hook_file(tmp_path):
    path = tmp_path / "hook.json"
    path.write_text(json.dumps(HOOK_CONTEXT))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_context_minimal(hook_file):
    ctx, gctx, eps = parse_context(hook_file)
    assert ctx.e == 5 and gctx is not None and len(gctx) == 3


def test_missing_context_file_is_named(capsys, tmp_path):
    missing = str(tmp_path / "no_such_file.json")
    code, out = run(capsys, "validate", missing)
    assert code == 1
    detail = json.loads(out)["detail"]
    assert missing in detail and "no context file" in detail
    # an existing file with bad JSON is still reported as bad JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "validate", str(bad))
    assert code == 1 and json.loads(out)["detail"].startswith("not valid JSON")


def test_parse_context_rejects_bad_inputs():
    with pytest.raises(Exception):
        parse_context({"e": 2, "multicharge": [0], "theta": ["0"], "g": "1"})
    with pytest.raises(Exception):
        parse_context({"e": 4, "multicharge": [0, 0], "theta": ["0", "2"], "g": "1"})
    with pytest.raises(ParseError):
        parse_context("{not json")
    with pytest.raises(ParseError):
        parse_context({"e": 4, "multicharge": [0], "theta": ["0"]})


def test_context_round_trip(hook_file):
    ctx, gctx, _ = parse_context(hook_file)
    doc = context_to_json(ctx, gctx)
    ctx2, gctx2, _ = parse_context(json.dumps(doc))
    assert context_to_json(ctx2, gctx2) == doc


def test_validate_command(capsys, hook_file):
    code, out = run(capsys, "validate", hook_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["family_size"] == 3


def test_validate_rejects_e2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**HOOK_CONTEXT, "e": 2}))
    code, out = run(capsys, "validate", str(bad))
    assert code == 1
    assert "validation" in json.loads(out)["error"]


def test_gamma_set_command(capsys, hook_file):
    code, out = run(capsys, "gamma-set", hook_file)
    payload = json.loads(out)
    assert code == 0
    assert payload["top"] == [[6, 1, 1, 1, 1]]
    assert payload["bottom"] == [[5, 1, 1, 1, 1, 1]]
    assert len(payload["members"]) == 3
    assert payload["hasse_edges"] == [[0, 1], [1, 2]]


def test_gamma_set_flotw_hasse_edges(capsys, tmp_path, flotw2_file):
    # ten 0-slots, six filled: Young's lattice in a 6 x 4 box
    with open(flotw2_file) as fh:
        context = json.load(fh)
    path = tmp_path / "flotw.json"
    path.write_text(json.dumps(dict(context, multiset={"0": 6})))
    code, out = run(capsys, "gamma-set", str(path))
    payload = json.loads(out)
    assert code == 0
    assert len(payload["members"]) == 210
    assert len(payload["hasse_edges"]) == 504
    assert payload["hasse_edges"] == sorted(payload["hasse_edges"])


def test_tableaux_and_delta_char(capsys, hook_file):
    code, out = run(capsys, "tableaux", hook_file, "[[6,1,1,1,1]]", "[[5,1,1,1,1,1]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1 and payload["degrees"] == [2]
    code, out = run(capsys, "delta-char", hook_file, "[[6,1,1,1,1]]", "[[5,1,1,1,1,1]]")
    assert code == 0
    assert json.loads(out)["coefficients"] == {"2": 1}


def test_decomp_pair_and_matrix(capsys, hook_file):
    code, out = run(
        capsys,
        "decomp",
        hook_file,
        "--engine",
        "both",
        "--pair",
        "[[6,1,1,1,1]]",
        "[[5,1,1,1,1,1]]",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == {"2": 1}
    assert payload["valid_any_field"] is True
    code, out = run(capsys, "decomp", hook_file, "--matrix", "--engine", "kn")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert entries["0,2"] == {"2": 1}
    code, out_nested = run(capsys, "decomp", hook_file, "--matrix", "--engine", "nested")
    assert code == 0
    assert json.loads(out_nested)["entries"] == entries
    code, out_both = run(capsys, "decomp", hook_file, "--matrix", "--engine", "both")
    assert code == 0
    assert json.loads(out_both)["entries"] == entries


@pytest.mark.parametrize("engine", ["nested", "kn", "both"])
def test_decomp_pair_reads_field_validity_once(capsys, hook_file, field_validity_calls, engine):
    pair = ["--pair", "[[6,1,1,1,1]]", "[[5,1,1,1,1,1]]"]
    code, out = run(capsys, "decomp", hook_file, "--engine", engine, *pair)
    assert code == 0 and json.loads(out)["valid_any_field"] is True
    assert len(field_validity_calls) == 1


@pytest.mark.parametrize("engine", ["nested", "kn", "both"])
def test_decomp_matrix_flotw3_golden(capsys, tmp_path, flotw2_file, engine):
    # three 0-nodes added to the FLOTW base: 120 members; 'both' also
    # checks that the closed formula and the peel agree on every entry
    with open(flotw2_file) as fh:
        context = json.load(fh)
    path = tmp_path / "flotw3.json"
    path.write_text(json.dumps(dict(context, multiset={"0": 3})))
    code, out = run(capsys, "decomp", str(path), "--matrix", "--engine", engine)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["order"]) == 120
    assert md5(out) == "558234e5c07cc9a8fb4b6953b0d05eb8"
    # rows are written as the engine lists them, strictly increasing
    cells = [(i, j) for i, j, _ in payload["rows"]]
    assert all(a < b for a, b in zip(cells, cells[1:]))
    # rows are written from shared forms; the CSV keeps its bytes
    code, out = run(capsys, "decomp", str(path), "--matrix", "--engine", engine, "--format", "csv")
    assert code == 0
    assert md5(out) == "35ebdbd94d34eaeed90eedbc90028673"


def test_decomp_matrix_latex_cells(capsys, tmp_path, flotw2_file):
    # the 210-member FLOTW family: exponents of 10 and more are braced
    with open(flotw2_file) as fh:
        context = json.load(fh)
    path = tmp_path / "flotw6.json"
    path.write_text(json.dumps(dict(context, multiset={"0": 6})))
    code, out = run(capsys, "decomp", str(path), "--matrix", "--engine", "nested", "--format", "latex")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "\\begin{array}{lll}" and lines[-1] == "\\end{array}"
    assert "0 & 58 & t^{6}+2t^{8}+t^{10} \\\\" in lines
    assert not any("*" in line or re.search(r"\^\d", line) for line in lines)


@pytest.mark.parametrize("engine", ["nested", "kn", "both"])
def test_decomp_empty_family_valid_any_field(capsys, tmp_path, engine):
    # nothing added: the family is the base alone, valid over every field
    path = tmp_path / "hook0.json"
    path.write_text(json.dumps({**HOOK_CONTEXT, "multiset": {"0": 0}}))
    base = "[[5,1,1,1,1]]"
    code, out = run(capsys, "decomp", str(path), "--pair", base, base, "--engine", engine)
    assert code == 0
    payload = json.loads(out)
    assert payload["pretty"] == "1" and payload["valid_any_field"] is True


def test_decomp_latex_format(capsys, hook_file):
    code, out = run(
        capsys,
        "decomp",
        hook_file,
        "--pair",
        "[[6,1,1,1,1]]",
        "[[5,1,1,1,1,1]]",
        "--format",
        "latex",
    )
    assert code == 0 and out.strip() == "t^{2}"


def test_terrain_ascii(capsys, tmp_path):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(DECORATION_CONTEXT))
    mu = "[[1],[1],[],[],[1],[],[1],[],[1],[1]]"
    lam = "[[1],[1],[1],[1],[],[1],[1],[],[],[]]"
    code, out = run(
        capsys, "terrain", str(path), mu, "--decorate", lam, "--residue", "1",
        "--render", "ascii",
    )
    assert code == 0
    deco_line = out.splitlines()[0]
    assert [i + 1 for i, ch in enumerate(deco_line) if ch == "("] == [3, 4, 6]
    assert [i + 1 for i, ch in enumerate(deco_line) if ch == ")"] == [5, 9, 10]
    code, out = run(capsys, "terrain", str(path), mu, "--decorate", lam, "--residue", "1")
    payload = json.loads(out)
    assert payload["pairs"] == [[4, 5], [6, 9], [3, 10]]


# SHA-256 of `terrain` on criterion 4's decoration pair at residue 1, in
# each output form: decoration, latticed paths and rendering keep these bytes.
@pytest.mark.parametrize(
    "extra, digest",
    [
        ([], "1e4d96497804820b50f989d54fca2a5cb05fb2761309e40ed80a8ea5fc8601c2"),
        (["--render", "ascii", "--paths"], "9146d4ede0754df760d1a7a7469a8eb8c71735c5f2d35635c2fc555f6a2cd3be"),
        (["--render", "svg"], "0a1a344de011ef0090f8bbfe6b2c9930e395b8ca384758be0624778fc2308591"),
    ],
    ids=["json", "ascii", "svg"],
)
def test_terrain_decoration_golden(capsys, tmp_path, extra, digest):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(DECORATION_CONTEXT))
    mu = "[[1],[1],[],[],[1],[],[1],[],[1],[1]]"
    lam = "[[1],[1],[1],[1],[],[1],[1],[],[],[]]"
    code, out = run(capsys, "terrain", str(path), mu, "--decorate", lam, "--residue", "1", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_terrain_svg(capsys, tmp_path):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(DECORATION_CONTEXT))
    mu = "[[1],[1],[],[],[1],[],[1],[],[1],[1]]"
    code, out = run(capsys, "terrain", str(path), mu, "--residue", "1", "--render", "svg")
    assert code == 0 and out.startswith("<svg") and "polyline" in out


def test_chi_compare(capsys, chi_pair_files):
    first, second = chi_pair_files
    code, out = run(capsys, "chi", first, "--compare", second)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "equivalent"
    assert set(payload["rules_used"]) == {"ii", "v"}
    # the trace the tuple search printed for this pair, step for step
    assert md5(json.dumps(payload["trace"])) == "26ce488117019d51183311f843dc4854"
    assert payload["search"] == {"states": 419, "depth": 1}


def test_transport_command(capsys, tmp_path, hook_file):
    target = tmp_path / "target.json"
    target.write_text(
        json.dumps(
            {
                "e": 11,
                "multicharge": [1, 1, 1],
                "theta": ["-5", "0", "4"],
                "g": "0.99",
                "gamma": [[], [2, 1], []],
                "residues": [1],
                "multiset": {"1": 1},
            }
        )
    )
    code, out = run(
        capsys, "transport", hook_file, "--target", str(target), "--shape", "[[6,1,1,1,1]]"
    )
    assert code == 0
    assert json.loads(out)["target"] == [[1], [2, 1], []]


# The gctx_runner and gctx_admissible_pair fixtures as context documents.
RUNNER_CONTEXT = {
    "e": 4,
    "multicharge": [3, 1, 3, 3, 3, 1, 3],
    "theta": ["-3", "-1", "1", "3", "5", "9", "11"],
    "g": "0.99",
    "gamma": [[], [], [], [], [], [], []],
    "residues": [1, 3],
    "multiset": {"1": 1, "3": 3},
}
PAIR_CONTEXT = {**RUNNER_CONTEXT, "multicharge": [0, 3], "theta": ["0", "7"]}
PAIR_CONTEXT["gamma"] = [[3, 2, 1, 1, 1], [4, 2, 2, 1]]


def md5(text):
    return hashlib.md5(text.encode()).hexdigest()


def test_tensor_factor_command(capsys, tmp_path):
    path = tmp_path / "runner.json"
    path.write_text(json.dumps(RUNNER_CONTEXT))
    code, out = run(capsys, "tensor-factor", str(path), "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] and payload["family_size"] == 20
    assert md5(out) == "0ac6da705c7914227309eaaad5a1aad8"


# Base-pinned tableaux and their slot-move splits keep these bytes.
@pytest.mark.parametrize(
    "context, argv, digest",
    [
        (
            RUNNER_CONTEXT,
            ["tableaux", "[[1],[1],[],[1],[1],[],[]]", "[[],[],[1],[],[1],[1],[1]]"],
            "b408ffdbb0a6aa0a3e98f78b03e69410",
        ),
        (PAIR_CONTEXT, ["tensor-factor", "--verify"], "312637dc1646c6b2537ce2bdd21ef775"),
    ],
    ids=["tableaux-runner", "tensor-factor-pair"],
)
def test_slot_move_outputs_golden(capsys, tmp_path, context, argv, digest):
    path = tmp_path / "context.json"
    path.write_text(json.dumps(context))
    code, out = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    assert md5(out) == digest


def _stub_characters(monkeypatch, fake):
    """Route the peeling engine's characters through fake(lam, mu, gctx, true)."""
    real = peeling.delta_character

    def stub(lam, mu, ctx, gctx=None):
        return fake(lam, mu, gctx, real(lam, mu, ctx, gctx=gctx))

    monkeypatch.setattr(peeling, "delta_character", stub)


@pytest.mark.parametrize("repeats", [1, 2])
def test_decomp_matrix_saturation_probe(capsys, monkeypatch, flotw2_file, repeats):
    # A repeat in the same process reuses the per-context memoized node keys;
    # the probe must still report the incomparable pair every time.
    def fake(lam, mu, gctx, true):
        return LaurentPoly.one() if lam != mu and not gctx.leq(mu, lam) else true

    _stub_characters(monkeypatch, fake)
    for _ in range(repeats):
        code, out = run(capsys, "decomp", flotw2_file, "--matrix", "--engine", "kn")
        assert code == 2
        assert "incomparable pair" in json.loads(out)["detail"]


def test_decomp_matrix_invariant_failure(capsys, monkeypatch, hook_file):
    def fake(lam, mu, gctx, true):
        return LaurentPoly({0: -1}) if lam != mu and true else true

    _stub_characters(monkeypatch, fake)
    code, out = run(capsys, "decomp", hook_file, "--matrix", "--engine", "kn")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "computation failure"
    assert "simple character" in payload["detail"]


def test_selfcheck_command(capsys):
    code, out = run(capsys, "selfcheck", "--count", "5", "--seed", "3")
    assert code == 0
    assert json.loads(out)["ok"]


def test_csv_format(capsys, hook_file):
    code, out = run(capsys, "gamma-set", hook_file, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,multipartition"
    assert len(lines) == 4


def test_out_file(capsys, tmp_path, hook_file):
    dest = tmp_path / "out.json"
    # stdout and --out carry the same bytes in every format
    for fmt in ("json", "csv", "latex"):
        code, printed = run(capsys, "gamma-set", hook_file, "--format", fmt)
        assert code == 0
        code, out = run(capsys, "gamma-set", hook_file, "--format", fmt, "--out", str(dest))
        assert code == 0 and out == ""
        assert dest.read_bytes() == printed.encode()
    code, _ = run(capsys, "validate", hook_file, "--out", str(dest))
    assert code == 0
    assert json.loads(dest.read_text())["valid"]


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_named(capsys, tmp_path, hook_file, where):
    dest = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    code, out = run(capsys, "validate", hook_file, "--out", str(dest))
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "validation failure"
    assert payload["detail"].startswith("--out:")


def test_failing_command_leaves_out_untouched(capsys, tmp_path):
    dest = tmp_path / "out.json"
    dest.write_text("earlier result\n")
    bad = json.dumps({**HOOK_CONTEXT, "e": 2})
    code, out = run(capsys, "validate", bad, "--out", str(dest))
    assert code == 1 and json.loads(out)["detail"].startswith("e:")
    assert dest.read_text() == "earlier result\n"


def chercomb_process(*argv, **kwargs):
    """The command line in its own interpreter, importing chercomb from this
    checkout's source."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen([sys.executable, "-m", "chercomb.cli", *argv], env=env, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_write_to_out_is_named(hook_file):
    # /dev/full opens, then every flush fails with ENOSPC
    proc = chercomb_process("validate", hook_file, "--out", "/dev/full", stdout=PIPE, stderr=PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and err == b""
    payload = json.loads(out)
    assert payload["error"] == "validation failure"
    assert payload["detail"].startswith("--out:") and "No space left" in payload["detail"]


def test_closed_stdout_exits_one_quietly(tmp_path, flotw2_file):
    # the FLOTW3 matrix is far larger than a pipe's buffer, so the writer
    # is still writing when the reader closes the pipe after one line
    with open(flotw2_file) as fh:
        context = json.load(fh)
    path = tmp_path / "flotw3.json"
    path.write_text(json.dumps(dict(context, multiset={"0": 3})))
    proc = chercomb_process("decomp", str(path), "--matrix", "--engine", "nested", stdout=PIPE, stderr=PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_failure_report_to_closed_stdout_exits_one_quietly():
    # the reader is gone before the command writes its one-line report
    read_end, write_end = os.pipe()
    os.close(read_end)
    bad = json.dumps({"e": 2, "multicharge": [0], "theta": ["0"], "g": "1"})
    proc = chercomb_process("validate", bad, stdout=write_end, stderr=PIPE)
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and err == b""


def test_failure_report_write_failing_in_process(monkeypatch, hook_file, tmp_path):
    class ClosedPipe(io.StringIO):
        """A stdout whose reader is gone, in memory, so it has no descriptor."""

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    def disagree(lam, mu, gctx, engine):
        raise peeling.EngineDisagreement("stub disagreement")

    monkeypatch.setattr(cli, "decomp_number", disagree)
    argv = ["decomp", hook_file, "--pair", "[[6,1,1,1,1]]", "[[5,1,1,1,1,1]]"]
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == 1
    # given a descriptor, a file of the test's own, stdout is pointed at
    # devnull without touching the real one
    with open(tmp_path / "stdout", "w") as fh:
        sys.stdout.fileno = fh.fileno
        assert main(argv) == 1


def _run_both_ways(capsys, tmp_path, *argv):
    """Run argv to stdout and to --out; both give one exit code and the same bytes."""
    code, printed = run(capsys, *argv)
    dest = tmp_path / "result.json"
    code_out, out = run(capsys, *argv, "--out", str(dest))
    assert code_out == code and out == ""
    assert dest.read_bytes() == printed.encode()
    return code, json.loads(printed)


def test_tensor_factor_verify_failure_writes_payload(capsys, monkeypatch, tmp_path):
    path = tmp_path / "runner.json"
    path.write_text(json.dumps(RUNNER_CONTEXT))
    monkeypatch.setattr(cli, "factor_check", lambda fctx: FactorReport(False, 3, 7, "stub split"))
    code, payload = _run_both_ways(capsys, tmp_path, "tensor-factor", str(path), "--verify")
    assert code == 2
    assert payload["verified"] is False and payload["failure"] == "stub split"
    assert payload["family_size"] == 20


def test_selfcheck_disagreement_writes_payload(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(
        cli, "cross_validate", lambda count, seed: OracleRun(count, 0, "stub disagreement")
    )
    code, payload = _run_both_ways(capsys, tmp_path, "selfcheck", "--count", "2")
    assert code == 3
    assert payload == {"contexts": 2, "pairs": 0, "ok": False, "failure": "stub disagreement"}


@pytest.mark.parametrize("count", ["0", "-5"])
def test_selfcheck_rejects_count_below_one(capsys, count):
    code, out = run(capsys, "selfcheck", "--count", count)
    assert code == 1
    assert "--count" in json.loads(out)["detail"]


def test_context_pins_base_nodes(capsys, tmp_path, flotw2_file):
    # one 0-node added to the FLOTW base: the family pins gamma's 37 nodes,
    # where the general search over them would not finish
    with open(flotw2_file) as fh:
        context = json.load(fh)
    path = tmp_path / "flotw1.json"
    path.write_text(json.dumps(dict(context, multiset={"0": 1})))
    pair = "[[8,5,3,1,1],[5,5,4,2,2,1,1]]", "[[7,5,3,1,1],[5,5,4,2,2,1,1,1]]"
    code, out = run(capsys, "tableaux", str(path), *pair)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1 and payload["degrees"] == [9]
    code, out = run(capsys, "delta-char", str(path), *pair)
    assert code == 0 and json.loads(out)["pretty"] == "t^9"


@pytest.mark.parametrize("fmt", ["csv", "latex"])
def test_table_formats_with_no_rows(capsys, hook_file, fmt):
    # no tableau of shape (5,1^5) has weight (6,1^4): a header and no rows
    code, out = run(
        capsys, "tableaux", hook_file, "[[5,1,1,1,1,1]]", "[[6,1,1,1,1]]", "--format", fmt
    )
    assert code == 0
    expected = {"csv": "degree,moved_nodes", "latex": "\\begin{array}{ll}\n\\end{array}"}
    assert out.strip() == expected[fmt]


@pytest.mark.parametrize("render", ["ascii", "svg"])
def test_terrain_render_out_file(capsys, tmp_path, render):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(DECORATION_CONTEXT))
    mu = "[[1],[1],[],[],[1],[],[1],[],[1],[1]]"
    lam = "[[1],[1],[1],[1],[],[1],[1],[],[],[]]"
    argv = ["terrain", str(path), mu, "--decorate", lam, "--residue", "1", "--render", render]
    if render == "ascii":
        argv.append("--paths")
    code, printed = run(capsys, *argv)
    assert code == 0
    dest = tmp_path / "terrain.txt"
    code, out = run(capsys, *argv, "--out", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text() == printed
    if render == "ascii":
        assert "norm" in printed


@pytest.mark.parametrize(
    "field, value",
    [
        ("e", "abc"),
        ("multicharge", ["q"]),
        ("theta", ["zz"]),
        ("g", "x"),
        ("residues", ["a"]),
        ("multiset", {"0": -1}),
        ("epsilon_display", "x"),
        ("e", 5.5),
        ("multicharge", [0.9]),
        ("multiset", {"0": 1.7}),
        ("residues", "03"),
        ("gamma", [[5.5, 1, 1, 1, 1]]),
        # strings are not iterated as lists, nor booleans taken as integers
        ("multicharge", "21"),
        ("theta", "0"),
        ("multiset", {"0": True}),
        ("gamma", [[True, True]]),
        ("residues", [False]),
        # nor booleans taken as rationals
        ("g", True),
        ("theta", [True]),
        ("epsilon_display", True),
        # 5 names residue 0 again at e=5, and so does 00
        ("multiset", {"0": 2, "5": 1}),
        ("multiset", {"0": 1, "00": 1}),
        # only plain decimal digits: int() would read 1_0 as 10 and " 0" as 0
        ("multiset", {"1_0": 1}),
        ("multiset", {" 0": 1}),
        ("e", "1_0"),
        ("e", " 5"),
        ("multicharge", ["1_0"]),
        ("residues", [" 0"]),
        ("gamma", [["5", "1", "1", "1", "1 "]]),
        # faults of the family as a whole name the field that causes them
        ("residues", [1, 2]),
        ("multiset", {"0": 5}),
        ("multiset", {"3": 1}),
        ("gamma", [[1]]),
        # a rational whose numerator or denominator would pass Python's int
        # digit limit is refused as it is read, not when it is printed
        ("g", "1e5000"),
        ("theta", ["1e5000"]),
        ("epsilon_display", "1e5000"),
        ("g", "1e2000000"),
        # gamma's addable 0-node (1,1048576,1) has row + col = 2^20, past
        # the node keys' bound: refused as gamma is read
        ("gamma", [[1048575]]),
    ],
)
def test_bad_context_field_is_named(capsys, field, value):
    code, out = run(capsys, "validate", json.dumps({**HOOK_CONTEXT, field: value}))
    assert code == 1
    assert json.loads(out)["detail"].startswith(f"{field}:")


HOOK, LEVEL10 = json.dumps(HOOK_CONTEXT), json.dumps(DECORATION_CONTEXT)
WEIGHT10 = "[[1]" + ",[]" * 9 + "]"  # a level-10 multipartition


NO_GAMMA = json.dumps({k: HOOK_CONTEXT[k] for k in ("e", "multicharge", "theta", "g")})
RUNNER = json.dumps(RUNNER_CONTEXT)
MU10 = "[[1],[1],[],[],[1],[],[1],[],[1],[1]]"  # a level-10 weight with five 1-nodes


@pytest.mark.parametrize(
    "command, key, value", [("tableaux", "degrees", [1]), ("delta-char", "pretty", "t")]
)
def test_shapes_outside_family_use_general_search(capsys, command, key, value):
    # neither shape is in the hook family: the output is that of no family
    outputs = []
    for doc in (HOOK, NO_GAMMA):
        code, out = run(capsys, command, doc, "[[4,1]]", "[[3,1,1]]")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])[key] == value


@pytest.mark.parametrize(
    "argv, name",
    [
        (["transport", HOOK, "--target", RUNNER], "--target"),
        (["transport", HOOK, "--target", NO_GAMMA], "--target"),
        (["transport", RUNNER, "--target", HOOK], "context"),
        (["transport", NO_GAMMA, "--target", HOOK], "context"),
        (["chi", HOOK, "--compare", NO_GAMMA], "--compare"),
        (["chi", HOOK, "--compare", RUNNER], "--compare"),
        (["chi", RUNNER, "--compare", HOOK], "context"),
        (["terrain", NO_GAMMA, "[[1]]"], "context"),
        # a shape outside the family, or a decoration that does not balance
        (["decomp", HOOK, "--pair", "[[5,1]]", "[[5,1,1,1,1,1]]"], "--pair"),
        (["decomp", HOOK, "--pair", "[[6,1,1,1,1]]", "[[5,1]]"], "--pair"),
        (["transport", HOOK, "--target", HOOK, "--shape", "[[5,1]]"], "--shape"),
        (["terrain", LEVEL10, MU10, "--residue", "1", "--decorate", "[[2],[1],[],[],[],[],[1],[],[1],[1]]"], "decorate"),
        (["terrain", LEVEL10, MU10, "--residue", "1", "--decorate", "[[],[1],[1],[],[1],[],[1],[],[1],[1]]"], "decorate"),
    ],
    ids=[
        "target-two-residues",
        "target-no-gamma",
        "source-two-residues",
        "source-no-gamma",
        "compare-no-gamma",
        "compare-two-residues",
        "chi-two-residues",
        "terrain-no-gamma",
        "pair-shape-outside",
        "pair-weight-outside",
        "transport-shape-outside",
        "decorate-other-residue",
        "decorate-not-above",
    ],
)
def test_context_error_names_argument(capsys, argv, name):
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["detail"].startswith(f"{name}: ")


@pytest.mark.parametrize("fault", ["directory", "not-utf-8"])
@pytest.mark.parametrize(
    "argv",
    [["validate", "PATH"], ["chi", HOOK, "--compare", "PATH"], ["transport", HOOK, "--target", "PATH"]],
    ids=["context", "compare", "target"],
)
def test_unreadable_context_file_is_named(capsys, tmp_path, argv, fault):
    # a context path that exists but cannot be read as UTF-8 text is a
    # validation failure that names the path
    if fault == "directory":
        path = tmp_path
    else:
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(HOOK_CONTEXT).encode() + b" \xff")
    code, out = run(capsys, *[str(path) if a == "PATH" else a for a in argv])
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "validation failure"
    assert repr(str(path)) in payload["detail"]


@pytest.mark.parametrize("engine", ["both", "nested", "kn"])
def test_decomp_matrix_several_residues(capsys, engine):
    """The closed formula serves a two-residue family: every engine writes
    the same bytes."""
    for context, digest in [
        (RUNNER, "506c47e94e9730ea175dab490e190e2b"),
        (json.dumps(PAIR_CONTEXT), "c502f510c1119f439043be6d611a7dad"),
    ]:
        code, out = run(capsys, "decomp", context, "--matrix", "--engine", engine)
        assert code == 0
        assert md5(out) == digest, context


def test_decomp_pair_several_residues(capsys):
    # the paper states no field rule for several residues: no flag is written
    lam, mu = "[[1],[1],[],[1],[1],[],[]]", "[[],[],[1],[],[1],[1],[1]]"
    code, out = run(capsys, "decomp", RUNNER, "--pair", lam, mu, "--engine", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["pretty"] == "t^4" and "valid_any_field" not in payload


@pytest.mark.parametrize(
    "extra",
    [
        ["--residue", "1"],
        ["--residue", "1", "--render", "ascii"],
        ["--residue", "1", "--decorate", "[[1],[1],[1],[1],[],[1],[1],[],[],[]]"],
        ["--residue", "1", "--decorate", "[[1],[1],[1],[1],[],[1],[1],[],[],[]]", "--render", "svg"],
    ],
    ids=["alone", "no-decorate", "no-render", "svg"],
)
def test_terrain_paths_needs_decorated_ascii(capsys, extra):
    mu = "[[1],[1],[],[],[1],[],[1],[],[1],[1]]"
    code, out = run(capsys, "terrain", LEVEL10, mu, *extra, "--paths")
    assert code == 1
    assert json.loads(out)["detail"].startswith("--paths: ")


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["terrain", LEVEL10, "[[1]]", "--residue", "1"], "weight: has 1 components but level is 10"),
        (
            ["terrain", LEVEL10, WEIGHT10, "--residue", "1", "--decorate", WEIGHT10[:-1] + ",[]]"],
            "decorate: has 11 components",
        ),
        (["tableaux", HOOK, "[[5,1,1,1],[1]]", "[[5,1,1,1,1]]"], "shape: has 2 components"),
        (["delta-char", HOOK, "[[5,1,1,1,1]]", "[[5,1,1,1],[1]]"], "weight: has 2 components"),
        (["decomp", HOOK, "--pair", "[[5,1,1,1,1]]", "[[5,1,1,1],[1]]"], "--pair: has 2 components"),
        (["decomp", HOOK, "--pair", "[[6,1,1,1,1]", "[[5,1,1,1,1,1]]"], "--pair: Expecting"),
        (["transport", HOOK, "--target", HOOK, "--shape", "[[5,1,1,1],[1]]"], "--shape: has 2 components"),
        # a node addable to the shape would have row + col = 2^20
        (["decomp", HOOK, "--pair", "[[1048575]]", "[[5,1,1,1,1]]"], "--pair: a node or addable node"),
        (["delta-char", HOOK, "[[5,1,1,1,1]]", "[[1048574,1]]"], "weight: a node or addable node"),
    ],
    ids=[
        "weight-short", "decorate-long", "shape", "weight", "pair", "pair-not-json", "transport-shape",
        "pair-key-bound", "weight-key-bound",
    ],
)
def test_multipartition_argument_is_named(capsys, argv, prefix):
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["detail"].startswith(prefix)


@pytest.mark.parametrize(
    "mu, lam, fault",
    [
        # lam moves (1,1,10), of residue 1, to (1,2,1), of residue 2
        ("[[1],[1],[],[],[1],[],[1],[],[1],[1]]", "[[2],[1],[],[],[1],[],[1],[],[1],[]]", "has residue 2, not 1"),
        # lam adds a residue-1 node without removing one
        ("[[1],[1],[],[],[1],[],[1],[],[1],[1]]", "[[1],[1],[1],[],[1],[],[1],[],[1],[1]]", "sizes differ"),
        # the decoration pair of criterion 4, reversed
        ("[[1],[1],[1],[1],[],[1],[1],[],[],[]]", "[[1],[1],[],[],[1],[],[1],[],[1],[1]]", "has no matching open"),
    ],
    ids=["wrong_residue", "size", "reversed"],
)
def test_terrain_decorate_rejects_bad_pair(capsys, tmp_path, mu, lam, fault):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(DECORATION_CONTEXT))
    code, out = run(capsys, "terrain", str(path), mu, "--decorate", lam, "--residue", "1")
    assert code == 1
    assert fault in json.loads(out)["detail"]


def test_usage_error_exits_one(capsys, flotw2_file):
    code, out = run(capsys, "decomp", flotw2_file, "--matrix", "--jobs", "2")
    assert code == 1
    assert "--jobs" in json.loads(out)["detail"]
    with pytest.raises(SystemExit) as exc:
        main(["decomp", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "extra",
    [[], ["--pair", "[[5,1,1,1,1,1]]", "[[5,1,1,1,1,1]]", "--matrix"]],
    ids=["neither", "both"],
)
def test_decomp_needs_pair_or_matrix(capsys, hook_file, extra):
    code, out = run(capsys, "decomp", hook_file, *extra)
    assert code == 1
    detail = json.loads(out)["detail"]
    assert "--pair" in detail and "--matrix" in detail


def test_chi_rejects_negative_depth(capsys, tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(HOOK_CONTEXT))
    code, out = run(capsys, "chi", str(path), "--compare", str(path), "--depth", "-1")
    assert code == 1
    assert "--depth" in json.loads(out)["detail"]
    code, out = run(capsys, "chi", str(path), "--compare", str(path), "--depth", "0")
    assert code == 0


def test_readme_cli_block_matches_parser():
    # each usage line of the README's CLI block lists its subcommand's own
    # options; --out, --format and --help are documented once for all
    block = readme_text().split("## CLI", 1)[1].split("```text", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.strip().splitlines():
        words = line.split("#", 1)[0].split()
        documented[words[1]] = {w.strip("[]()|") for w in words[2:] if w.lstrip("[(").startswith("--")}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    common = {"--out", "--format", "--help"}
    options = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - common
        for name, p in sub.choices.items()
    }
    assert documented == options


def readme_text() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_library_block_prints_what_it_says(capsys):
    # each print of the Library block says in its comment what it prints
    block = readme_text().split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    said = [line.split("#", 1)[1].split(":")[0].strip() for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == said == ["t^2", "True"]


def test_readme_exit_codes_match_failure_table():
    text = " ".join(readme_text().split())
    sentence = text.split("Exit codes: ", 1)[1].split(".", 1)[0]
    documented = {(int(code), label) for code, label in re.findall(r"`(\d)` ([a-z ]+)", sentence)}
    table = {(code, label) for _, label, code in cli.FAILURES}
    assert documented == table | {(cli.EXIT_OK, "success")}


def dump_text(payload) -> str:
    """The oracle: the text json.dump writes for a payload."""
    buf = io.StringIO()
    json.dump(payload, buf, indent=2, sort_keys=True, default=cli._poly_text(str))
    return buf.getvalue()


def writer_text(payload) -> str:
    buf = io.StringIO()
    cli._write_json(payload, buf, cli._poly_text(str))
    return buf.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", HOOK],
        ["gamma-set", RUNNER],
        ["tableaux", RUNNER, "[[1],[1],[],[1],[1],[],[]]", "[[],[],[1],[],[1],[1],[1]]"],
        ["delta-char", HOOK, "[[6,1,1,1,1]]", "[[5,1,1,1,1,1]]"],
        ["decomp", HOOK, "--pair", "[[6,1,1,1,1]]", "[[5,1,1,1,1,1]]"],
        ["decomp", "FLOTW3", "--matrix", "--engine", "nested"],
        ["terrain", LEVEL10, MU10, "--residue", "1", "--decorate", "[[1],[1],[1],[1],[],[1],[1],[],[],[]]"],
        ["chi", "CHI_A", "--compare", "CHI_B"],
        ["transport", HOOK, "--target", HOOK],
        ["tensor-factor", RUNNER, "--verify"],
        ["selfcheck", "--count", "5", "--seed", "3"],
    ],
    ids=[
        "validate", "gamma-set", "tableaux", "delta-char", "decomp-pair", "decomp-matrix",
        "terrain", "chi-compare", "transport", "tensor-factor", "selfcheck",
    ],
)
def test_json_writer_matches_json_dump(capsys, flotw2_file, chi_pair_files, argv):
    # every command's JSON is written with json.dump's bytes
    with open(flotw2_file) as fh:
        flotw3 = json.dumps(dict(json.load(fh), multiset={"0": 3}))
    names = {"FLOTW3": flotw3, "CHI_A": chi_pair_files[0], "CHI_B": chi_pair_files[1]}
    argv = [names.get(a, a) for a in argv]
    code, out = run(capsys, *argv)
    assert code == 0
    args = build_parser().parse_args(argv)
    result = args.func(args)
    payload = result[0] if isinstance(result, tuple) else result
    assert out == dump_text(payload) + "\n"


class Level(IntEnum):
    LOW = 1


class Name(str):
    pass


class Point(NamedTuple):
    x: int
    name: str


def test_json_writer_edge_payload():
    shared = {"b": [1, {}], "a": "x"}
    poly = LaurentPoly({-1: 3, 2: 1})
    payload = {
        "empty": [[], {}, [[]], [{}], {"e": {}, "f": []}],
        "text": 'é "quoted" back\\slash\nline\ttab\x01\x1f ü€😀',
        "flags": [True, False, None],
        # one dict at depths 1, 2, 3 and 4
        "shared": shared,
        "deeper": {"again": shared, "list": [shared, [shared]]},
        "rows": [(0, 1, poly), (2, 3, poly)],
        "poly": poly,
        "numbers": [-5, 0, 10**30, 1.5, -0.0],
        "": {"": ""},
    }
    for value in (payload, [payload, payload], {2: "two", 0.5: "half", False: "no"}, {None: 1}, {}, [], "é", 7, None):
        assert writer_text(value) == dump_text(value)
    # not an exact int, str, tuple or list: each takes the general branch
    edge = [True, Level.LOW, Name("é x"), Point(3, Name("y"))]
    nested = {"edge": edge, "rows": [tuple(edge), Point(Level.LOW, "z")], Name("key"): {Level.LOW: True}}
    for value in (*edge, edge, nested, [nested, payload]):
        assert writer_text(value) == dump_text(value)


@pytest.mark.parametrize(
    "bad",
    [{"x": object()}, [1, {2, 3}], {"a": {"b": {(1, 2): 3}}}, {"a": [[b"bytes"]]}],
    ids=["object", "set", "tuple-key", "bytes"],
)
def test_json_writer_refuses_what_json_dump_refuses(bad):
    with pytest.raises(TypeError) as expected:
        dump_text(bad)
    with pytest.raises(TypeError) as refused:
        writer_text(bad)
    assert str(refused.value) == str(expected.value)
