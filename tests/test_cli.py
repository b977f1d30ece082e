import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import STACKED_SQUARES, OrbitLattice, dumps, path_graph, subprocess_env
from orbitcoh import cli, jsonio
from orbitcoh.cellular import CellularForm, construct_cellular_form
from orbitcoh.cli import main
from orbitcoh.sheaves import delta_sheaf
from reference_impl import library_dumps


def run_cli(args, tmp_path=None):
    """Run in-process, capturing stdout and the exit code."""
    import io
    from contextlib import redirect_stdout, redirect_stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_betti_complete2(tmp_path):
    out = tmp_path / "b.json"
    code, text, _ = run_cli(["betti", "--complete", "2", "--k", "2", "--m", "2",
                             "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["poincare"] == [1, 0, 0, 4, 4, 1]


def test_betti_graph_file_k1(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}))
    out = tmp_path / "b.json"
    code, _, _ = run_cli(["betti", "--graph", str(g), "--k", "1", "--m", "2",
                          "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["poincare"] == [1, 0, 0, 3, 0, 0, 2]


def test_betti_text_output():
    code, text, _ = run_cli(["betti", "--complete", "2", "--k", "2", "--m", "2"])
    assert code == 0
    assert "poincare: 1 + 4*t^3 + 4*t^4 + t^5" in text


def test_betti_many_isolated_vertices(tmp_path):
    # the bond lattice of an edgeless graph is one partition, whatever n
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"n": 1200, "edges": []}))
    code, text, err = run_cli(["betti", "--graph", str(g)])
    assert (code, err) == (0, "")
    assert text.endswith("poincare: 1\n")


def test_betti_bad_k():
    code, _, err = run_cli(["betti", "--complete", "2", "--k", "0", "--m", "2"])
    assert code == 2


def test_betti_unwritable_out(tmp_path):
    out = tmp_path / "missing" / "b.json"
    code, _, err = run_cli(["betti", "--complete", "2", "--k", "2", "--m", "2",
                            "--out", str(out)])
    assert code == 2
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("graph", [{"n": True, "edges": []}, {"complete": True},
                                   {"n": 2, "edges": [[True, 2]]},
                                   {"n": 2, "edges": [[1.0, 2]]}])
def test_betti_bool_graph_size(tmp_path, graph):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(graph))
    code, text, err = run_cli(["betti", "--graph", str(g), "--k", "2", "--m", "2"])
    assert code == 2
    assert text == "" and err.startswith("error: ")


def test_betti_graph_and_complete_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--graph", str(tmp_path / "g.json"), "--complete", "2",
              "--k", "2", "--m", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --complete: not allowed with argument --graph" \
        in captured.err


def test_betti_missing_graph():
    code, _, _ = run_cli(["betti", "--k", "2", "--m", "2"])
    assert code == 2


def test_betti_real_forces_k2():
    code, _, _ = run_cli(["betti", "--complete", "2", "--k", "3", "--m", "2",
                          "--mode", "real"])
    assert code == 2


def test_ring_complete2(tmp_path):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(["ring", "--complete", "2", "--k", "2", "--m", "2",
                          "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["basis"]) == 10
    assert len({e["grading"] for e in data["basis"]}) == 10
    assert data["poincare"] == [1, 0, 0, 4, 4, 1]


def test_ring_real(tmp_path):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(["ring", "--complete", "2", "--m", "2",
                          "--mode", "real", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["poincare"] == [1, 9]


@pytest.mark.parametrize("graph,k,digest", [
    ({"complete": 3}, 2,
     "8bf7ac389079d2f6eff1782f667ac03e04184794ad7493a728b4f6024ec40311"),
    ({"n": 3, "edges": [[1, 2], [2, 3]]}, 3,
     "8ff435585689e01d7603492d4ea444424e33a67344dfd69a139352c12fb0bc40"),
], ids=["K3-k2", "P3-k3"])
def test_betti_m1_json_is_pinned(tmp_path, graph, k, digest):
    # the additive-only output at m = 1, recorded while the ring still
    # carried a separate additive-only switch
    g, out = tmp_path / "g.json", tmp_path / "b.json"
    g.write_text(json.dumps(graph))
    code, _, _ = run_cli(["betti", "--graph", str(g), "--k", str(k), "--m", "1",
                          "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("graph,k,mode,digest", [
    ({"n": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4]]}, 4, "complex",
     "150c56666c8137276e2dd060160591ce6001012f5a9eb6563117e4af38c038a5"),
    ({"n": 3, "edges": [[1, 2], [2, 3]]}, 3, "complex",
     "629e32aa9c8537e8aefe8e08c4e78ab7e23c003874649229707d8f41368d8605"),
    ({"n": 4, "edges": [[1, 2], [3, 4]]}, 2, "complex",
     "4b981b4f70fe3e0fc1beacbe738eb2bea776b2a06912febf2830776b9836b3cc"),
    ({"complete": 3}, 2, "real",
     "2f8e784f84547b963142cd4692ce9e1e52870d12f634d31b2fb3250c14b2e621"),
], ids=["K4e-k4", "P3-k3", "2K2-k2", "K3-real"])
def test_betti_m2_json_is_pinned(tmp_path, graph, k, mode, digest):
    # recorded while the ring still built every basis vector eagerly
    g, out = tmp_path / "g.json", tmp_path / "b.json"
    g.write_text(json.dumps(graph))
    code, _, _ = run_cli(["betti", "--graph", str(g), "--k", str(k), "--m", "2",
                          "--mode", mode, "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("graph,k,m,mode,digest", [
    ({"complete": 3}, 1, 2, "complex",
     "7b5b43325b4015c7c4ed82679aa393e0fd9634781b5c386f3963f9b250cd93fa"),
    ({"n": 3, "edges": [[1, 2], [2, 3]]}, 2, 3, "complex",
     "c9da7cabbf78eb6a6be1fd83639314ea44176fde0f6b2b22557f55cc72cbfa2e"),
    ({"complete": 3}, 2, 3, "real",
     "8eb069813204df6252869bfd6770bb3f40a566d8eecea9f777e73018310cd348"),
    ({"n": 4, "edges": [[1, 2], [3, 4]]}, 3, 3, "complex",
     "a5d4059892d7b97f10c038abf160e442f1489f4be031732e1077ed19831e2cfe"),
], ids=["K3-k1-m2", "P3-k2-m3", "K3-k2-m3-real", "2K2-k3-m3"])
def test_betti_json_is_pinned_beyond_m2(tmp_path, graph, k, m, mode, digest):
    # k = 1 (every undefined entry has rank 0), m = 3 rows and the real
    # degrees, recorded while each grading still rendered its own label
    g, out = tmp_path / "g.json", tmp_path / "b.json"
    g.write_text(json.dumps(graph))
    code, _, _ = run_cli(["betti", "--graph", str(g), "--k", str(k), "--m", str(m),
                          "--mode", mode, "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_betti_builds_no_basis_vector(monkeypatch):
    from orbitcoh import ring

    def refuse(*args, **kwargs):
        raise AssertionError("betti built a basis vector")

    monkeypatch.setattr(ring, "GradedBasisElement", refuse)
    code, text, _ = run_cli(["betti", "--complete", "3", "--k", "2", "--m", "2"])
    assert code == 0
    assert text.startswith("degree  rank\n")


def test_betti_renders_no_label_per_grading(monkeypatch):
    # labels come from the per-fiber row tables of fiber_matrices
    from orbitcoh.orbit import PartialMatrix

    def refuse(self):
        raise AssertionError("betti rendered a grading label on its own")

    monkeypatch.setattr(PartialMatrix, "label", refuse)
    code, text, _ = run_cli(["betti", "--complete", "3", "--k", "2", "--m", "2"])
    assert code == 0
    assert text.startswith("degree  rank\n")


BETTI_GRAPHS = {
    "K2": {"n": 2, "edges": [[1, 2]]},
    "K3": {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]},
    "K4": {"n": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]},
    "P3": {"n": 3, "edges": [[1, 2], [2, 3]]},
    "P4": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
    "C4": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]},
}


@pytest.mark.parametrize("name", sorted(BETTI_GRAPHS))
def test_betti_table_matches_ring(tmp_path, name):
    # the table betti sums from the grading generator against the sorted
    # gradings of the ring, in every mode that each (k, m) allows
    from orbitcoh.jsonio import parse_graph
    from orbitcoh.ring import RingPresentation

    g, out = tmp_path / "g.json", tmp_path / "b.json"
    g.write_text(json.dumps(BETTI_GRAPHS[name]))
    graph = parse_graph(BETTI_GRAPHS[name])
    runs = [(k, m, "complex") for k in (1, 2, 3) for m in (1, 2, 3)]
    runs += [(2, m, "real") for m in (2, 3)]
    for k, m, mode in runs:
        code, _, _ = run_cli(["betti", "--graph", str(g), "--k", str(k), "--m", str(m),
                              "--mode", mode, "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        pres = RingPresentation(graph, k, m, mode)
        assert data["gradings"] == {lab: pres.piece_rank(g)
                                    for g, lab in enumerate(pres.labels)}
        assert data["poincare"] == pres.poincare_polynomial()


def test_betti_builds_no_matrix_and_no_ring(monkeypatch, tmp_path):
    from orbitcoh import ring
    from orbitcoh.orbit import PartialMatrix

    def refuse(*args, **kwargs):
        raise AssertionError("betti built a partial matrix or a ring presentation")

    monkeypatch.setattr(PartialMatrix, "__new__", refuse)
    monkeypatch.setattr(ring, "RingPresentation", refuse)
    with pytest.raises(AssertionError):
        PartialMatrix(2, 2, 2, ((1,), (2,)), ())
    out = tmp_path / "b.json"
    code, text, _ = run_cli(["betti", "--complete", "4", "--k", "2", "--m", "2",
                             "--out", str(out)])
    assert (code, text) == (0, f"wrote {out}\n")
    assert json.loads(out.read_text())["poincare"][0] == 1


def test_ring_m1_unsupported():
    code, _, _ = run_cli(["ring", "--complete", "2", "--k", "2", "--m", "1"])
    assert code == 3


def test_betti_real_m1_unsupported():
    # raised inside RingPresentation, so it reaches main's exit-3 handler
    code, text, err = run_cli(["betti", "--complete", "2", "--mode", "real",
                               "--m", "1"])
    assert code == 3
    assert text == ""
    assert err == "unsupported: the real statement also needs m > 1\n"


def test_verify_real_unsupported():
    code, text, err = run_cli(["verify", "--complete", "2", "--m", "2",
                               "--mode", "real"])
    assert code == 3
    assert text == "" and err.startswith("unsupported: ")


def test_verify_complete2():
    code, text, _ = run_cli(["verify", "--complete", "2", "--k", "2", "--m", "2"])
    assert code == 0
    assert "PASS" in text and "FAIL" not in text


_P4 = {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}
_C4 = {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}
_CLAW = {"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]}


@pytest.mark.parametrize("graph,k,m,limit,digest", [
    ({"complete": 2}, 2, 2, None,
     "7937cbe563db54d5d4beffcc3c3b363befcf588185bc7e35d76f867f73cbaf9f"),
    ({"complete": 2}, 3, 2, None,
     "83df52158d2c9cc6697dfc460a0cd8e1a9699604ac167eec3712501d7fa54a9b"),
    ({"complete": 2}, 4, 2, None,
     "062332e661953f3da309c86e660d100d0fd4f5bd54ddbc3eaa566777c0724e72"),
    ({"n": 3, "edges": [[1, 2], [2, 3]]}, 2, 2, None,
     "32b725bee6ff57a3a4186c375ae6a6fe3aac0e18ed0cc49aff41fa26e2992253"),
    ({"complete": 3}, 2, 2, None,
     "9e1157232f719aeb5ddefb1fa5d491053de2a4c5c856822a4e28870d66a8b8de"),
    (_P4, 2, 1, None,
     "4f741bed19437b0024672e1dbf7413e2c0fafdbfe29f04a241c29c52f9df865c"),
    (_C4, 2, 1, None,
     "75951e91ad1b17cec0e19f53d777293b52aa45e7db82f62b7ecd2c899fec84d8"),
    ({"complete": 4}, 2, 1, None,
     "e3d534a9bb2d7ef86d52e37038380bac088f62173f5227d9e80fa8cc6a6bffd9"),
    (_CLAW, 2, 2, 200,
     "92a6d93116dd9f756a0184d9198ebd32755e171c89ee24ff2da42fae76a18641"),
    (_P4, 2, 2, 500,
     "6dff4216fe49a360e0dd2b721ff8e4b3985fbc6ee534cd9de36ddae2c75c8be6"),
], ids=["K2-k2", "K2-k3", "K2-k4", "P3-k2", "K3-k2", "P4-k2-m1", "C4-k2-m1",
        "K4-k2-m1", "claw-k2-m2", "P4-k2-m2"])
def test_verify_json_is_pinned(tmp_path, graph, k, m, limit, digest):
    # the m = 2 digests were recorded while the products were still
    # compared one basis pair at a time.  The m = 1 ones are on graphs where
    # sigma merges orbit elements, and end with the line saying that m = 1
    # skips products and axioms.  The claw is the only 4-vertex graph on
    # which sigma is bijective, so the only one whose 160,000 basis pairs of
    # products are compared; its digest was recorded while the oracle still
    # keyed its chains by label strings.  P4 at m = 2 is a merging instance
    # beyond m = 1, whose products are skipped with a line saying so
    out = tmp_path / "v.json"
    if "complete" in graph:
        source = ["--complete", str(graph["complete"])]
    else:
        g = tmp_path / "g.json"
        g.write_text(json.dumps(graph))
        source = ["--graph", str(g)]
    if limit is not None:
        source += ["--oracle-limit", str(limit)]
    code, _, _ = run_cli(["verify", *source, "--k", str(k), "--m", str(m),
                          "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_oracle_limit_default_is_the_oracles():
    # cli writes the default out, since it loads the oracle only when a
    # verify run fails; it must stay the oracle's own
    from orbitcoh.cli import build_parser
    from orbitcoh.oracle import DEFAULT_ORACLE_LIMIT
    args = build_parser().parse_args(["verify", "--complete", "2"])
    assert args.oracle_limit == DEFAULT_ORACLE_LIMIT


def test_verify_oracle_limit():
    code, _, err = run_cli(["verify", "--complete", "3", "--k", "3", "--m", "2",
                            "--oracle-limit", "50"])
    assert code == 3


@pytest.mark.parametrize("limit, want, prefix", [("-5", 2, "error: "),
                                                 ("0", 3, "unsupported: ")])
def test_verify_oracle_limit_sign(limit, want, prefix):
    # a negative limit is malformed input; zero is a limit no lattice meets
    code, text, err = run_cli(["verify", "--complete", "2", "--k", "2", "--m", "2",
                               "--oracle-limit", limit])
    assert code == want
    assert text == "" and err.startswith(prefix)


@pytest.mark.parametrize("command", ["betti", "ring"])
def test_oracle_limit_is_verify_only(command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--complete", "2", "--k", "2", "--m", "2",
              "--oracle-limit", "5"])
    assert exc.value.code == 2


def poset_json():
    return {
        "elements": ["a", "b", "c", "d", "T"],
        "covers": [["a", "c"], ["b", "d"], ["c", "T"], ["d", "T"]],
        "rank": [0, 0, 1, 1, 2],
    }


def test_cellular_pi3_ranks(tmp_path):
    # delta^bottom on the partition lattice of 3 gives OS ranks (1, 3, 2)
    elements = ["bot", "a12", "a13", "a23", "top"]
    covers = [["bot", "a12"], ["bot", "a13"], ["bot", "a23"],
              ["a12", "top"], ["a13", "top"], ["a23", "top"]]
    poset = {"elements": elements, "covers": covers, "rank": [0, 1, 1, 1, 2]}
    # ranks parallel the poset's sorted labels
    ranks = [1 if lab == "bot" else 0 for lab in sorted(elements)]
    cop = {"ranks": ranks, "extensions": {}}
    pf = tmp_path / "p.json"
    cf = tmp_path / "g.json"
    pf.write_text(json.dumps(poset))
    cf.write_text(json.dumps(cop))
    out = tmp_path / "form.json"
    code, _, _ = run_cli(["cellular", "--poset", str(pf),
                          "--copresheaf", str(cf), "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["cellular"] is True
    ranks = data["piece_ranks"]
    assert ranks["bot"] == 1
    assert ranks["a12"] == ranks["a13"] == ranks["a23"] == 1
    assert ranks["top"] == 2


def test_cellular_failure_exit1(tmp_path):
    pf = tmp_path / "p.json"
    cf = tmp_path / "g.json"
    pf.write_text(json.dumps(poset_json()))
    # constant copresheaf needs identity extensions on every cover
    ext = {}
    for lo, hi in poset_json()["covers"]:
        ext[f"{lo}->{hi}"] = [[1]]
    cf.write_text(json.dumps({"ranks": [1] * 5, "extensions": ext}))
    code, text, _ = run_cli(["cellular", "--poset", str(pf),
                             "--copresheaf", str(cf)])
    assert code == 1
    assert "kernel-sum" in text and "T" in text


def test_cellular_positive_homology_exit1(tmp_path):
    pf, cf = tmp_path / "p.json", tmp_path / "g.json"
    pf.write_text(json.dumps(STACKED_SQUARES))
    ext = {f"{lo}->{hi}": [[1]] for lo, hi in STACKED_SQUARES["covers"]}
    cf.write_text(json.dumps({"ranks": [1] * 9, "extensions": ext}))
    code, text, err = run_cli(["cellular", "--poset", str(pf), "--copresheaf", str(cf)])
    assert (code, err) == (1, "")
    assert text == ("not cellular: positive-homology fails at U "
                    "(homology below is nonzero in degree 1)\n")


def lattice_files(tmp_path):
    """The poset L(P3, 2, 2) and its delta sheaf at the minimum, as files
    for ``cellular``, with the form the package builds on them."""
    poset = OrbitLattice(path_graph(3), 2, 2).poset
    bottom = poset.labels[poset.minimum()]
    pf, cf = tmp_path / "p.json", tmp_path / "g.json"
    pf.write_text(json.dumps({
        "elements": list(poset.labels),
        "covers": [[poset.labels[lo], poset.labels[hi]] for lo, hi in poset.covers],
        "rank": list(poset.rank)}))
    cf.write_text(json.dumps({"ranks": [int(lab == bottom) for lab in poset.labels]}))
    form = construct_cellular_form(poset, delta_sheaf(poset, [bottom], 1, "co"))
    return pf, cf, form


@pytest.mark.parametrize("argv", [
    ["betti", "--complete", "3", "--k", "2", "--m", "2"],
    ["ring", "--complete", "2", "--k", "3", "--m", "2"],
    ["verify", "--complete", "2", "--k", "2", "--m", "2"],
    ["cellular", "--poset", "p.json", "--copresheaf", "g.json"],
], ids=["betti", "ring", "verify", "cellular"])
def test_out_file_is_the_text_of_its_document(tmp_path, monkeypatch, argv):
    # the streamed file holds what dumps gives for the same document, and
    # that is the standard library's text of what the file parses to
    pf, cf, _ = lattice_files(tmp_path)
    documents = []

    def recording_dump(data, fh):
        documents.append(data)
        jsonio.dump(data, fh)

    monkeypatch.setattr(cli, "dump", recording_dump)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.json"
    code, text, _ = run_cli(argv + ["--out", str(out)])
    assert (code, text) == (0, f"wrote {out}\n")
    written = out.read_text()
    assert len(documents) == 1
    assert written == dumps(documents[0]) == library_dumps(json.loads(written))


def test_cellular_out_on_an_orbit_lattice(tmp_path):
    pf, cf, form = lattice_files(tmp_path)
    out = tmp_path / "form.json"
    code, _, _ = run_cli(["cellular", "--poset", str(pf), "--copresheaf", str(cf),
                          "--out", str(out)])
    assert code == 0
    assert out.read_text() == dumps({"command": "cellular", "cellular": True,
                                     **form.to_json_dict()})


def test_cellular_text_builds_no_document(tmp_path, monkeypatch):
    pf, cf, form = lattice_files(tmp_path)

    def refuse(self):
        raise AssertionError("the JSON document was built")

    monkeypatch.setattr(CellularForm, "to_json_dict", refuse)
    code, text, err = run_cli(["cellular", "--poset", str(pf), "--copresheaf", str(cf)])
    assert (code, err) == (0, "")
    assert text.startswith("cellular form exists\nelement  rank  piece\n")
    assert text.count("\n") == 2 + form.poset.n


def test_cellular_unwritable_out(tmp_path):
    pf, cf, _ = lattice_files(tmp_path)
    out = tmp_path / "missing" / "form.json"
    code, text, err = run_cli(["cellular", "--poset", str(pf), "--copresheaf", str(cf),
                               "--out", str(out)])
    assert (code, text) == (2, "")
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1


CHAIN_POSET = {"elements": ["a", "b"], "covers": [["a", "b"]], "rank": [0, 1]}
CHAIN_COPRESHEAF = {"ranks": [1, 1], "extensions": {"a->b": [[1]]}}


def test_cellular_bad_json(tmp_path):
    # unparsable JSON, and well-formed JSON that breaks the schema, exit 2
    # with an error line
    cases = {
        "not-json": ("{not json", "{not json"),
        "unknown-cover": (
            {"elements": ["a", "b"], "covers": [["a", "z"]], "rank": [0, 1]},
            CHAIN_COPRESHEAF),
        "extensions-list": (CHAIN_POSET, {"ranks": [1, 1], "extensions": []}),
        "float-rank": (dict(CHAIN_POSET, rank=[0, 1.9]), CHAIN_COPRESHEAF),
        "bool-rank": (dict(CHAIN_POSET, rank=[0, True]), CHAIN_COPRESHEAF),
        "bool-piece-rank": (CHAIN_POSET, dict(CHAIN_COPRESHEAF, ranks=[1, True])),
        "negative-piece-rank": (CHAIN_POSET, {"ranks": [-1, 1]}),
        "float-entry": (CHAIN_POSET, dict(CHAIN_COPRESHEAF, extensions={"a->b": [[1.5]]})),
        "bool-entry": (CHAIN_POSET, dict(CHAIN_COPRESHEAF, extensions={"a->b": [[True]]})),
        "elements-string": (dict(CHAIN_POSET, elements="ab"), CHAIN_COPRESHEAF),
        "cover-string": (dict(CHAIN_POSET, covers=["ab"]), CHAIN_COPRESHEAF),
        # a matrix whose shape does not match the ranks it maps between
        "ragged-rows": (CHAIN_POSET, {"ranks": [2, 2],
                                      "extensions": {"a->b": [[1, 0], [1]]}}),
        "wrong-row-count": (CHAIN_POSET,
                            dict(CHAIN_COPRESHEAF, extensions={"a->b": [[1], [0]]})),
        "bare-integer": (CHAIN_POSET, dict(CHAIN_COPRESHEAF, extensions={"a->b": 1})),
    }
    bad_matrix = {"float-entry", "bool-entry", "ragged-rows", "wrong-row-count",
                  "bare-integer"}
    for name, (poset, copresheaf) in cases.items():
        pf = tmp_path / f"{name}.poset.json"
        cf = tmp_path / f"{name}.copresheaf.json"
        for path, data in ((pf, poset), (cf, copresheaf)):
            path.write_text(data if isinstance(data, str) else json.dumps(data))
        code, _, err = run_cli(["cellular", "--poset", str(pf), "--copresheaf", str(cf)])
        assert code == 2, name
        assert err.startswith("error: bad matrix at 'a->b': " if name in bad_matrix
                              else "error: "), name


_DIAMOND = {"elements": ["0", "x", "y", "1"],
            "covers": [["0", "x"], ["0", "y"], ["x", "1"], ["y", "1"]], "rank": [0, 1, 1, 2]}


@pytest.mark.parametrize("poset, copresheaf, line", [
    ({"elements": ["a", "b"], "covers": [["a", "b"]], "rank": [0, 2]}, {"ranks": [1, 1]},
     "invalid poset: cover a -> b jumps rank 0 -> 2"),
    ({"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"], ["a", "c"]],
      "rank": [0, 1, 2]}, {"ranks": [1, 1, 1]},
     "invalid poset: cover a -> c jumps rank 0 -> 2"),
    ({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]], "rank": [0, 1]},
     {"ranks": [1, 1]}, "invalid poset: cover relation contains a cycle"),
    # ranks follow the sorted labels 0, 1, x, y
    (_DIAMOND, {"ranks": [1, 1, 1, 1],
                "extensions": {"0->x": [[1]], "0->y": [[1]], "x->1": [[1]], "y->1": [[-1]]}},
     "invalid copresheaf: functoriality fails between 0 and 1"),
], ids=["rank-jump", "skipping-cover", "cycle", "not-functorial"])
def test_cellular_refused_input_line(tmp_path, poset, copresheaf, line):
    # a poset that is not graded or has a cycle, and a copresheaf that is
    # not functorial, exit 2 with one error line naming the fault
    pf, cf = tmp_path / "p.json", tmp_path / "g.json"
    pf.write_text(json.dumps(poset))
    cf.write_text(json.dumps(copresheaf))
    code, text, err = run_cli(["cellular", "--poset", str(pf), "--copresheaf", str(cf)])
    assert (code, text, err) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("raw", [b"\xff", b"[" * 100_000], ids=["not-utf8", "too-deep"])
def test_undecodable_json_exits_2(tmp_path, raw):
    # a file that is not UTF-8, or nests deeper than the parser recurses, is
    # malformed input (exit 2), whether it is a graph or a copresheaf
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    poset = tmp_path / "p.json"
    poset.write_text(json.dumps(CHAIN_POSET))
    for argv in (["betti", "--graph", str(bad), "--k", "2", "--m", "2"],
                 ["cellular", "--poset", str(poset), "--copresheaf", str(bad)]):
        code, text, err = run_cli(argv)
        assert code == 2, argv[0]
        assert text == "" and err.startswith("error: cannot read JSON"), argv[0]


def test_huge_json_integer_exits_2(tmp_path):
    # an integer literal past the interpreter's digit limit makes json.load
    # raise a plain ValueError, which is malformed input too
    g = tmp_path / "g.json"
    g.write_text('{"n": ' + "9" * 5000 + ', "edges": []}')
    code, text, err = run_cli(["betti", "--graph", str(g), "--k", "2", "--m", "2"])
    assert code == 2
    assert text == "" and err.startswith(f"error: cannot read JSON from {g}")
    assert err.count("\n") == 1


def test_cli_determinism_across_hash_seeds(tmp_path):
    """Byte-identical output under different PYTHONHASHSEED values."""
    outputs = []
    for seed in ("0", "424242"):
        proc = subprocess.run(
            [sys.executable, "-m", "orbitcoh.cli", "ring", "--complete", "2",
             "--k", "2", "--m", "2"],
            capture_output=True, env=subprocess_env(PYTHONHASHSEED=seed),
            cwd=os.path.dirname(__file__))
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_cli_json_determinism(tmp_path):
    blobs = []
    for seed in ("1", "99"):
        out = tmp_path / f"o{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "orbitcoh.cli", "verify", "--complete", "2",
             "--k", "2", "--m", "2", "--out", str(out)],
            capture_output=True, env=subprocess_env(PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr.decode()
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_package_runs_as_module():
    """``python -m orbitcoh`` behaves as ``python -m orbitcoh.cli``."""
    runs = []
    for module in ("orbitcoh", "orbitcoh.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "betti", "--complete", "2",
             "--k", "2", "--m", "2"],
            capture_output=True, env=subprocess_env())
        runs.append((proc.returncode, proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].startswith(b"degree  rank\n")
