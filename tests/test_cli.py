"""CLI verbs: outputs, exit codes, JSON/text agreement, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdposet import zoo
from cdposet.cli import main
from cdposet.partition import format_certificate
from cdposet.poset import format_poset, product


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def q_files(tmp_path, run):
    poset = tmp_path / "q.poset"
    cert = tmp_path / "q.spart"
    code, _, _ = run("gen", "q-polytope", "--out", str(poset), "--emit-cert", str(cert))
    assert code == 0
    return str(poset), str(cert)


@pytest.fixture()
def torus_files(tmp_path, run):
    poset = tmp_path / "t6.poset"
    cert = tmp_path / "t6.separt"
    code, _, _ = run("gen", "torus-fig6", "--out", str(poset), "--emit-cert", str(cert))
    assert code == 0
    return str(poset), str(cert)


@pytest.fixture()
def simplex_files(tmp_path, run):
    """simplex-boundary(3) and the boolean-interval pairs of its name-order shelling."""
    poset = tmp_path / "s.poset"
    assert run("gen", "simplex-boundary", "3", "--out", str(poset))[0] == 0
    p = zoo.gen("simplex-boundary", (3,))
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("".join(f"pair {r} {f}\n" for r, f in zoo.shelling_restrictions(p, sorted(p.coatoms()))))
    return str(poset), str(pairs)


class TestCoreVerbs:
    def test_cd_q(self, run, q_files):
        code, out, _ = run("cd", q_files[0])
        assert code == 0 and out.strip() == "c^3 + 5cd + 5dc"

    def test_check_spart_ok(self, run, q_files):
        code, out, _ = run("check-spart", *q_files)
        assert code == 0 and out.strip() == "OK"

    def test_semicd_torus(self, run, torus_files):
        code, out, _ = run("semicd", torus_files[0])
        assert code == 0 and out.strip() == "c^3 + 13cd + 7dc"

    def test_cd_torus_not_in_image(self, run, torus_files):
        code, out, _ = run("cd", torus_files[0])
        assert code == 1 and out.startswith("NotInImage")

    def test_euler(self, run, torus_files):
        code, out, _ = run("euler", torus_files[0])
        assert code == 0 and out.strip() == "chi = 0"

    def test_flags(self, run, q_files):
        code, out, _ = run("flags", q_files[0])
        assert code == 0 and "K={1}: 7" in out

    def test_check_eulerian(self, run, q_files, torus_files):
        assert run("check-eulerian", q_files[0])[:2] == (0, "eulerian\n")
        code, out, _ = run("check-eulerian", torus_files[0])
        assert code == 1 and out.strip() == "semi-eulerian"

    def test_validate(self, run, q_files):
        code, out, _ = run("validate", q_files[0])
        assert code == 0 and out.strip() == "OK"


class TestCertificates:
    def test_check_separt(self, run, torus_files):
        code, out, _ = run("check-separt", *torus_files)
        assert code == 0 and out.strip() == "OK"

    def test_wrong_kind_is_input_error(self, run, q_files, torus_files):
        code, _, err = run("check-separt", *q_files)
        assert code == 2 and "expected a separt certificate" in err

    def test_tampered_certificate(self, run, tmp_path, q_files):
        poset_path, cert_path = q_files
        text = Path(cert_path).read_text(encoding="utf-8")
        assert "members C R BC CR QR s2" in text
        bad = tmp_path / "bad.spart"
        bad.write_text(text.replace("members C R BC CR QR s2", "members R BC CR QR s2"))
        code, out, _ = run("check-spart", poset_path, str(bad))
        assert code == 1 and "VIOLATION" in out

    def test_contributions_table(self, run, q_files):
        code, out, _ = run("contributions", *q_files)
        assert code == 0
        lines = out.splitlines()
        assert "s1: c^3 + 2dc" in lines
        assert "s2: cd + 2dc" in lines
        assert "s5: cd + dc" in lines
        assert "s7: 0" in lines
        assert lines[-2] == "total: c^3 + 5cd + 5dc"
        assert lines[-1] == "agrees-with-direct: yes"

    def test_cd_recursive(self, run, torus_files):
        code, out, _ = run("cd-recursive", *torus_files)
        assert code == 0 and out.strip() == "c^3 + 13cd + 7dc"

    def test_reverse_check(self, run, q_files):
        code, out, _ = run("reverse-check", *q_files)
        assert code == 0 and "reverse-partitionable: yes" in out

    @pytest.mark.parametrize("verb", ["contributions", "cd-recursive", "reverse-check"])
    def test_invalid_certificate_prints_violations(self, run, tmp_path, q_files, verb):
        poset_path, cert_path = q_files
        text = Path(cert_path).read_text(encoding="utf-8")
        assert "    members PR s3\n" in text
        bad = tmp_path / "overlap.spart"  # AC belongs to s4 and is not below s3
        bad.write_text(text.replace("    members PR s3\n", "    members PR AC s3\n"))
        code, out, _ = run(verb, poset_path, str(bad))
        assert code == 1 and out.splitlines() == [
            "VIOLATION overlapping-classes spart/class[s4] AC already in class[s3]",
            "VIOLATION class-not-in-closure spart/class[s3] ['AC']",
        ]


class TestSearchAndConvert:
    def test_search_spart(self, run, q_files, tmp_path):
        out_cert = tmp_path / "found.spart"
        code, out, _ = run("search-spart", q_files[0], "--emit-cert", str(out_cert))
        assert code == 0 and "FOUND total c^3 + 5cd + 5dc" in out
        code, out, _ = run("check-spart", q_files[0], str(out_cert))
        assert code == 0

    def test_search_separt(self, run, torus_files):
        code, out, _ = run("search-separt", torus_files[0])
        assert code == 0 and "c^3 + 13cd + 7dc" in out

    def test_search_budget(self, run, q_files):
        code, out, _ = run("search-spart", q_files[0], "--budget", "2")
        assert code == 1 and "budget" in out

    def test_zero_budget_is_exhausted_at_once(self, run, q_files):
        code, out, _ = run("search-spart", q_files[0], "--budget", "0")
        assert code == 1 and out.strip() == "search budget of 0 nodes exhausted"

    @pytest.mark.parametrize("verb", ["search-spart", "convert-shelling", "convert-simplicial-partition"])
    def test_negative_budget_is_input_error(self, run, capsys, q_files, verb):
        extra = {"convert-shelling": ["--order", "s1"], "convert-simplicial-partition": ["--pairs", "x"]}
        with pytest.raises(SystemExit) as exc:
            run(verb, q_files[0], "--budget", "-3", *extra.get(verb, []))
        assert exc.value.code == 2
        assert "node limit must be nonnegative, got -3" in capsys.readouterr().err

    def test_budget_not_a_number_is_input_error(self, run, capsys, q_files):
        with pytest.raises(SystemExit) as exc:
            run("search-spart", q_files[0], "--budget", "abc")
        assert exc.value.code == 2
        assert "invalid node limit 'abc'" in capsys.readouterr().err

    def test_search_family_exhausted(self, run, tmp_path):
        """On S^1 x S^2 both facet-order searches run out of candidates."""
        poset = tmp_path / "s1xs2.poset"
        poset.write_text(format_poset(product(zoo.gen("polygon", (3,)), zoo.gen("sphere2cells", (2,)))))
        code, out, _ = run("search-spart", str(poset))
        assert code == 1 and out == "exhausted: no certificate in the search family\n"
        code, out, _ = run("--json", "search-separt", str(poset))
        assert code == 1 and json.loads(out)["result"] == {"found": False}

    def test_search_separt_deeper_than_the_recursion_limit(self, run, tmp_path):
        poset = tmp_path / "d.poset"
        assert run("gen", "discrete-points", "1100", "--out", str(poset))[0] == 0
        code, out, _ = run("search-separt", str(poset))
        assert code == 0 and out.strip() == "FOUND total c"

    def test_search_spart_on_torus_fails(self, run, torus_files):
        code, out, _ = run("search-spart", torus_files[0])
        assert code == 1 and "not Eulerian" in out

    def test_convert_shelling(self, run, q_files):
        code, out, _ = run("convert-shelling", q_files[0], "--order", "s1,s2,s3,s4,s5,s6,s7")
        assert code == 0 and "OK total c^3 + 5cd + 5dc" in out

    def test_convert_shelling_bad_order(self, run, q_files):
        code, out, _ = run("convert-shelling", q_files[0], "--order", "s7,s1,s2,s3,s4,s5,s6")
        assert code == 1 and "FAILURE" in out

    def test_convert_shelling_taken_tau_name(self, run, tmp_path):
        """polygon(4) with v2 renamed tau@e1, the tau name of e1's class: a failure, not an input error."""
        text = format_poset(zoo.gen("polygon", (4,)))
        poset = tmp_path / "renamed.poset"
        poset.write_text("\n".join(line.replace(" v2", " tau@e1") for line in text.splitlines()), encoding="utf-8")
        code, out, _ = run("convert-shelling", str(poset), "--order", "e0,e1,e2,e3")
        assert code == 1 and out.startswith("FAILURE tau-name-taken e1 tau@e1 is already an element of gamma(")

    def test_convert_simplicial(self, run, simplex_files):
        code, out, _ = run("convert-simplicial-partition", simplex_files[0], "--pairs", simplex_files[1])
        assert code == 0 and out.startswith("OK total")


class TestReports:
    def test_parse_error_exit_2(self, run, tmp_path):
        bad = tmp_path / "bad.poset"
        bad.write_text("poset x\nelem bot 0\nwat\n")
        code, _, err = run("validate", str(bad))
        assert code == 2 and "line 3" in err

    def test_invalid_poset_exit_2(self, run, tmp_path):
        """A poset file that parses but fails ``validate`` is an input error of every verb that computes."""
        bad = tmp_path / "unbounded.poset"
        bad.write_text(
            "poset x\nrank 2\nelem bot 0\nelem v0 1\nelem v1 1\nelem top 2\ncover bot v0\ncover bot v1\ncover v0 top\n"
        )
        code, out, err = run("cd", str(bad))
        assert code == 2 and out == "" and err == f"error: {bad}: VIOLATION not-bounded-above v1 covered by nothing\n"

    def test_json_matches_text_content(self, run, q_files):
        _, text_out, _ = run("contributions", *q_files)
        code, json_out, _ = run("--json", "contributions", *q_files)
        assert code == 0
        payload = json.loads(json_out)
        assert payload["command"] == "contributions"
        assert payload["polynomials"]["total"] == {"ccc": 1, "cd": 5, "dc": 5}
        assert payload["polynomials"]["s1"] == {"ccc": 1, "dc": 2}
        assert payload["result"]["agrees_with_direct"] is True
        # same numeric content as the text rows
        assert "s1: c^3 + 2dc" in text_out and "total: c^3 + 5cd + 5dc" in text_out

    def test_json_flags(self, run, q_files):
        code, out, _ = run("--json", "flags", q_files[0])
        payload = json.loads(out)
        assert payload["result"]["flags"]["{1,2,3}"] == 48

    def test_deterministic_output(self, run, q_files):
        first = run("contributions", *q_files)
        second = run("contributions", *q_files)
        assert first == second

    def test_gen_to_stdout(self, run):
        code, out, _ = run("gen", "polygon", "4")
        assert code == 0 and "poset polygon4" in out and "elem top 3" in out

    def test_json_zoo_error(self, run):
        code, out, err = run("--json", "gen", "polygon")
        assert code == 2 and "polygon takes 1 parameter(s), got 0" in err
        assert json.loads(out)["result"]["error"] == "polygon takes 1 parameter(s), got 0"

    def test_json_usage_error(self, capsys, q_files):
        with pytest.raises(SystemExit) as exc:
            main(["--json", "search-spart", q_files[0], "--budget", "-3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["command"] == "search-spart"
        assert payload["result"]["error"] == "argument --budget: node limit must be nonnegative, got -3"
        assert "node limit must be nonnegative, got -3" in captured.err


class TestBadCovers:
    POSETS = {
        "rank1cover": (
            "poset rank1cover\nrank 2\nelem bot 0\nelem v0 1\nelem v1 1\nelem top 2\n"
            "cover bot v0\ncover bot v1\ncover v0 v1\ncover v0 top\ncover v1 top\n"
        ),
        "downward": "poset downward\nrank 1\nelem bot 0\nelem top 1\ncover top bot\n",
    }
    VERBS = [
        ["validate"], ["flags"], ["euler"], ["cd"], ["semicd"], ["check-eulerian"],
        ["search-spart"], ["search-separt"], ["convert-shelling", "--order", "v0,v1"],
        ["check-spart", "x.cert"], ["contributions", "x.cert"],
    ]

    @pytest.mark.parametrize("name", sorted(POSETS))
    @pytest.mark.parametrize("verb", VERBS, ids=lambda v: v[0])
    def test_every_verb_exits_2(self, run, tmp_path, name, verb):
        path = tmp_path / f"{name}.poset"
        path.write_text(self.POSETS[name])
        code, out, err = run(verb[0], str(path), *verb[1:])
        assert code == 2 and out == ""
        assert "does not go up in rank" in err


class TestUnwritableOutput:
    """Writing into a missing directory is an input error: exit 2, no traceback."""

    VERBS = {
        "search-spart": ["search-spart", "Q", "--emit-cert"],
        "search-separt": ["search-separt", "T", "--emit-cert"],
        "convert-shelling": ["convert-shelling", "Q", "--order", "s1,s2,s3,s4,s5,s6,s7", "--emit-cert"],
        "convert-simplicial-partition": ["convert-simplicial-partition", "S", "--pairs", "PAIRS", "--emit-cert"],
        "gen-out": ["gen", "polygon", "4", "--out"],
        "gen-emit-cert": ["gen", "q-polytope", "--emit-cert"],
    }

    @pytest.mark.parametrize("name", sorted(VERBS))
    def test_missing_directory_exits_2(self, run, tmp_path, q_files, torus_files, simplex_files, name):
        files = {"Q": q_files[0], "T": torus_files[0], "S": simplex_files[0], "PAIRS": simplex_files[1]}
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(*[files.get(a, a) for a in self.VERBS[name]], str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {target}: ") and not target.parent.exists()


class TestParserBuiltOnce:
    def test_second_call_constructs_no_parser(self, run, monkeypatch):
        import argparse

        assert run("gen", "polygon", "4")[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run("gen", "polygon", "4")[0] == 0
        assert built == []


class TestInputErrors:
    def test_unknown_restriction_in_pairs(self, run, tmp_path, simplex_files):
        poset, pairs = simplex_files
        text = Path(pairs).read_text(encoding="utf-8")
        assert text.startswith("pair bot abc\n")
        bad = tmp_path / "unknown.pairs"
        bad.write_text(text.replace("pair bot abc", "pair nosuch abc"))
        code, out, err = run("convert-simplicial-partition", poset, "--pairs", str(bad))
        assert code == 2 and out == ""
        assert err == "error: restriction 'nosuch' not below facet 'abc'\n"

    def test_gen_without_published_certificate_writes_nothing(self, run, tmp_path):
        poset, cert = tmp_path / "p.poset", tmp_path / "p.spart"
        code, out, err = run("gen", "polygon", "6", "--out", str(poset), "--emit-cert", str(cert))
        assert code == 2 and out == ""
        assert err == "error: no transcribed certificate for family 'polygon'\n"
        assert list(tmp_path.iterdir()) == []

    def test_gen_builds_the_fixture_once(self, run, tmp_path, monkeypatch):
        built = []
        gen = zoo.gen
        monkeypatch.setattr(zoo, "gen", lambda *args: built.append(args) or gen(*args))
        poset, cert = tmp_path / "t6.poset", tmp_path / "t6.separt"
        code, out, _ = run("gen", "torus-fig6", "--out", str(poset), "--emit-cert", str(cert))
        assert code == 0 and built == [("torus-fig6", ())]
        assert out == f"poset written to {poset}\ncertificate written to {cert}\n"
        provenance = zoo.fixture_spec("torus-fig6").provenance
        assert poset.read_text() == format_poset(gen("torus-fig6"), provenance=provenance)
        assert cert.read_text() == format_certificate(zoo.fixture_certificate("torus-fig6"))

    def test_gen_bad_params_before_missing_certificate(self, run, tmp_path):
        code, out, err = run("gen", "polygon", "--emit-cert", str(tmp_path / "p.spart"))
        assert code == 2 and out == ""
        assert err == "error: polygon takes 1 parameter(s), got 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_file_not_utf8(self, run, tmp_path):
        path = tmp_path / "latin1.poset"
        path.write_bytes(b"poset caf\xe9\n")
        code, out, err = run("cd", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("verb", ["convert-shelling", "convert-simplicial-partition"])
    def test_conversion_budget_exhausted(self, run, q_files, simplex_files, verb):
        argv = {
            "convert-shelling": [q_files[0], "--order", "s1,s2,s3,s4,s5,s6,s7"],
            "convert-simplicial-partition": [simplex_files[0], "--pairs", simplex_files[1]],
        }[verb]
        code, out, _ = run(verb, *argv, "--budget", "0")
        assert code == 1 and out == "search budget of 0 nodes exhausted\n"
        code, out, _ = run("--json", verb, *argv, "--budget", "0")
        result = json.loads(out)["result"]
        assert code == 1 and result == {"converted": False, "reason": "search budget of 0 nodes exhausted"}


class TestDeepCertificates:
    """`check-spart` and `reverse-check` read, verify and probe a certificate 121 levels deep."""

    @pytest.fixture()
    def deep_files(self, tmp_path, deep_sphere):
        p, cert = deep_sphere
        (tmp_path / "s.poset").write_text(format_poset(p))
        (tmp_path / "s.spart").write_text(format_certificate(cert))
        return str(tmp_path / "s.poset"), str(tmp_path / "s.spart")

    def test_check_spart(self, run, deep_files, shallow_stack):
        assert run("check-spart", *deep_files)[:2] == (0, "OK\n")

    def test_reverse_check(self, run, deep_files, shallow_stack):
        code, out, _ = run("reverse-check", *deep_files)
        assert code == 0 and out.startswith("reverse-partitionable: yes\n")


def test_closed_stdout_shows_no_traceback():
    # polygon(3000) is ~200 kB of text, more than a pipe holds, so the write meets the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cdposet.cli", "gen", "polygon", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first == b"# provenance: generator\n"
    assert b"Traceback" not in err
