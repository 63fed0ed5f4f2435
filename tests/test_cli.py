"""Command-line behavior through the in-process entry point.

Every test drives ``cremfan.cli.main`` directly (stdout/stderr captured by
pytest) so the whole matrix stays fast; one subprocess check at the end
proves the installed console script works.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

import pytest

from cremfan import cli, matroid
from cremfan.cli import main
from cremfan.generators import a3_arrangement, coxeter_matroid, uniform
from cremfan.matroid import Matroid
from cremfan.serialize import load_matroid, matroid_to_dict

from conftest import count_backend_calls, record_walks, star_labels, swap_star_labels


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out), err


@pytest.fixture()
def a3_file(tmp_path, capsys):
    path = str(tmp_path / "a3.json")
    code = main(["gen", "a3-arrangement", "--out", path])
    capsys.readouterr()
    assert code == 0
    return path


@pytest.fixture()
def u25_file(tmp_path, capsys):
    path = str(tmp_path / "u25.json")
    assert main(["gen", "U:2,5", "--out", path]) == 0
    capsys.readouterr()
    return path


@pytest.fixture()
def k7_file(tmp_path, capsys):
    path = str(tmp_path / "k7.json")
    assert main(["gen", "K7", "--out", path]) == 0
    capsys.readouterr()
    return path


@pytest.fixture()
def k7_fp_file(k7_file):
    # K7 over F_101, where no reflection pass runs, so every element map is
    # checked by the hyperplane walk
    with open(k7_file) as handle:
        doc = json.load(handle)
    with open(k7_file, "w") as handle:
        json.dump({**doc, "field": "Fp:101"}, handle)
    return k7_file


class TestGen:
    def test_round_trip_and_envelope(self, tmp_path, capsys):
        path = str(tmp_path / "b3.json")
        doc, err = run_json(capsys, "gen", "B3", "--out", path)
        assert doc["schema"] == 1
        assert doc["command"] == "gen"
        assert doc["input"]["path"] == path
        assert len(doc["input"]["sha256"]) == 64
        assert doc["matroid"]["rank"] == 3
        assert doc["matroid"]["elements"] == 9
        assert doc["matroid"]["connected"] is True
        assert err.startswith("[time] gen:")
        # the written file reloads to an identical flat census
        M = load_matroid(path)
        ref = coxeter_matroid("B3")
        for r in range(1, 4):
            ours = {f.elements for f in M.flats_of_rank(r)}
            theirs = {f.elements for f in ref.flats_of_rank(r)}
            assert ours == theirs

    def test_unknown_spec_is_input_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "gen", "Z9", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("spec, size", [
        ("K2000", "1999000 elements"),
        ("A300", "45150 elements"),
        ("U:10,24", "2496144 circuits"),
        ("U:3,20", "4845 circuits"),
        ("U:3,5000", "5000 elements"),
        ("dowling:Z3000", "9003 elements"),
    ])
    def test_oversized_spec_is_budget_error(self, tmp_path, capsys, spec, size):
        out_path = tmp_path / "x.json"
        t0 = time.perf_counter()
        code, out, err = run(capsys, "gen", spec, "--out", str(out_path))
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert out == "" and not out_path.exists()
        assert f"has {size}" in err and "cap of" in err

    def test_generated_circuit_list_loads(self, tmp_path, capsys):
        # 792 circuits: the list `gen` writes passes the check loading runs
        path = str(tmp_path / "u412.json")
        assert main(["gen", "U:4,12", "--out", path]) == 0
        capsys.readouterr()
        M = load_matroid(path)
        assert len(M.circuits()) == 792 and M.full_rank() == 4

    def test_circuit_list_loading_would_refuse_is_not_written(self, tmp_path, capsys):
        # 1,287 circuits: few enough pairs, but past the check's budget
        out_path = tmp_path / "u413.json"
        code, out, err = run(capsys, "gen", "U:4,13", "--out", str(out_path))
        assert code == 3
        assert out == "" and not out_path.exists()
        assert "error: budget exceeded: checking the 1287 circuits" in err

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "B3", "--out", str(tmp_path / "missing" / "x.json")
        )
        assert code == 2
        assert "cannot write" in err


class TestCremona:
    def test_enumerate_payload(self, a3_file, capsys):
        doc, _ = run_json(capsys, "cremona", a3_file, "--enumerate")
        payload = doc["payload"]
        assert payload["count"] == 4
        bases = sorted(b["basis"] for b in payload["bases"])
        assert bases == [
            ["1", "2", "6"], ["1", "4", "5"], ["2", "3", "5"], ["3", "4", "6"],
        ]
        first = next(
            b for b in payload["bases"] if b["basis"] == ["1", "2", "6"]
        )
        assert first["F"] == {"0,1": ["5"], "0,2": ["4"], "1,2": ["3"]}
        assert abs(first["quotient_det"]) == 1
        assert first["one_multiple"] == 2

    def test_check_reports_ok_false_with_reason(self, a3_file, capsys):
        doc, _ = run_json(capsys, "cremona", a3_file, "--check", "1,2,3")
        assert doc["payload"]["ok"] is False
        assert doc["payload"]["reason"]

    def test_check_accepts_indices_too(self, tmp_path, capsys):
        # the fixture's labels are numerals, so use B3 (labeled by roots)
        # to exercise the index fallback: 0, 1, 2 are x1, x2, x3
        path = str(tmp_path / "b3.json")
        assert main(["gen", "B3", "--out", path]) == 0
        capsys.readouterr()
        doc, _ = run_json(capsys, "cremona", path, "--check", "0,1,2")
        assert doc["payload"]["ok"] is True
        assert doc["payload"]["basis"] == ["x1", "x2", "x3"]

    def test_bad_element_token(self, a3_file, capsys):
        code, _, err = run(capsys, "cremona", a3_file, "--check", "1,2,zz")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("mode, repeated", [
        (["--check", "1,2,6,1"], "1"),
        (["--check", "1,1,2"], "1"),
        (["--pair", "1,2,6", "2,3,5,3"], "3"),
        (["--realize", "1,2,6", "2,5,3,5", "--field", "Fp:7"], "5"),
    ], ids=["check", "check-short", "pair", "realize"])
    def test_a_repeated_element_is_refused(self, a3_file, capsys, mode, repeated):
        # a basis list names each element once; a repeat is no basis of
        # the listed size, so it is refused rather than dropped
        code, out, err = run(capsys, "cremona", a3_file, *mode)
        assert (code, out) == (2, "")
        assert f"element {repeated!r} is listed twice" in err

    def test_pair_payload(self, a3_file, capsys):
        doc, _ = run_json(capsys, "cremona", a3_file, "--pair", "1,2,6", "2,3,5")
        payload = doc["payload"]
        assert payload["other"] == ["2", "3", "5"]
        assert payload["intersection"] == ["2"]
        assert payload["component_count"] == 1
        (comp,) = payload["components"]
        assert comp["center"] == "2"
        assert sorted(comp["vertices"]) == ["1", "2", "6"]
        assert payload["involution"] == [4, 1, 5, 3, 0, 2]

    def test_pair_builds_each_two_basis_report_once(self, a3_file, capsys, monkeypatch):
        from cremfan import cremona

        calls = []
        report = cremona.two_basis_report

        def recorded(M, d1, d2):
            calls.append((d1.basis, d2.basis))
            return report(M, d1, d2)

        monkeypatch.setattr(cremona, "two_basis_report", recorded)
        run_json(capsys, "cremona", a3_file, "--pair", "1,2,6", "2,3,5")
        # the payload's report of (b, b*) is the involution's, so (b, b*) and (b*, b)
        assert len(calls) == 2 and calls[0] == calls[1][::-1]

    def test_pair_with_a_map_that_is_no_automorphism_exits_4(self, tmp_path, capsys, monkeypatch):
        from cremfan import cremona

        path = str(tmp_path / "k5.json")
        assert main(["gen", "K5", "--out", path]) == 0
        capsys.readouterr()
        report = cremona.two_basis_report
        monkeypatch.setattr(cremona, "two_basis_report",
                            lambda *args: swap_star_labels(report(*args)))
        code, out, err = run(capsys, "cremona", path, "--pair", "0,1,2,3", "0,4,5,6")
        assert (code, out) == (4, "")
        assert "invariant violation: constructed map does not carry the hyperplane" in err

    def test_pair_rejects_non_cremona_basis(self, a3_file, capsys):
        code, _, err = run(capsys, "cremona", a3_file, "--pair", "1,2,3", "2,3,5")
        assert code == 2
        assert "not a Cremona basis" in err

    @pytest.mark.parametrize("mode", [
        ["--pair", "0,1", "2,3"],
        ["--realize", "0,1", "2,3", "--field", "Fp:7"],
    ], ids=["pair", "realize"])
    def test_disjoint_cremona_bases_are_refused(self, u25_file, capsys, mode):
        # {0, 1} and {2, 3} are both Cremona bases of U(2,5), sharing nothing
        code, out, err = run(capsys, "cremona", u25_file, *mode)
        assert code == 2
        assert out == ""
        assert "sharing an element" in err

    def test_realize_payload(self, u25_file, capsys):
        doc, _ = run_json(
            capsys, "cremona", u25_file, "--realize", "0,1", "1,2",
            "--field", "F5",
        )
        real = doc["payload"]["realization"]
        assert real["field"] == "Fp:5"
        assert real["N"] == 3
        assert len(real["vectors"]) == 5
        assert all(len(v) == 2 for v in real["vectors"])
        assert sorted(real["kappa"]) == ["2", "3", "4"]

    def test_realize_requires_field(self, u25_file, capsys):
        code, _, err = run(capsys, "cremona", u25_file, "--realize", "0,1", "1,2")
        assert code == 2
        assert "--field" in err

    def test_field_off_realize_is_refused(self, a3_file, tmp_path, capsys):
        code, out, err = run(capsys, "cremona", a3_file, "--enumerate", "--field", "Q")
        assert code == 2
        assert out == ""
        assert "error: --field applies to --realize" in err
        # refused before the matroid file is read
        missing = str(tmp_path / "nope.json")
        code, _, err = run(capsys, "cremona", missing, "--check", "0,1", "--field", "Q")
        assert code == 2
        assert "error: --field applies to --realize" in err

    def test_node_budget_off_enumerate_is_refused(self, a3_file, tmp_path, capsys):
        code, out, err = run(
            capsys, "cremona", a3_file, "--check", "0,1,5", "--max-nodes", "0"
        )
        assert code == 2
        assert out == ""
        assert "error: --max-nodes applies to --enumerate" in err
        # refused before the matroid file is read
        missing = str(tmp_path / "nope.json")
        code, _, err = run(
            capsys, "cremona", missing, "--pair", "0,1,5", "0,1,5", "--max-nodes", "9"
        )
        assert code == 2
        assert "error: --max-nodes applies to --enumerate" in err

    def test_realize_field_too_small(self, u25_file, capsys):
        code, _, err = run(
            capsys, "cremona", u25_file, "--realize", "0,1", "1,2",
            "--field", "F2",
        )
        assert code == 2
        assert "at least" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "cremona", str(tmp_path / "nope.json"), "--enumerate"
        )
        assert code == 2
        assert "cannot read" in err


    def test_enumerate_node_budget(self, tmp_path, capsys):
        path = str(tmp_path / "k7.json")
        assert main(["gen", "K7", "--out", path]) == 0
        capsys.readouterr()
        code, out, err = run(
            capsys, "cremona", path, "--enumerate", "--max-nodes", "10"
        )
        assert code == 3
        assert out == ""
        assert (
            "error: budget exceeded: the Cremona search stopped after 10 nodes "
            "with 1 bases found so far; raise max_nodes to override\n"
        ) in err

    @pytest.mark.parametrize("value", ["-5", "-1"])
    def test_negative_node_budget_is_a_usage_error(self, a3_file, capsys, value):
        with pytest.raises(SystemExit) as info:
            main(["cremona", a3_file, "--enumerate", "--max-nodes", value])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --max-nodes: budget must be non-negative, got {value}" in err

    def test_zero_node_budget_is_exceeded(self, a3_file, capsys):
        code, out, err = run(capsys, "cremona", a3_file, "--enumerate", "--max-nodes", "0")
        assert code == 3
        assert out == ""
        assert "the Cremona search stopped after 0 nodes" in err

    def test_enumerate_walks_the_lattice_once(self, tmp_path, capsys, monkeypatch):
        # the walk to the lines stores the points, so the simplicity check
        # reads them and does not walk from the empty flat again
        path = str(tmp_path / "d5.json")
        assert main(["gen", "D5", "--out", path]) == 0
        capsys.readouterr()
        walk, walks = Matroid._walk, []

        def counted(M, k, *args, **kwargs):
            walks.append(k)
            return walk(M, k, *args, **kwargs)

        monkeypatch.setattr(Matroid, "_walk", counted)
        doc, _ = run_json(capsys, "cremona", path, "--enumerate")
        assert doc["payload"]["count"] == 0
        assert walks == [2]

    @pytest.mark.parametrize("spec, bases", [("K7", 7), ("D5", 0)])
    def test_enumerate_eliminates_once_per_basis(self, spec, bases, tmp_path, capsys,
                                                 monkeypatch):
        # one fundamental-circuit elimination per basis, its re-check; the
        # summary's "connected" reads the walked lines, which join E, where
        # an elimination of E made one more
        path = str(tmp_path / f"{spec}.json")
        assert main(["gen", spec, "--out", path]) == 0
        capsys.readouterr()
        M = load_matroid(path)
        calls = count_backend_calls(M, monkeypatch)
        monkeypatch.setattr(cli, "load_matroid", lambda _path: M)
        doc, _ = run_json(capsys, "cremona", path, "--enumerate")
        assert doc["payload"]["count"] == bases
        assert doc["matroid"]["connected"] is True
        assert calls["fundamental_fast"] == bases

    K7_STARS = ["0-1,0-2,0-3,0-4,0-5,0-6", "0-1,1-2,1-3,1-4,1-5,1-6"]

    def test_realize_walk_has_a_budget(self, k7_fp_file, capsys, monkeypatch):
        # off a reflection arrangement the involution and the realization
        # are checked on M's hyperplanes, from one walk of M under
        # matroid.MAX_COVERS, so a lattice too large for it exits 3 and does
        # not run on
        monkeypatch.setattr(matroid, "MAX_COVERS", 100)
        code, out, err = run(
            capsys, "cremona", k7_fp_file, "--realize", *self.K7_STARS, "--field", "Fp:101"
        )
        assert code == 3
        assert out == ""
        assert "the flat-lattice walk to rank 5 needs more than 100 covers" in err

    def test_pair_walk_has_a_budget(self, k7_fp_file, capsys, monkeypatch):
        # past 15 elements (K7 has 21) the involution is checked too, by the
        # same walk and budget
        doc, _ = run_json(capsys, "cremona", k7_fp_file, "--pair", *self.K7_STARS)
        assert doc["payload"]["component_count"] == 1
        monkeypatch.setattr(matroid, "MAX_COVERS", 100)
        code, out, err = run(capsys, "cremona", k7_fp_file, "--pair", *self.K7_STARS)
        assert (code, out) == (3, "")
        assert "the flat-lattice walk to rank 5 needs more than 100 covers" in err

    @pytest.mark.parametrize("mode", [[], ["--field", "Fp:101"]], ids=["pair", "realize"])
    def test_a11_maps_are_certified_with_no_walk(self, tmp_path, capsys, monkeypatch, mode):
        # A11 (66 elements, rank 11) is a reflection arrangement: the linear
        # certificate accepts the involution on its vectors, and its 11
        # simple reflections on the realization, which closes the 11
        # parabolic hyperplanes; no walk goes past the points
        path = str(tmp_path / "a11.json")
        assert main(["gen", "A11", "--out", path]) == 0
        capsys.readouterr()
        M = load_matroid(path)
        walks = record_walks(M, monkeypatch)
        monkeypatch.setattr(cli, "load_matroid", lambda _path: M)
        flag = "--realize" if mode else "--pair"
        doc, _ = run_json(
            capsys, "cremona", path, flag, star_labels(11, 1), star_labels(11, 2), *mode
        )
        assert doc["payload"]["intersection"] == ["x1-x2"]
        assert all(k <= 1 for k, _kind in walks), walks

    @pytest.mark.parametrize("field", ["Q", "Fp:101"])
    def test_realize_with_a_wrong_vector_is_exit_4(self, k7_file, capsys, monkeypatch, field):
        from cremfan import cremona

        backend = cremona.VectorBackend

        def replaced(f, vectors):
            # element 20 (edge 5-6) gets twice the vector of element 0
            vectors = list(vectors)
            vectors[20] = tuple(x + x for x in vectors[0])
            return backend(f, vectors)

        monkeypatch.setattr(cremona, "VectorBackend", replaced)
        code, out, err = run(
            capsys, "cremona", k7_file, "--realize", *self.K7_STARS, "--field", field
        )
        assert code == 4
        assert out == ""
        assert "invariant violation: realization disagrees with the matroid on the hyperplane" in err

    def test_enumerate_leaf_mismatch_is_exit_4(self, a3_file, capsys, monkeypatch):
        import cremfan.cremona as cremona_mod

        monkeypatch.setattr(cremona_mod, "cremona_check", lambda M, b: None)
        code, out, err = run(capsys, "cremona", a3_file, "--enumerate")
        assert code == 4
        assert out == ""
        assert "non-Cremona basis" in err


class TestHugeModulus:
    """A huge F_p modulus is answered at once: accepted or exit 2."""

    def _u23_file(self, tmp_path, p):
        path = tmp_path / "u23.json"
        path.write_text(json.dumps({
            "schema": 1, "kind": "matroid", "elements": ["a", "b", "c"],
            "backend": "vectors", "field": f"Fp:{p}",
            "data": [["1", "0"], ["0", "1"], ["1", "1"]],
        }))
        return str(path)

    def test_mersenne_61_is_accepted(self, tmp_path, capsys):
        path = self._u23_file(tmp_path, 2 ** 61 - 1)
        start = time.perf_counter()
        doc, _ = run_json(capsys, "cremona", path, "--enumerate")
        assert time.perf_counter() - start < 1.0
        assert doc["payload"]["count"] == 3

    def test_beyond_certified_range_is_input_error(self, tmp_path, capsys):
        path = self._u23_file(tmp_path, 10 ** 30 + 57)
        start = time.perf_counter()
        code, out, err = run(capsys, "cremona", path, "--enumerate")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "too large" in err


class TestFan:
    def test_rays(self, tmp_path, capsys):
        path = str(tmp_path / "u23.json")
        assert main(["gen", "U:2,3", "--out", path]) == 0
        capsys.readouterr()
        doc, _ = run_json(capsys, "fan", path, "--rays")
        assert doc["payload"]["count"] == 3
        assert all(r["rank"] == 1 for r in doc["payload"]["rays"])

    def test_member_both_oracles(self, a3_file, capsys):
        doc, _ = run_json(capsys, "fan", a3_file, "--member", "0,0,0,0,0,0")
        assert doc["payload"]["in_fan"] is True
        assert doc["payload"]["circuit_oracle"] is True
        doc, _ = run_json(capsys, "fan", a3_file, "--member", "5,1,2,3,4,0")
        assert doc["payload"]["in_fan"] is False

    def test_member_fractional_weights(self, a3_file, capsys):
        doc, _ = run_json(capsys, "fan", a3_file, "--member", "1/2,1/2,0,0,0,0")
        assert doc["payload"]["point"][0] == "1/2"

    @pytest.mark.parametrize("weights", ["-1,0,1,2,-1,0", "-1/2,0,0,0,0,1", "-.5,1,0,0,0,0"])
    def test_member_negative_first_weight(self, a3_file, capsys, monkeypatch, weights):
        # argparse takes a value such as -1,0,1 for an option; --member W
        # reads it as --member=W does, also from the process's own argv
        joined = run(capsys, "fan", a3_file, f"--member={weights}")
        spaced = run(capsys, "fan", a3_file, "--member", weights)
        assert spaced[0] == joined[0] == 0
        assert spaced[1] == joined[1]
        monkeypatch.setattr(sys, "argv", ["cremfan", "fan", a3_file, "--member", weights])
        assert main() == 0
        assert capsys.readouterr().out == joined[1]

    def test_member_bad_weight(self, a3_file, capsys):
        code, _, err = run(capsys, "fan", a3_file, "--member", "1,x,0,0,0,0")
        assert code == 2
        assert "bad weight" in err

    @pytest.mark.parametrize("weight", ["1e5000", "1e4300", "1e10000000", "-2.5E-9999"])
    def test_member_huge_exponent(self, a3_file, capsys, weight):
        # Fraction would build 10**exponent, and past the digits an int may
        # print the weight could not be written
        code, out, err = run(capsys, "fan", a3_file, "--member", f"{weight},0,0,0,0,0")
        assert (code, out) == (2, "")
        assert f"bad weight {weight!r}" in err

    def test_member_wrong_length(self, a3_file, capsys):
        code, _, err = run(capsys, "fan", a3_file, "--member", "0,0")
        assert code == 2

    def test_graph_stats_and_dot(self, tmp_path, capsys):
        path = str(tmp_path / "fano.json")
        assert main(["gen", "fano", "--out", path]) == 0
        capsys.readouterr()
        dot = tmp_path / "fano.dot"
        doc, _ = run_json(capsys, "fan", path, "--graph", "--dot", str(dot))
        assert doc["payload"]["vertices"] == 14
        assert doc["payload"]["edges"] == 21
        assert doc["payload"]["regular"] == 3
        assert doc["payload"]["girth"] == 6
        text = dot.read_text()
        assert text.startswith("graph")
        assert text.count(" -- ") == 21

    def test_graph_of_a_single_loop_is_refused(self, tmp_path, capsys):
        # U:0,1 is one loop, so it is not simple (cremona --enumerate says
        # the same)
        path = str(tmp_path / "u01.json")
        assert main(["gen", "U:0,1", "--out", path]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "fan", path, "--graph")
        assert code == 2
        assert out == ""
        assert "ray adjacency graph needs a simple matroid" in err

    def test_graph_walk_has_a_budget(self, tmp_path, capsys, monkeypatch):
        # the full walk of --graph issues at most matroid.MAX_COVERS covers, so
        # a lattice too large for it (E8's) exits 3 and does not run on
        path = str(tmp_path / "d5.json")
        assert main(["gen", "D5", "--out", path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(matroid, "MAX_COVERS", 100)
        code, out, err = run(capsys, "fan", path, "--graph")
        assert code == 3
        assert out == ""
        assert "the flat-lattice walk to rank 4 needs more than 100 covers" in err

    def test_s_graph_payload(self, tmp_path, capsys):
        path = str(tmp_path / "d4.json")
        assert main(["gen", "D4", "--out", path]) == 0
        capsys.readouterr()
        doc, _ = run_json(capsys, "fan", path, "--s-graph")
        payload = doc["payload"]
        assert payload["verdict"] is True
        assert payload["min_rank_one_degree"] == 9
        assert payload["max_corank_one_degree"] == 6

    def test_s_graph_rank_one_only(self, tmp_path, capsys):
        path = str(tmp_path / "d4.json")
        assert main(["gen", "D4", "--out", path]) == 0
        capsys.readouterr()
        doc, _ = run_json(capsys, "fan", path, "--s-graph", "--rank-one-only")
        payload = doc["payload"]
        assert payload["verdict"] is None
        assert payload["corank_one_degrees"] is None
        # without hyperplane vertices, element degrees count rank-one
        # neighbors alone: (n-2)(n-3)+1 = 3 for D4
        assert payload["min_rank_one_degree"] == 3

    def test_s_graph_budget(self, tmp_path, capsys):
        path = str(tmp_path / "d4.json")
        assert main(["gen", "D4", "--out", path]) == 0
        capsys.readouterr()
        code, _, err = run(
            capsys, "fan", path, "--s-graph", "--max-subsets", "1"
        )
        assert code == 3
        assert "budget" in err

    def test_s_graph_budget_names_the_flats_found(self, tmp_path, capsys):
        path = str(tmp_path / "d4.json")
        assert main(["gen", "D4", "--out", path]) == 0
        capsys.readouterr()
        code, out, err = run(
            capsys, "fan", path, "--s-graph", "--max-subsets", "1"
        )
        assert code == 3
        assert out == ""
        # D4 is a reflection arrangement: its hyperplanes come from the
        # connected orbit walk, which counts the 12 covers of the empty flat
        # before it expands it, so it completes no level (depth first it had
        # found the point 0)
        assert (
            "error: budget exceeded: the connected-flat walk to rank 3 needs "
            "more than 1 covers; it had found 0 connected flats, by rank from "
            "1 to 3: 0, 0, 0\n"
        ) in err

    @pytest.mark.parametrize("value", ["-1", "-7"])
    def test_negative_cover_budget_is_a_usage_error(self, a3_file, capsys, value):
        with pytest.raises(SystemExit) as info:
            main(["fan", a3_file, "--s-graph", "--max-subsets", value])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --max-subsets: budget must be non-negative, got {value}" in err

    def test_zero_cover_budget_is_exceeded(self, a3_file, capsys):
        code, out, err = run(capsys, "fan", a3_file, "--s-graph", "--max-subsets", "0")
        assert code == 3
        assert out == ""
        assert "needs more than 0 covers" in err

    def test_non_integer_budget_is_a_usage_error(self, a3_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fan", a3_file, "--s-graph", "--max-subsets", "many"])
        assert info.value.code == 2
        assert "argument --max-subsets: invalid int value: 'many'" in capsys.readouterr()[1]

    @pytest.mark.parametrize("spec", ["B3", "B4"])
    def test_rays_query_no_rank(self, spec, tmp_path, capsys, monkeypatch):
        # each ray carries its rank from the walk that found it; B4's rays
        # come from the connected walk, whose levels the rank oracle does
        # not read, so a rank query per ray would reach the backend
        path = str(tmp_path / f"{spec}.json")
        assert main(["gen", spec, "--out", path]) == 0
        capsys.readouterr()
        M = load_matroid(path)
        calls = count_backend_calls(M, monkeypatch)
        monkeypatch.setattr(cli, "load_matroid", lambda _path: M)
        doc, _ = run_json(capsys, "fan", path, "--rays")
        assert doc["payload"]["count"] == {"B3": 16, "B4": 50}[spec]
        # the one rank query is r(E), for the matroid summary
        assert calls["rank_subset"] == 1

    def test_graph_tests_e_once(self, tmp_path, capsys, monkeypatch):
        # the ray graph's precondition and the matroid summary both ask for
        # E's connectivity; the verdict is kept, so E is tested once
        path = str(tmp_path / "d5.json")
        assert main(["gen", "D5", "--out", path]) == 0
        capsys.readouterr()
        tested = {}
        connected = Matroid._connected

        def counted(M, F):
            tested[F.bit_count()] = tested.get(F.bit_count(), 0) + 1
            return connected(M, F)

        monkeypatch.setattr(Matroid, "_connected", counted)
        doc, _ = run_json(capsys, "fan", path, "--graph")
        assert doc["matroid"]["connected"] is True
        assert tested == {20: 1}

    def test_rays_of_non_simple_vectors_come_from_the_full_walk(self, tmp_path, capsys):
        # B4 and a second vector on the line of its first root
        b4 = matroid_to_dict(coxeter_matroid("B4"))
        b4["elements"].append("twin")
        b4["data"].append([str(2 * int(x)) for x in b4["data"][0]])
        path = tmp_path / "b4-twin.json"
        path.write_text(json.dumps(b4))
        doc, _ = run_json(capsys, "fan", str(path), "--rays")
        reference = load_matroid(str(path))
        expected = [
            F for k in range(1, 4) for F in reference.flats_of_rank(k)
            if reference.is_connected(F.elements)
        ]
        labels = reference.ground.labels
        assert doc["payload"]["rays"] == [
            {"elements": [labels[e] for e in F.sorted()], "rank": F.rank}
            for F in expected
        ]
        # the parallel pair {x1, twin} is a connected rank-1 ray
        assert doc["payload"]["count"] == len(expected) == 50

    def test_dot_needs_a_graph_mode(self, a3_file, tmp_path, capsys):
        code, _, err = run(
            capsys, "fan", a3_file, "--rays", "--dot", str(tmp_path / "x.dot")
        )
        assert code == 2
        assert "--dot" in err

    @pytest.mark.parametrize("mode", [["--rays"], ["--graph"], ["--member", "1,0,0,0,0,0"],
                                      ["--s-graph", "--rank-one-only"]])
    def test_cover_budget_off_the_corank_one_walk_is_refused(self, a3_file, tmp_path,
                                                             capsys, mode):
        code, out, err = run(capsys, "fan", a3_file, *mode, "--max-subsets", "0")
        assert code == 2
        assert out == ""
        assert "error: --max-subsets applies to --s-graph without --rank-one-only" in err
        # refused before the matroid file is read
        missing = str(tmp_path / "nope.json")
        code, _, err = run(capsys, "fan", missing, *mode, "--max-subsets", "5")
        assert code == 2
        assert "error: --max-subsets applies to --s-graph without --rank-one-only" in err

    def test_rank_one_only_off_s_graph_is_refused(self, a3_file, tmp_path, capsys):
        code, out, err = run(capsys, "fan", a3_file, "--rays", "--rank-one-only")
        assert code == 2
        assert out == ""
        assert "error: --rank-one-only applies to --s-graph" in err
        # refused before the matroid file is read
        missing = str(tmp_path / "nope.json")
        code, _, err = run(capsys, "fan", missing, "--graph", "--rank-one-only")
        assert code == 2
        assert "error: --rank-one-only applies to --s-graph" in err


def _doc(backend, data, labels=("a", "b", "c"), **extra):
    doc = {"schema": 1, "kind": "matroid", "elements": list(labels),
           "backend": backend, "data": data, **extra}
    return json.dumps(doc)


class TestBadInput:
    @pytest.mark.parametrize("text, message", [
        (_doc("vectors", [["1"], ["2"]], field="Q"),
         "vector count does not match element count"),
        (_doc("vectors", ["1", ["2"], ["3"]], field="Q"),
         "each vector must be a list of entry strings"),
        (_doc("vectors", [["1", "0"], ["2"], ["0", "1"]], field="Q"),
         "vectors of mixed dimension"),
        (_doc("lines", [[0, 1]]), "a listed line needs at least 3 points"),
        (_doc("circuits", [[]]), "empty circuit"),
        (_doc("circuits", [[0, 1], [0, 1, 2]]), "circuit list is not an antichain"),
        (_doc("circuits", [[0, 1], [1, 2]]),
         "circuits [0, 1] and [1, 2] share 1, but no circuit through 0 lies in "
         "their union without it: the list breaks circuit elimination"),
        (_doc("circuits", 5), "field 'data' must be a list"),
        ("[1, 2, 3]", "matroid document must be a JSON object"),
        (_doc("vectors", [["1e10000000"], ["1"], ["2"]], field="Q"),
         "bad vector entry: bad rational '1e10000000'"),
        (_doc("circuits", [[0, 1]]).replace("1]]", "1" * 4301 + "]]"), "invalid JSON in"),
    ], ids=["vector-count", "vector-not-list", "mixed-dimension", "two-point-line",
            "empty-circuit", "not-antichain", "no-elimination", "data-not-list",
            "not-an-object", "huge-exponent", "integer-past-the-digit-limit"])
    def test_bad_matroid_file_is_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "fan", str(path), "--rays")
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("field", ["Q", "Qsqrt5"])
    @pytest.mark.parametrize("entry", ["", "1/0", "abc", "1__0"])
    def test_bad_vector_entry_is_exit_2(self, tmp_path, capsys, field, entry):
        path = tmp_path / "bad.json"
        path.write_text(_doc("vectors", [["1", "0"], [entry, "1"], ["1", "1"]], field=field))
        code, out, err = run(capsys, "cremona", str(path), "--enumerate")
        assert (code, out) == (2, "")
        assert "error: bad vector entry: " in err

    def test_circuit_list_past_the_check_budget_is_exit_3(self, tmp_path, capsys):
        # U:3,20 has 4,845 circuits: 11.7 million pairs to compare
        path = tmp_path / "u320.json"
        path.write_text(json.dumps(matroid_to_dict(uniform(3, 20))))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "fan", str(path), "--rays")
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert out == ""
        assert "error: budget exceeded: checking the 4845 circuits" in err

    @pytest.mark.parametrize("basis, message", [
        (",", "empty element list"),
        ("99", "element index 99 out of range 0..5"),
    ])
    def test_bad_check_basis_is_exit_2(self, a3_file, capsys, basis, message):
        code, out, err = run(capsys, "cremona", a3_file, "--check", basis)
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("mode", [
        ["--enumerate"],
        ["--check", "a,c"],
        ["--pair", "a,c", "b,c"],
        ["--realize", "a,c", "b,c", "--field", "Q"],
    ], ids=["enumerate", "check", "pair", "realize"])
    def test_non_simple_cremona_input_is_exit_2(self, tmp_path, capsys, mode):
        # a and b are parallel
        path = tmp_path / "par.json"
        path.write_text(_doc("vectors", [["1", "0"], ["2", "0"], ["0", "1"]], field="Q"))
        code, out, err = run(capsys, "cremona", str(path), *mode)
        assert code == 2
        assert out == ""
        assert "error: Cremona bases are defined for simple matroids" in err

    @pytest.mark.parametrize("spec", ["K2", "U:1,1"])
    @pytest.mark.parametrize("mode", [["--enumerate"], ["--check", "0"]],
                             ids=["enumerate", "check"])
    def test_rank_one_cremona_input_is_exit_2(self, tmp_path, capsys, spec, mode):
        # the one point is a basis with no pairs; its map sent v_b to 0
        path = str(tmp_path / "m.json")
        assert main(["gen", spec, "--out", path]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "cremona", path, *mode)
        assert code == 2
        assert out == ""
        assert "error: Cremona bases are defined for matroids of rank at least 2, got rank 1" in err

    def test_s_graph_writes_its_dot_file(self, tmp_path, capsys):
        path = str(tmp_path / "d4.json")
        assert main(["gen", "D4", "--out", path]) == 0
        capsys.readouterr()
        dot = tmp_path / "s.dot"
        doc, _ = run_json(capsys, "fan", path, "--s-graph", "--dot", str(dot))
        assert doc["args"]["dot"] == str(dot)
        text = dot.read_text()
        # the DOT graph is named after the graph's kind
        assert text.splitlines()[0] == "graph s {"
        # D4: 12 points with 3 rank-one neighbours each, and 12 connected
        # hyperplanes of 6 points each
        assert text.count(" [label=") == 12 + 12
        assert text.count(" -- ") == 12 * 3 // 2 + 12 * 6


class TestDeterminism:
    def test_stdout_is_byte_identical_across_runs(self, a3_file, capsys):
        argv = ["fan", a3_file, "--s-graph"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            out, err = capsys.readouterr()
            assert "[time]" in err and "[time]" not in out
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_invariant_violation_maps_to_exit_4(self, a3_file, capsys, monkeypatch):
        import cremfan.fan as fan_mod

        monkeypatch.setattr(
            fan_mod, "in_bergman_fan_circuits", lambda M, p, **kw: False
        )
        code, _, err = run(capsys, "fan", a3_file, "--member", "0,0,0,0,0,0")
        assert code == 4
        assert "invariant" in err


class TestRepeatedCalls:
    """Many ``main`` calls in one process share one parser; no call sees
    another's arguments, errors or output."""

    @pytest.fixture()
    def jobs(self, a3_file, u25_file, tmp_path):
        return [
            ["gen", "B3", "--out", str(tmp_path / "b3.json")],
            ["cremona", a3_file, "--enumerate"],
            ["cremona", a3_file, "--check", "1,2,6"],
            ["cremona", a3_file, "--pair", "1,2,6", "2,3,5"],
            ["cremona", u25_file, "--realize", "0,1", "0,2", "--field", "Fp:7"],
            ["fan", a3_file, "--rays"],
            ["fan", a3_file, "--graph"],
            ["fan", a3_file, "--member", "0,1,2,3,4,5"],
            ["fan", a3_file, "--s-graph"],
            ["fan", a3_file, "--s-graph", "--rank-one-only"],
        ]

    def test_every_mode_twice_gives_the_same_stdout(self, jobs, capsys):
        for argv in jobs:
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            assert run(capsys, *argv)[:2] == (code, out)

    def test_errors_between_calls_leave_the_next_call_alone(self, jobs, a3_file, capsys):
        for argv in jobs:
            code, good, _ = run(capsys, *argv)
            assert code == 0
            with pytest.raises(SystemExit) as usage:  # an argparse usage error
                main([argv[0], a3_file, "--max-nodes", "-1", "--max-subsets", "-1"])
            assert usage.value.code == 2
            assert run(capsys, "cremona", a3_file, "--check", "1,2,99")[:2] == (2, "")
            assert run(capsys, *argv)[:2] == (0, good)

    def test_the_parser_is_built_once(self, jobs, capsys, monkeypatch):
        run(capsys, *jobs[1])  # the process's parser exists after any call
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in jobs * 3:
            assert run(capsys, *argv)[0] == 0
        assert built == []


class TestConsoleScript:
    def test_python_dash_m(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        out_path = tmp_path / "k4.json"
        proc = subprocess.run(
            [sys.executable, "-m", "cremfan", "gen", "K4", "--out", str(out_path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["matroid"]["rank"] == 3
        assert out_path.exists()
        assert proc.stderr.startswith("[time]")

    def test_a_closed_stdout_exits_1_with_no_traceback(self, tmp_path, capsys):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        path = str(tmp_path / "k5.json")
        assert main(["gen", "K5", "--out", path]) == 0
        capsys.readouterr()
        read, write = os.pipe()
        os.close(read)  # a reader that reads no stdout: the report's write fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cremfan", "cremona", path, "--enumerate"],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
            )
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert re.fullmatch(r"\[time\] cremona: \d+\.\d{3}s\n", proc.stderr), proc.stderr

    def test_installed_entry_point(self, tmp_path):
        out_path = tmp_path / "k4.json"
        proc = subprocess.run(
            ["cremfan", "gen", "K4", "--out", str(out_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["matroid"]["rank"] == 3
        assert out_path.exists()
        assert proc.stderr.startswith("[time]")
