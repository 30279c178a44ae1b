"""Command-line surface: reports, formats, exit codes, determinism."""

import json
import os

import pytest

from orbiton import classify, cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestClassify:
    def test_real_diamond(self, capsys):
        code, doc = run_json(capsys, "classify", "real-diamond",
                             "--format", "json")
        assert code == 0
        assert doc["md4"]["family"] == "g442"
        assert doc["status"] == "ok"
        assert doc["exponential"] is True

    def test_abelian4_decomposable(self, capsys):
        code, doc = run_json(capsys, "classify", "abelian4",
                             "--format", "json")
        assert code == 0
        assert doc["md4"]["family"] == "DecomposableRnPlus"
        assert doc["decomposable"] is True

    def test_md_bar_trio(self, capsys):
        for name, tag in (("aff-r", "AffR"), ("aff-c", "AffC"),
                          ("h3", "NotMDBar")):
            code, doc = run_json(capsys, "classify", name,
                                 "--format", "json")
            assert code == 0
            assert doc["md_bar"]["tag"] == tag

    def test_algebra_file(self, capsys, tmp_path):
        doc = {"dim": 2, "labels": ["X", "Y"],
               "brackets": [{"i": 0, "j": 1, "coeffs": {"1": 1.0}}]}
        path = tmp_path / "aff.json"
        path.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "classify", str(path),
                             "--format", "json")
        assert code == 0
        assert rep["md_bar"]["tag"] == "AffR"

    def test_corrupted_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = run(capsys, "classify", str(path))
        assert code == 3

    def test_non_finite_structure_constant_is_input_error(self, capsys,
                                                           tmp_path):
        # json.loads reads the bare NaN token as float("nan").
        path = tmp_path / "nan.json"
        path.write_text('{"dim": 2, "brackets": '
                        '[{"i": 0, "j": 1, "coeffs": {"1": NaN}}]}')
        code = cli.main(["classify", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "c[0,1,1]" in captured.err

    def test_unknown_builtin(self, capsys):
        code, _ = run(capsys, "classify", "no-such-algebra")
        assert code == 3

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "classify", "/nonexistent/path.json")
        assert code == 3

    def test_degenerate_exponentiality_fails_with_exit_2(self, capsys,
                                                          monkeypatch):
        def degenerate(g):
            raise classify.DegenerateJordanError("weights not separated")

        monkeypatch.setattr(classify, "is_exponential", degenerate)
        code, rep = run_json(capsys, "classify", "real-diamond",
                             "--format", "json")
        assert code == 2
        assert rep["status"] == "fail"
        assert rep["md4"]["error"] == "DegenerateJordanError"

    def test_non_md4_fails_with_exit_2(self, capsys, tmp_path):
        doc = {"dim": 4, "brackets": [
            {"i": 3, "j": 0, "coeffs": {"1": 1.0}},
            {"i": 3, "j": 2, "coeffs": {"2": 1.0}},
        ]}
        path = tmp_path / "nonmd.json"
        path.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "classify", str(path),
                             "--format", "json")
        assert code == 2
        assert rep["md4"]["family"] == "NotMD4"
        assert rep["status"] == "fail"

    @pytest.mark.parametrize("name,tag", (("aff-c", "AffC"),
                                          ("g421", "NotMDBar")))
    def test_one_md4_classification_per_report(self, name, tag, capsys,
                                                monkeypatch):
        # the md-bar decision reuses the label the report already holds
        calls = []
        inner = classify.classify_md4

        def counted(g, *args, **kwargs):
            calls.append(g.dim)
            return inner(g, *args, **kwargs)

        monkeypatch.setattr(classify, "classify_md4", counted)
        code, doc = run_json(capsys, "classify", "--builtin", name,
                             "--format", "json")
        assert code == 0
        assert doc["md_bar"]["tag"] == tag
        assert calls == [4]

    def test_text_format(self, capsys):
        code, out = run(capsys, "classify", "g421", "--format", "text")
        assert code == 0
        assert "family: g421" in out
        assert "params: 0.5" in out

    def test_seed_is_not_a_classify_flag(self, capsys):
        # classify draws nothing at random, so it takes no --seed
        assert cli.main(["classify", "g411", "--seed", "1"]) == 3
        assert capsys.readouterr().out == ""


class TestAtlas:
    def test_base_example(self, capsys):
        code, doc = run_json(capsys, "atlas", "--family", "g442",
                             "--base", "1,1,1,0", "--samples", "50",
                             "--format", "json")
        assert code == 0
        assert doc["strata"][0]["bases"][0]["model"]["kind"] \
            == "HyperbolicParaboloid"
        assert doc["strata"][0]["bases"][0]["max_residual"] < 1e-8

    def test_full_family_sweep(self, capsys):
        code, doc = run_json(capsys, "atlas", "--family", "g424",
                             "--bases", "1", "--samples", "20",
                             "--format", "json")
        assert code == 0
        kinds = {b["model"]["kind"] for s in doc["strata"]
                 for b in s["bases"]}
        assert kinds == {"Point", "OpenDense4D"}

    def test_json_output_writes_cloud_csvs(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.json"
        code, _ = run(capsys, "atlas", "--family", "g442", "--bases", "1",
                      "--samples", "10", "--output", str(out_path),
                      "--format", "json")
        assert code == 0
        assert json.loads(out_path.read_text())["family"] == "g442"
        point_files = sorted(tmp_path.glob("*fixed-points*.csv"))
        assert point_files
        lines = point_files[0].read_text().strip().splitlines()
        assert lines[0] == "x,y,z,t"
        assert len(lines) == 2  # a fixed point is a single-row cloud
        assert len(sorted(tmp_path.glob("*.csv"))) == 5  # one per stratum

    def test_csv_format_concatenates_clouds(self, capsys):
        code, out = run(capsys, "atlas", "--family", "g411", "--bases", "1",
                        "--samples", "5", "--format", "csv")
        assert code == 0
        assert out.count("x,y,z,t") == 2  # both strata, one base each
        code, out = run(capsys, "atlas", "--family", "g411", "--bases", "0",
                        "--format", "csv")
        assert (code, out) == (3, "")  # no clouds to concatenate

    def test_text_lists_strata_without_bases(self, capsys):
        code, out = run(capsys, "atlas", "--family", "g411", "--bases", "0",
                        "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert "stratum fixed-points: 0 base(s)" in lines
        assert "stratum generic: 0 base(s)" in lines

    @pytest.mark.parametrize("flag, value", [("--samples", "0"),
                                             ("--samples", "-1"),
                                             ("--bases", "-1")])
    def test_rejects_counts_out_of_range(self, capsys, flag, value):
        code = cli.main(["atlas", "--family", "g411", flag, value,
                         "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert flag in captured.err

    @pytest.mark.parametrize("argv", [
        ("--family", "g411", "--base", "nan,1,1,0"),
        ("--family", "g421", "--params", "nan", "--bases", "1"),
        ("--family", "g421", "--params", "inf", "--bases", "1"),
        ("--family", "g442", "--base", "1,-inf,1,0")])
    def test_rejects_non_finite_numbers(self, capsys, argv):
        code = cli.main(["atlas", *argv, "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert argv[2] in captured.err

    def test_membership_gate(self, capsys):
        code, doc = run_json(capsys, "atlas", "--family", "g442",
                             "--tol", "membership=1e-30",
                             "--format", "json")
        assert code == 2
        assert doc["status"] == "fail"

    def test_unknown_tol_name(self, capsys):
        code, _ = run(capsys, "atlas", "--family", "g442",
                      "--tol", "bogus=1")
        assert code == 3

    def test_bad_params_count(self, capsys):
        code, _ = run(capsys, "atlas", "--family", "g421",
                      "--params", "1,2,3")
        assert code == 3


class TestFoliation:
    def test_all_families(self, capsys):
        code, doc = run_json(capsys, "foliation", "--points", "60",
                             "--format", "json")
        assert code == 0
        assert doc["status"] == "ok"
        ranks = {f["family"]: f["generic_rank"] for f in doc["families"]}
        assert ranks["g424"] == 4
        assert all(r == 2 for fam, r in ranks.items() if fam != "g424")
        assert all(f["max_tangency_residual"] < 1e-6
                   for f in doc["families"])

    def test_single_family(self, capsys):
        code, doc = run_json(capsys, "foliation", "--family", "g441",
                             "--points", "40", "--format", "json")
        assert code == 0
        assert [f["family"] for f in doc["families"]] == ["g441"]


class TestKindex:
    def test_default_checks(self, capsys):
        code, out = run(capsys, "kindex", "--format", "text")
        assert code == 0
        assert "delta0_gamma4: PASS (matrix matches)" in out
        assert "status: ok" in out

    def test_coarse_grid_fails_with_hint(self, capsys):
        code, out = run(capsys, "kindex", "--grid", "16",
                        "--format", "text")
        assert code == 2
        assert "FAIL" in out
        assert "hint: increase --grid" in out

    def test_single_case(self, capsys):
        code, doc = run_json(capsys, "kindex", "--case", "winding_u_plus",
                             "--format", "json")
        assert code == 0
        assert len(doc["checks"]) == 1

    def test_unknown_case(self, capsys):
        code, _ = run(capsys, "kindex", "--case", "nope")
        assert code == 3


class TestAll:
    def test_aggregate(self, capsys):
        code, doc = run_json(capsys, "all", "--format", "json")
        assert code == 0
        assert doc["status"] == "ok"
        assert set(doc["suites"]) \
            == {"classify", "atlas", "foliation", "kindex", "fredholm"}
        assert all(s["status"] == "ok" for s in doc["suites"].values())


class TestPlumbing:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 3
        capsys.readouterr()

    def test_bad_flag(self, capsys):
        assert cli.main(["classify", "--nope"]) == 3
        capsys.readouterr()

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        _, a = run(capsys, "atlas", "--family", "g442", "--seed", "1",
                   "--format", "json")
        monkeypatch.setenv("ORBITON_SEED", "1")
        _, b = run(capsys, "atlas", "--family", "g442", "--seed", "2",
                   "--format", "json")
        assert a == b

    def test_reports_are_byte_stable(self, capsys):
        _, a = run(capsys, "classify", "g431", "--format", "json")
        _, b = run(capsys, "classify", "g431", "--format", "json")
        assert a == b

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run(capsys, "classify", "g433", "--output", str(path),
                        "--format", "json")
        assert code == 0
        assert json.loads(path.read_text())["md4"]["family"] == "g433"


class TestFredholm:
    def test_non_convergence_is_reported(self, capsys, monkeypatch):
        from orbiton import fredholm
        monkeypatch.setattr(fredholm, "_ITER_CAP", 1)
        code, doc = run_json(capsys, "fredholm", "--which", "1",
                             "--L", "8", "--N", "64", "--format", "json")
        assert code == 2
        assert doc["status"] == "fail"
        assert doc["error"]["type"] == "NotConverged"

    def test_rows_listed_operator_by_operator(self, capsys, monkeypatch):
        # The rungs run one by one, S2 reusing S1's sector solve on each;
        # the report still lists each operator's rows in ladder order,
        # the main rung (off the ladder here) last.
        from orbiton import fredholm
        solves = []
        inner = fredholm._sector_triples

        def counted(m, *args):
            solves.append(m.shape[0])
            return inner(m, *args)

        monkeypatch.setattr(fredholm, "_last_solve", None)
        monkeypatch.setattr(fredholm, "_sector_triples", counted)
        code, doc = run_json(capsys, "fredholm", "--L", "8", "--N", "64",
                             "--format", "json")
        assert code == 0
        assert [(r["which"], r["L"], r["N"]) for r in doc["convergence"]] \
            == [(1, 6.0, 1024), (1, 8.0, 2048), (1, 8.0, 64),
                (2, 6.0, 1024), (2, 8.0, 2048), (2, 8.0, 64)]
        assert [(e["which"], e["L"], e["N"]) for e in doc["operators"]] \
            == [(1, 8.0, 64), (2, 8.0, 64)]
        assert len(solves) == 3

    def test_csv_is_a_usage_error_before_any_solve(self, capsys,
                                                   monkeypatch):
        from orbiton import fredholm

        def no_solve(op):
            raise AssertionError("csv must be rejected before any solve")

        monkeypatch.setattr(fredholm, "numerical_index", no_solve)
        assert cli.main(["fredholm", "--format", "csv"]) == 3
        assert capsys.readouterr().out == ""

    def test_too_coarse_grid_is_input_error(self, capsys):
        code, _ = run(capsys, "fredholm", "--L", "8", "--N", "16")
        assert code == 3
