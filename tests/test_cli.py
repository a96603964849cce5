"""End-to-end command tests driven through the argument-list entry point."""

import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import turanlab.cli
from turanlab import (
    brute_force_ex,
    build_from_recipe,
    complete,
    decode_graph6,
    encode_graph6,
    is_free,
    turan,
    wheel_construction_recipe,
    wheel_extremal_graph,
    write_graph6_lines,
)
from turanlab.cli import (
    MAX_ORDER,
    _read_graph_input,
    build_formula,
    build_seeds_provider,
    main,
    parse_family,
    parse_pattern_token,
)


class TestParsers:
    def test_pattern_tokens(self):
        assert parse_pattern_token("w7").n == 7
        assert parse_pattern_token("k3").edge_count == 3
        assert parse_pattern_token("c5").edge_count == 5
        assert parse_pattern_token("p4").edge_count == 3
        assert parse_pattern_token("g6:Bw").edge_count == 3

    def test_bad_tokens(self):
        for bad in ("q5", "w", "k-3", ""):
            with pytest.raises(ValueError):
                parse_pattern_token(bad)

    def test_family_order_preserved(self):
        fam = parse_family("w7,k3")
        assert fam[0].n == 7
        assert fam[1].n == 3

    def test_formula_specs(self):
        assert build_formula("turan:2", None)(9) == 20
        assert build_formula("wheel:3", None)(20) == 111
        assert build_formula("wheels:3,2", None)(24) == 162
        fam = parse_family("k3,k3")
        assert build_formula("union-turan:2", fam)(9) == 24
        with pytest.raises(ValueError):
            build_formula("zeta:3", None)
        with pytest.raises(ValueError):
            build_formula("union-turan:2", None)


class TestSeedsProvider:
    def test_union_turan_seeds_every_layer(self):
        seeds = build_seeds_provider("union-turan:2", parse_family("k3,k3"))(9)
        assert sorted(g.edge_count for g in seeds) == [20, 24]

    def test_wheel_seed_falls_back_to_a_feasible_layer(self):
        # no bracket maximizer at n = 9 has a layer; the fallback gives 25 edges
        seeds = build_seeds_provider("wheel:3", parse_family("w7"))(9)
        assert [g.edge_count for g in seeds] == [25]
        # no layer of the k = 3 construction fits on 4 vertices: no seed
        assert build_seeds_provider("wheel:3", parse_family("w7"))(4) == ()

    def test_seeds_are_free_and_of_order_n(self):
        # at n = 12 the second wheel seed is K1 joined to the best k = 2
        # construction on 11 vertices; the layers stop at l = n when the
        # family has more members, and a layer with no feasible wheel
        # construction has no seed
        for spec, fam, n, pinned in (
            ("wheels:3,2", parse_family("w7,w5"), 9, None),
            ("turan:2", parse_family("k3"), 9, None),
            ("wheels:3,2", parse_family("w7,w5"), 12,
             [("Kl?G^~~~f{^o", 43), ("K{eCN~~~f{^o", 45)]),
            ("union-turan:2", parse_family("k3,k3,k3,k3"), 3,
             [("BW", 2), ("Bw", 3), ("Bw", 3)]),
            ("wheels:3,3,2,2", parse_family("w7,w7,w5,w5"), 6,
             [("El~w", 13), ("E~~w", 15), ("E~~w", 15)]),
        ):
            seeds = build_seeds_provider(spec, fam)(n)
            assert seeds
            assert all(g.n == n and is_free(g, fam) for g in seeds)
            if pinned is not None:
                assert [(encode_graph6(g), g.edge_count) for g in seeds] == pinned

    def test_unknown_kind_raises_when_built(self):
        with pytest.raises(ValueError, match="unrecognized formula"):
            build_seeds_provider("zeta:3", parse_family("k3"))


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_module_runs_as_a_script(self):
        src = str(Path(turanlab.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "turanlab.cli"]
        done = subprocess.run(
            argv + ["ex-formula", "--formula", "turan:2", "--n", "9"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "value 20\n")
        done = subprocess.run(
            argv + ["ex-formula", "--formula", "wheel:", "--n", "9"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2
        assert "wheel formula needs one integer argument" in done.stderr

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_pattern_is_usage_error(self, capsys):
        assert main(["brute-force", "--family", "q9", "--n", "4"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["brute-force", "--family", ",", "--n", "4"]) == 2
        assert capsys.readouterr().err == "error: empty family spec\n"

    def test_removed_options_are_usage_errors(self, capsys):
        # the order guard is the oracle's HARD_CAP; no subcommand takes --seed
        argv = ["brute-force", "--family", "k3", "--n", "4", "--hard-cap", "12"]
        assert main(argv) == 2
        assert main(["gen", "--spec", "k3", "--seed", "1"]) == 2
        # the graph's order picks the stability partition method and its seed
        for old in (["--cap", "20"], ["--mode", "exact"], ["--starts", "5"],
                    ["--seed", "0"]):
            assert main(["stability", "--in", "-", "--r", "2"] + old) == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        # ex-formula reads one --formula spec; scan always seeds the oracle
        for old in (["--wheel-k", "3"], ["--wheels", "3,2"], ["--turan-r", "2"]):
            argv = ["ex-formula", "--formula", "wheel:3", "--n", "20"] + old
            assert main(argv) == 2
        argv = ["scan", "--family", "k3", "--formula", "turan:2", "--n-from", "3",
                "--n-to", "4", "--no-seeds"]
        assert main(argv) == 2
        # gen builds the wheel construction unless --spec is given, and its
        # graph6 line goes to stdout only
        capsys.readouterr()
        for argv in (["gen", "--kind", "wheel", "--n", "20", "--k", "3"],
                     ["gen", "--spec", "c5", "--out", "f"]):
            assert main(argv) == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["brute-force", "--family", "k100000", "--n", "5"],
            ["criticality", "--family", "c100000"],
            ["criticality", "--family", "c1001"],
            ["gen", "--spec", "turan:100000,2"],
            ["gen", "--n", "100000", "--k", "3"],
            ["brute-force", "--family", "k3", "--n", "100000", "--allow-large"],
            ["scan", "--family", "k3", "--formula", "turan:2", "--n-from", "1",
             "--n-to", "100000", "--allow-large"],
        ],
    )
    def test_orders_above_max_order_are_usage_errors(self, argv, capsys):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"exceeds MAX_ORDER={MAX_ORDER}" in err

    def test_max_order_itself_is_accepted(self):
        assert parse_pattern_token(f"c{MAX_ORDER}").n == MAX_ORDER
        with pytest.raises(ValueError, match="MAX_ORDER"):
            parse_pattern_token(f"p{MAX_ORDER + 1}")

    def test_malformed_graph6_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.g6"
        bad.write_text("not graph6 at all\x01\n")
        assert main(["verify", "--in", str(bad), "--family", "k3"]) == 2

    def test_infeasible_construction_is_usage_error(self, capsys):
        assert main(["gen", "--n", "9", "--k", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        # the library's k >= 3 gate speaks for gen
        assert main(["gen", "--n", "12", "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: wheel construction needs k >= 3 (wheel order 2k+1 >= 7),"
            " got k=2\n"
        )

    def test_budget_exhaustion_exits_three(self, tmp_path, capsys):
        out = tmp_path / "partial.json"
        code = main(
            [
                "brute-force",
                "--family",
                "k3",
                "--n",
                "7",
                "--budget-candidates",
                "5",
                "--json",
                str(out),
            ]
        )
        assert code == 3
        doc = json.loads(out.read_text())
        assert doc["exhaustive"] is False

    def test_budget_seconds_exits_three(self, tmp_path, capsys):
        out = tmp_path / "partial.json"
        # unseeded C4 at n = 9 runs about 0.7 s, far past the 0.01 s cap
        argv = ["brute-force", "--family", "c4", "--n", "9", "--budget-seconds",
                "0.01", "--json", str(out)]
        assert main(argv) == 3
        assert "time cap" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert doc["exhaustive"] is False

    def test_nan_budget_seconds_is_usage_error(self, capsys):
        argv = ["brute-force", "--family", "k3", "--n", "8", "--budget-seconds", "nan"]
        assert main(argv) == 2
        assert "max_seconds must be positive" in capsys.readouterr().err

    def test_allow_large_lifts_the_order_guard(self, capsys):
        argv = ["brute-force", "--family", "k12", "--n", "11"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "HARD_CAP" in err
        assert "--allow-large" in err
        assert main(argv + ["--allow-large"]) == 0
        assert "ex 55" in capsys.readouterr().out


class TestExFormula:
    def test_wheel_reference_invocation(self, capsys):
        assert main(["ex-formula", "--formula", "wheel:3", "--n", "20"]) == 0
        out = capsys.readouterr().out
        assert "value 111" in out
        assert "argmax n0: 10, 11" in out

    def test_wheels_flags_small_k(self, tmp_path, capsys):
        assert main(["ex-formula", "--formula", "wheels:3,2", "--n", "24"]) == 0
        out = capsys.readouterr().out
        assert "value 162" in out
        assert "(2, 13)" in out
        assert main(["ex-formula", "--formula", "wheels:3,2,2", "--n", "30"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "per-index argmax l: 3",
            "note: entries with k < 3 have no closed-form backing: 2, 2",
        ]
        # with every k >= 3 nothing is flagged and no note is printed
        out = tmp_path / "wheels.json"
        assert main(["ex-formula", "--formula", "wheels:4,3", "--n", "30",
                     "--json", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "value 255",
            "argmax (i, n0): (2, 16)",
            "per-index argmax l: 2",
        ]
        doc = json.loads(out.read_text())
        assert (doc["flagged_ks"], doc["per_index_argmax"]) == ([], [2])

    def test_exactly_one_formula_required(self, capsys):
        assert main(["ex-formula", "--n", "20"]) == 2
        assert "--formula" in capsys.readouterr().err

    def test_turan_value_and_json(self, tmp_path, capsys):
        out = tmp_path / "value.json"
        assert main(["ex-formula", "--formula", "turan:2", "--n", "9",
                     "--json", str(out)]) == 0
        assert capsys.readouterr().out == "value 20\n"
        doc = json.loads(out.read_text())
        assert (doc["formula"], doc["value"], doc["argmax"]) == ("turan:2", 20, [])

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("union-turan:2", "scan --family evaluates 'union-turan:2'"),
            ("turan:0", "turan formula needs r >= 1, got 0"),
            ("zeta:3", "unrecognized formula"),
            ("wheel:", "wheel formula needs one integer argument, got 'wheel:'"),
            ("turan:x", "turan formula needs one integer argument, got 'turan:x'"),
            ("wheels:3,x",
             "wheels formula ks must be a comma-separated integer list, got '3,x'"),
        ],
    )
    def test_specs_ex_formula_cannot_evaluate(self, spec, message, capsys):
        assert main(["ex-formula", "--formula", spec, "--n", "9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    def test_json_artifact(self, tmp_path):
        out = tmp_path / "value.json"
        main(["ex-formula", "--formula", "wheel:3", "--n", "20", "--json", str(out)])
        doc = json.loads(out.read_text())
        assert doc["schema"] == "formula-value/1"
        assert doc["value"] == 111
        assert doc["argmax"] == [10, 11]


class TestBruteForce:
    def test_reference_invocation(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(
            ["brute-force", "--family", "k3,k3", "--n", "6", "--json", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "extremal-result/1"
        assert doc["ex_value"] == 12
        assert doc["exhaustive"] is True
        text = capsys.readouterr().out
        assert "ex 12" in text
        assert "exhaustive true" in text

    def test_witness_file(self, tmp_path):
        wit = tmp_path / "wit.g6"
        main(["brute-force", "--family", "k3", "--n", "5", "--graph6", str(wit)])
        graphs = [decode_graph6(line) for line in wit.read_text().split()]
        assert [g.edge_count for g in graphs] == [6]

    def test_seed_flag(self, tmp_path, capsys):
        token = encode_graph6(turan(6, 2))
        code = main(
            ["brute-force", "--family", "k3", "--n", "6", "--seed-g6", token]
        )
        assert code == 0
        assert "ex 9" in capsys.readouterr().out
        argv = ["brute-force", "--family", "k3", "--n", "4", "--seed-g6",
                encode_graph6(complete(4))]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed contains the forbidden family\n"


class TestGen:
    def test_wheel_graph_and_recipe(self, tmp_path, capsys):
        recipe = tmp_path / "recipe.json"
        assert main(["gen", "--n", "20", "--k", "3", "--json", str(recipe)]) == 0
        g = decode_graph6(capsys.readouterr().out.strip())
        assert g.n == 20
        assert g.edge_count == 111
        doc = json.loads(recipe.read_text())
        assert doc["schema"] == "construction-recipe/1"
        # without --spec, gen builds the wheel construction
        for argv in (["gen"], ["gen", "--n", "20"], ["gen", "--k", "3"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: gen needs --n and --k, or --spec\n"

    def test_standard_tokens(self, tmp_path, capsys):
        assert main(["gen", "--spec", "turan:9,3"]) == 0
        g = decode_graph6(capsys.readouterr().out.strip())
        assert g == turan(9, 3)
        assert main(["gen", "--spec", "c5"]) == 0
        assert capsys.readouterr().out == "Dhc\n"
        assert main(["gen", "--spec", "turan:6"]) == 2
        err = capsys.readouterr().err
        assert err == "error: turan spec needs n,r, got 'turan:6'\n"
        # the wheel construction's options are errors next to --spec
        for extra in (["--n", "20"], ["--k", "3"], ["--n0", "8"], ["--ell", "3"],
                      ["--json", str(tmp_path / "r.json")]):
            assert main(["gen", "--spec", "c5"] + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "gen --spec takes no --n, --k, --n0, --ell or --json" in captured.err
        assert not (tmp_path / "r.json").exists()

    def test_n0_and_ell_overrides(self, capsys):
        argv = ["gen", "--n", "20", "--k", "3", "--n0", "8", "--ell", "2"]
        assert main(argv) == 0
        recipe = wheel_construction_recipe(20, 3, n0=8, ell=2)
        expected = write_graph6_lines([build_from_recipe(recipe)])
        assert capsys.readouterr().out == expected


class TestScan:
    def test_table_and_exit_zero(self, capsys):
        code = main(
            [
                "scan",
                "--family",
                "k3",
                "--formula",
                "turan:2",
                "--n-from",
                "3",
                "--n-to",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "formula agrees from n = 3 onward" in out

    def test_bad_formula_argument_is_usage_error(self, capsys):
        argv = ["scan", "--family", "k3", "--formula", "turan:x", "--n-from", "3",
                "--n-to", "4"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: turan formula needs one integer argument, got 'turan:x'\n"
        assert main(["ex-formula", "--formula", "wheels:", "--n", "9"]) == 2
        err = capsys.readouterr().err
        assert err == "error: wheels formula needs at least one k, got 'wheels:'\n"
        argv = ["scan", "--family", "k3", "--formula", "turan:2", "--n-from", "7",
                "--n-to", "5"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --n-to 5 is below --n-from 7\n"

    def test_budget_rows_exit_three(self, capsys):
        code = main(
            [
                "scan",
                "--family",
                "k3",
                "--formula",
                "turan:2",
                "--n-from",
                "3",
                "--n-to",
                "8",
                "--budget-candidates",
                "3",
            ]
        )
        assert code == 3
        rows = capsys.readouterr().out.splitlines()[1:7]
        # the one run at n = 8 admits one class on each of 1..3 vertices,
        # so the cap trips at level 4 and only the row n = 3 is known
        assert rows[0].split()[-1] == "yes"
        assert all(row.split()[-1] == "unknown" for row in rows[1:])

    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        main(
            [
                "scan",
                "--family",
                "k3,k3",
                "--formula",
                "union-turan:2",
                "--n-from",
                "6",
                "--n-to",
                "8",
                "--json",
                str(out),
            ]
        )
        doc = json.loads(out.read_text())
        assert doc["schema"] == "threshold-report/1"
        assert doc["first_agreement"] == 7


class TestVerify:
    def test_verdicts_are_data_not_errors(self, tmp_path, capsys):
        graphs = tmp_path / "graphs.g6"
        # one non-free graph, one free non-maximal, one fully structured
        from turanlab import complete, disjoint_union, join, write_graph6_lines

        graphs.write_text(
            write_graph6_lines(
                [
                    disjoint_union([complete(3), complete(3)]),
                    turan(7, 2),
                    join([complete(1), turan(6, 2)]),
                ]
            )
        )
        code = main(["verify", "--in", str(graphs), "--family", "k3,k3"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert "free no" in out[0]
        assert "maximal no" in out[1]
        assert "structure pass (q=1, ell=2)" in out[2]

    def test_json_report(self, tmp_path, monkeypatch):
        graphs = tmp_path / "graphs.g6"
        graphs.write_text(encode_graph6(turan(6, 2)) + "\n")
        out = tmp_path / "verify.json"
        main(
            ["verify", "--in", str(graphs), "--family", "k3", "--json", str(out)]
        )
        doc = json.loads(out.read_text())
        assert doc["schema"] == "verify-report/1"
        assert doc["graphs"][0]["free"] is True
        # --in - reads the same graphs from stdin
        from_stdin = tmp_path / "stdin.json"
        monkeypatch.setattr(sys, "stdin", io.StringIO(graphs.read_text()))
        main(["verify", "--in", "-", "--family", "k3", "--json", str(from_stdin)])
        assert from_stdin.read_bytes() == out.read_bytes()

    def test_input_file_is_closed(self, tmp_path):
        graphs = tmp_path / "graphs.g6"
        graphs.write_text("Bw\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(_read_graph_input(str(graphs))) == 1
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["verify", "--in", "/nonexistent.g6", "--family", "k3"]) == 2
        capsys.readouterr()
        empty = tmp_path / "empty.g6"
        empty.write_text("")
        assert main(["verify", "--in", str(empty), "--family", "k3"]) == 2
        assert capsys.readouterr().err == f"error: no graphs found in {str(empty)!r}\n"

    def test_inner_oracle_runs_once_per_order(self, tmp_path, monkeypatch, capsys):
        # three of the four witnesses of ex(6, C4) have no universal vertex,
        # so each of them needs ex(6, C4) from the oracle
        witnesses = brute_force_ex(6, parse_family("c4")).witnesses
        graphs = tmp_path / "graphs.g6"
        graphs.write_text(write_graph6_lines(witnesses))
        calls = []

        def counting(n, family, **kwargs):
            calls.append(n)
            return brute_force_ex(n, family, **kwargs)

        monkeypatch.setattr(turanlab.cli, "brute_force_ex", counting)
        assert main(["verify", "--in", str(graphs), "--family", "c4"]) == 0
        assert calls == [6]
        assert capsys.readouterr().out.count("structure pass") == 3
        # a run that trips its budget is not cached: each graph reports it
        calls.clear()
        argv = ["verify", "--in", str(graphs), "--family", "c4",
                "--budget-candidates", "1"]
        assert main(argv) == 0
        assert calls == [6, 6, 6]
        assert capsys.readouterr().out.count("structure unknown (candidate cap") == 3


class TestCriticality:
    def test_table_lines(self, capsys):
        assert main(["criticality", "--family", "w7,w6,k4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "w7: chi 3, vertex-critical yes (vertex 0), edge-critical no"
        assert "chi 4" in lines[1] and "edge-critical yes" in lines[1]
        assert "k4: chi 4" in lines[2]

    def test_complete_graph_at_max_order(self, capsys):
        assert main(["criticality", "--family", f"k{MAX_ORDER}"]) == 0
        assert capsys.readouterr().out == (
            f"k{MAX_ORDER}: chi {MAX_ORDER}, vertex-critical yes (vertex 0),"
            " edge-critical yes (edge 0-1)\n"
        )


class TestStability:
    def test_partition_report(self, tmp_path, capsys):
        graphs = tmp_path / "graphs.g6"
        graphs.write_text(encode_graph6(turan(9, 3)) + "\n")
        code = main(["stability", "--in", str(graphs), "--r", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "internal edges 0" in out
        assert "min-degree audit (r=3, theta 0.1): pass" in out

    def test_parts_above_max_order_are_usage_errors(self, tmp_path, capsys):
        graphs = tmp_path / "graphs.g6"
        graphs.write_text(encode_graph6(turan(9, 3)) + "\n")
        argv = ["stability", "--in", str(graphs), "--r"]
        assert main(argv + [str(MAX_ORDER + 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"exceed MAX_ORDER={MAX_ORDER}" in err
        assert main(argv + [str(MAX_ORDER)]) == 0
        assert f"part {MAX_ORDER}: 0\n" in capsys.readouterr().out

    def test_order_above_exact_cap_gets_local_search(self, tmp_path, capsys):
        graphs = tmp_path / "graphs.g6"
        graphs.write_text(encode_graph6(wheel_extremal_graph(16, 3)) + "\n")
        argv = ["stability", "--in", str(graphs), "--r", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph 1 (n=16, e=")
        assert ", mode local-search\n" in out
        assert main(argv) == 0
        assert capsys.readouterr().out == out


class TestDeterminism:
    def test_identical_requests_identical_outputs(self, tmp_path, capsys):
        argv = ["brute-force", "--family", "k3,k3", "--n", "6"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_json_reemission_is_byte_identical(self, tmp_path):
        out = tmp_path / "a.json"
        main(["brute-force", "--family", "c4", "--n", "6", "--json", str(out)])
        text = out.read_text()
        doc = json.loads(text)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


GOLDEN = Path(__file__).parent / "golden"


class TestGolden:
    """Stdout and artifact bytes pinned against files recorded from the CLI."""

    # the goldens whose command does not exit 0: a budget trip exits 3
    EXIT_CODES = {"scan_budget": 3, "scan_trip_low": 3}

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("wheels", ["ex-formula", "--formula", "wheels:3,2", "--n", "24"]),
            ("wheel", ["ex-formula", "--formula", "wheel:3", "--n", "20"]),
            ("brute_force", ["brute-force", "--family", "k3,k3", "--n", "6"]),
            (
                "scan",
                [
                    "scan", "--family", "k3,k3", "--formula", "union-turan:2",
                    "--n-from", "6", "--n-to", "8",
                ],
            ),
            ("gen", ["gen", "--n", "20", "--k", "3"]),
            # T(12,2) trips HARD_CAP in the structure audit; T(16,3) is above
            # EXACT_CAP, so stability takes the local search
            ("verify", ["verify", "--in", str(GOLDEN / "graphs.g6"),
                        "--family", "k3,k3"]),
            ("criticality", ["criticality", "--family", "w7,w6,k4,c5,g6:Bw"]),
            ("stability", ["stability", "--in", str(GOLDEN / "graphs.g6"),
                           "--r", "3", "--theta", "0.25"]),
            # recorded when each order had its own budget: the one run at
            # n = 9 trips at level 8, as the n = 8 run did alone
            (
                "scan_budget",
                [
                    "scan", "--family", "c4", "--formula", "turan:2",
                    "--n-from", "3", "--n-to", "9", "--budget-candidates", "300",
                ],
            ),
            # the one run trips at level 3, below the union's order 6: rows
            # 1..5 are K_n and exact, rows 6..8 unknown
            (
                "scan_trip_low",
                [
                    "scan", "--family", "k3,k3", "--formula", "union-turan:2",
                    "--n-from", "1", "--n-to", "8", "--budget-candidates", "2",
                ],
            ),
            # a clique-topped recipe: K_1 joined to the order-20 construction
            ("gen_ell2", ["gen", "--n", "21", "--k", "3", "--ell", "2"]),
        ],
    )
    def test_outputs_are_unchanged(self, name, argv, tmp_path, capsys):
        out_json = tmp_path / "out.json"
        out_g6 = tmp_path / "out.g6"
        argv = argv + ["--json", str(out_json)]
        if name == "brute_force":
            argv += ["--graph6", str(out_g6)]
        assert main(argv) == self.EXIT_CODES.get(name, 0)
        golden = GOLDEN / name
        captured = capsys.readouterr()
        assert captured.out.encode() == golden.with_suffix(".out").read_bytes()
        # a budget trip says so on stderr; nothing else writes there
        if name in self.EXIT_CODES:
            assert captured.err.startswith("budget exceeded:")
        else:
            assert captured.err == ""
        assert out_json.read_bytes() == golden.with_suffix(".json").read_bytes()
        if name == "brute_force":
            assert out_g6.read_bytes() == golden.with_suffix(".g6").read_bytes()
