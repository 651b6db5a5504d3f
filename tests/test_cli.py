"""Command-line interface: outputs, determinism, and error handling."""

import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from diskbern import experiments as ex
from diskbern.cli import _write_csv, main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_value_matches_library(self, capsys):
        code, out, _ = run(
            ["eval", "--op", "Cbar", "--fn", "example1", "--n", "8", "--point", "0.3,-0.2"],
            capsys,
        )
        assert code == 0
        expected = float(ex.disk_operator("Cbar", 8)(ex.builtin(1), [(0.3, -0.2)])[0])
        assert float(out.strip()) == pytest.approx(expected, rel=1e-11)

    def test_const_function(self, capsys):
        code, out, _ = run(
            ["eval", "--op", "Bstancu-disk", "--fn", "const:2.5", "--n", "5", "--point", "0,0"],
            capsys,
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(2.5, abs=1e-12)

    def test_unknown_function_exits_2(self, capsys):
        code, _, err = run(
            ["eval", "--op", "Cbar", "--fn", "nope", "--n", "5", "--point", "0,0"], capsys
        )
        assert code == 2
        assert "unknown function" in err

    def test_point_outside_disk_exits_2(self, capsys):
        # 1e200 squares past the float range: still outside, and no overflow warning
        for point in ("0.9,0.9", "1e200,0"):
            code, _, err = run(
                ["eval", "--op", "Cbar", "--fn", "example1", "--n", "5", f"--point={point}"],
                capsys,
            )
            assert code == 2
            assert "mesh point index 0 outside the unit disk" in err

    @pytest.mark.parametrize("point", ["nan,0", "0,inf", "-inf,0"])
    def test_non_finite_point_exits_2(self, point, capsys):
        code, out, err = run(
            ["eval", "--op", "Cbar", "--fn", "example1", "--n", "5", f"--point={point}"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_function_exits_2(self, value, capsys):
        code, out, err = run(
            ["eval", "--op", "Cbar", "--fn", f"const:{value}", "--n", "5", "--point", "0.1,0.2"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "not finite" in err

    def test_bad_subcommand_usage(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code != 0

    # argparse takes a lone token such as -0.5,0.1 for an option; main
    # joins it to --point, so both spellings give the same output.
    @pytest.mark.parametrize("point", ["-0.5,0.1", "-0.3,-0.2", "0.4,-0.6", "-0,-0"])
    def test_negative_point_as_its_own_token(self, point, capsys):
        argv = ["eval", "--op", "Cbar", "--fn", "example1", "--n", "8"]
        spaced = run(argv + ["--point", point], capsys)
        assert spaced == run(argv + [f"--point={point}"], capsys)
        assert spaced[0] == 0 and spaced[2] == ""
        for option in ("--poi", "--p"):  # abbreviations argparse accepts
            assert run(argv + [option, point], capsys) == spaced
            assert run(argv + [f"{option}={point}"], capsys) == spaced

    def test_negative_point_from_sys_argv(self, capsys, monkeypatch):
        argv = ["eval", "--op", "Bbar", "--fn", "example2", "--n", "6"]
        monkeypatch.setattr(sys, "argv", ["diskbern"] + argv + ["--point", "-0.5,0.1"])
        assert main() == 0
        spaced = capsys.readouterr().out
        assert run(argv + ["--point=-0.5,0.1"], capsys) == (0, spaced, "")

    @pytest.mark.parametrize("point", ["1,2,3", "a,b", "-0.5", "-0.5,", ""])
    def test_malformed_point_exits_2(self, point, capsys):
        code, out, err = run(
            ["eval", "--op", "Cbar", "--fn", "example1", "--n", "5", "--point", point], capsys
        )
        assert code == 2
        assert out == ""
        assert "expected x,y" in err


class TestMesh:
    def test_quadrant_mesh_csv(self, tmp_path, capsys):
        out_file = tmp_path / "mesh.csv"
        code, out, _ = run(
            ["mesh", "--kind", "quadrant", "--n", "3", "--dedup", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,y,quadrant,k,j"
        assert len(lines) - 1 == 2 * 3 * 4 + 1

    def test_stancu_mesh_csv(self, tmp_path, capsys):
        out_file = tmp_path / "mesh.csv"
        code, _, _ = run(["mesh", "--kind", "stancu", "--n", "4", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,y,k,j"
        assert len(lines) - 1 == 25

    def test_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DISKBERN_OUT_DIR", str(tmp_path))
        code, out, _ = run(["mesh", "--kind", "stancu", "--n", "2"], capsys)
        assert code == 0
        assert (tmp_path / "mesh_stancu_2.csv").exists()


class TestTable:
    def test_table_csv_schema(self, tmp_path, capsys):
        out_file = tmp_path / "table.csv"
        code, _, _ = run(
            ["table", "--example", "1", "--n", "3,5", "--out", str(out_file)], capsys
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "n,rmse_C,rmse_B"
        assert len(lines) == 3
        n, rc, rb = lines[1].split(",")
        assert int(n) == 3
        assert float(rc) > 0 and float(rb) > 0

    def test_byte_identical_across_thread_counts(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(
            ["--threads", "1", "table", "--example", "2", "--n", "6,9", "--out", str(a)], capsys
        )[0] == 0
        assert run(
            ["--threads", "5", "table", "--example", "2", "--n", "6,9", "--out", str(b)], capsys
        )[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_section_byte_identical_across_thread_counts(self, tmp_path, capsys):
        for op, fn in (("Cbar", "example4"), ("Bstancu-disk", "example1")):
            outs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{op}_{threads}.csv"
                assert run(["--threads", threads, "section", "--op", op, "--fn", fn,
                            "--n", "5,23", "--segment", "0.1,-0.9,-0.6,0.5",
                            "--samples", "1200", "--out", str(out)], capsys)[0] == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]

    # sha256 of the CSVs written by the loop-built meshes; a mesh builder
    # that reorders, re-signs or drops a point changes them.
    MESH_SHA256 = {
        ("quadrant", "17", True): "8db98146402d0dcabbec918847578fdb9459bd925c68c8ae537dd1c1cb587c3d",
        ("quadrant", "17", False): "f72d3f7b179ef446c0e1d7b9c9b3aa45b4f010286478bd7929d49c84e7edc33d",
        ("stancu", "9", False): "c548566ccd97c8ffee5205c7fc7e9f7e41139c62ee06399d15ffffc305ca83fd",
    }

    @pytest.mark.parametrize("kind, n, dedup", sorted(MESH_SHA256))
    def test_mesh_csv_bytes_are_pinned(self, kind, n, dedup, tmp_path, capsys):
        out = tmp_path / "mesh.csv"
        argv = ["mesh", "--kind", kind, "--n", n, "--out", str(out)] + (["--dedup"] if dedup else [])
        assert run(argv, capsys)[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.MESH_SHA256[kind, n, dedup]


class TestStreamedCsv:
    ROWS = [(n, n / 7.0, "B1" if n % 2 else "B3") for n in range(10000)]

    def test_generator_writes_the_bytes_of_a_list(self, tmp_path):
        a, b = tmp_path / "list.csv", tmp_path / "gen.csv"
        _write_csv(a, ["k", "v", "q"], self.ROWS)
        _write_csv(b, ["k", "v", "q"], (row for row in self.ROWS))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().count("\n") == len(self.ROWS) + 1

    def test_no_rows_write_only_the_header(self, tmp_path):
        out = tmp_path / "empty.csv"
        _write_csv(out, ["k", "v"], iter(()))
        assert out.read_text() == "k,v\n"

    def test_mesh_command_holds_no_whole_mesh_lists(self, tmp_path, capsys):
        argv = ["mesh", "--kind", "quadrant", "--n", "200", "--dedup", "--out", str(tmp_path / "m.csv")]
        assert run(argv, capsys)[0] == 0  # imports and caches warmed up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 6e6


class TestCounts:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_non_positive_threads_exit_2(self, threads, tmp_path, capsys):
        out = tmp_path / "mesh.csv"
        code, _, err = run([f"--threads={threads}", "mesh", "--kind", "stancu", "--n", "2",
                            "--out", str(out)], capsys)
        assert code == 2
        assert "--threads" in err
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_non_positive_samples_exit_2(self, samples, tmp_path, capsys):
        out = tmp_path / "section.csv"
        code, _, err = run(["section", "--op", "Cbar", "--fn", "example1", "--n", "3",
                            f"--samples={samples}", "--out", str(out)], capsys)
        assert code == 2
        assert "--samples" in err
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--threads", "--samples"])
    @pytest.mark.parametrize("count", ["2.5", "x", ""])
    def test_count_that_is_no_integer_exits_2(self, option, count, tmp_path, capsys):
        out = tmp_path / "section.csv"
        argv = ["section", "--op", "Cbar", "--fn", "example1", "--n", "3", "--out", str(out)]
        code, _, err = run([f"{option}={count}"] + argv if option == "--threads"
                           else argv + [f"{option}={count}"], capsys)
        assert code == 2
        assert f"{option}: bad count {count!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["section", "--op", "Cbar", "--fn", "example1"],
                                         ["table", "--example", "1"]], ids=["section", "table"])
    @pytest.mark.parametrize("n_list, message", [
        ("1,x", "bad n list '1,x'"), ("2.5", "bad n list '2.5'"),
        (",", "n values must be positive"), ("0,10", "n values must be positive"),
        ("10,-3", "n values must be positive"),
    ])
    def test_bad_n_list_exits_2(self, command, n_list, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, err = run(command + [f"--n={n_list}", "--out", str(out)], capsys)
        assert code == 2
        assert "--n" in err and message in err
        assert not out.exists()

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "mesh.csv"
        code, _, err = run(["mesh", "--kind", "stancu", "--n", "2", "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error: ") and "missing" in err
        assert not out.exists()


class TestSection:
    def test_section_csv(self, tmp_path, capsys):
        out_file = tmp_path / "section.csv"
        code, _, _ = run(
            [
                "section",
                "--op",
                "Cbar",
                "--fn",
                "example4",
                "--n",
                "4,8",
                "--samples",
                "11",
                "--out",
                str(out_file),
            ],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "s,x,y,f,op_4,op_8"
        assert len(lines) == 12

    def test_custom_segment(self, tmp_path, capsys):
        out_file = tmp_path / "section.csv"
        code, _, _ = run(
            [
                "section",
                "--op",
                "Bstancu-disk",
                "--fn",
                "example1",
                "--n",
                "5",
                "--segment",
                "0,-1,0,1",
                "--samples",
                "5",
                "--out",
                str(out_file),
            ],
            capsys,
        )
        assert code == 0
        rows = out_file.read_text().splitlines()[1:]
        first = rows[0].split(",")
        assert float(first[1]) == pytest.approx(0.0)
        assert float(first[2]) == pytest.approx(-1.0)

    @pytest.mark.parametrize("segment", ["-0.6,-0.7,0.5,0.8", "-1,0,0,-1"])
    def test_negative_segment_as_its_own_token(self, segment, tmp_path, capsys):
        argv = ["section", "--op", "Cbar", "--fn", "example3", "--n", "4,9", "--samples", "7"]
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert run(argv + ["--segment", segment, "--out", str(spaced)], capsys)[0] == 0
        assert run(argv + [f"--segment={segment}", "--out", str(joined)], capsys)[0] == 0
        assert spaced.read_bytes() == joined.read_bytes()
        for option in ("--seg", "--se"):  # abbreviations argparse accepts
            for form in ([option, segment], [f"{option}={segment}"]):
                assert run(argv + form + ["--out", str(joined)], capsys)[0] == 0
                assert spaced.read_bytes() == joined.read_bytes()
        x0, y0 = map(float, segment.split(",")[:2])
        first = spaced.read_text().splitlines()[1].split(",")
        assert (float(first[1]), float(first[2])) == (x0, y0)

    @pytest.mark.parametrize("form", [["--s", "-0.6,-0.7,0.5,0.8"], ["--s=-0.6,-0.7,0.5,0.8"]],
                             ids=["spaced", "joined"])
    def test_ambiguous_abbreviation_exits_2(self, form, tmp_path, capsys):
        # --s abbreviates both --segment and --samples
        out_file = tmp_path / "section.csv"
        code, _, err = run(["section", "--op", "Cbar", "--fn", "example1", "--n", "5", *form,
                            "--out", str(out_file)], capsys)
        assert code == 2
        assert "ambiguous option" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("segment", ["-1,0,1", "0,0,1,x", "-1,0,1,0,0"])
    def test_malformed_segment_exits_2(self, segment, tmp_path, capsys):
        out_file = tmp_path / "section.csv"
        code, _, err = run(["section", "--op", "Cbar", "--fn", "example1", "--n", "5",
                            "--segment", segment, "--out", str(out_file)], capsys)
        assert code == 2
        assert "expected x0,y0,x1,y1" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("op", ["Cbar", "Bstancu-disk"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_function_exits_2(self, op, value, tmp_path, capsys):
        out_file = tmp_path / "section.csv"
        code, _, err = run(["section", "--op", op, "--fn", f"const:{value}", "--n", "5",
                            "--samples", "3", "--out", str(out_file)], capsys)
        assert code == 2
        assert "not finite" in err
        assert not out_file.exists()
