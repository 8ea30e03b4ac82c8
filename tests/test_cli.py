import dataclasses
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import StubField

import sheetwalk
from sheetwalk import cli, exactprob, mcharness, walkstats
from sheetwalk.cli import main
from sheetwalk.exactprob import gamma_mean_exact
from sheetwalk.mcharness import usable_cpus
from sheetwalk.randfield import RademacherField, Seed, StreamKey
from sheetwalk.walkstats import annulus_zero_check, render_zero_set


class PlusField(StubField):
    """Stub: all signs +1, S(i,j) = i*j, strictly positive."""

    @staticmethod
    def positive(i, j):
        return i > 0


class NegativeOddColumnsField(StubField):
    """Stub: -1 on odd columns, +1 on even, S(i,j) = -i*(j mod 2)."""

    @staticmethod
    def positive(i, j):
        return j % 2 == 0


# the least --n of each one-row exact table
EXACT_FLOORS = {
    "delta-mean": 1,
    "delta-var": 1,
    "gamma-mean": 1,
    "antidiag-mean": 0,
    "hit-constant": 1,
}


class TestExactCommand:
    def test_pn_table_matches_frozen_rows(self, capsys):
        assert main(["exact", "pn", "--max", "4"]) == 0
        out = capsys.readouterr().out
        assert out == "n,p\n0,1\n1,0.5\n2,0.375\n3,0.3125\n4,0.2734375\n"

    def test_pn_rational_column(self, capsys):
        assert main(["exact", "pn", "--max", "4", "--rational"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "4,35/128"

    def test_pn_negative_max_is_usage_error(self, capsys):
        assert main(["exact", "pn", "--max", "-1"]) == 2

    def test_pn_beyond_ceiling_is_capacity_error(self, monkeypatch):
        # rejected up front: the p(n) table is never read
        def unread():
            raise AssertionError("the p(n) table was consulted")

        monkeypatch.setattr(exactprob, "_table", unread)
        monkeypatch.setattr(exactprob, "dyadic_pairs", unread)
        assert main(["exact", "pn", "--max", "10001"]) == 3
        assert main(["exact", "pn", "--max", "10001", "--rational"]) == 3

    def test_a_damaged_table_file_is_an_io_error(self, tmp_path, monkeypatch, capsys):
        damaged = tmp_path / "pn_table.npy"
        np.save(damaged, np.zeros(exactprob.EXACT_CEILING))
        monkeypatch.setattr(exactprob, "TABLE_FILE", damaged)
        monkeypatch.setattr(exactprob, "_TABLE", None)
        assert main(["exact", "pn", "--max", "4"]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"sheetwalk: i/o error: {damaged} holds float64 values")

    def test_a_failing_row_leaves_no_table(self, tmp_path, monkeypatch):
        # rows stream into a temporary file; one that fails mid-table must
        # leave neither a partial table nor the temporary file behind
        formatted = []
        pairs = exactprob.dyadic_pairs

        def failing(**kwargs):
            for pair in pairs(**kwargs):
                formatted.append(pair)
                if len(formatted) > 6:
                    raise ValueError("formatting failed")
                yield pair

        monkeypatch.setattr(exactprob, "dyadic_pairs", failing)
        target = tmp_path / "pn.csv"
        argv = ["exact", "pn", "--max", "50", "--rational", "--out", str(target)]
        assert main(argv) == 2
        assert len(formatted) == 7
        assert list(tmp_path.iterdir()) == []

    def test_delta_mean_frozen_row(self, capsys):
        assert main(["exact", "delta-mean", "--n", "2"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "N,mean,centered"
        fields = row.split(",")
        assert fields[0] == "2"
        assert fields[1] == "0.571380615234375"
        expected = 0.571380615234375 - math.log(2) / math.sqrt(2 * math.pi)
        assert float(fields[2]) == pytest.approx(expected, abs=1e-14)

    def test_delta_var_capacity(self):
        assert main(["exact", "delta-var", "--n", "4001"]) == 3

    def test_gamma_mean_centered_is_the_per_column_mean(self, capsys):
        assert main(["exact", "gamma-mean", "--n", "8"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "N,mean,centered"
        mean = gamma_mean_exact(8)
        assert row == "8,%.15g,%.15g" % (mean, mean / 8)

    @pytest.mark.parametrize("target", list(EXACT_FLOORS))
    def test_centered_tables_need_a_positive_n(self, target, capsys):
        # a moment's centered column takes ln N or divides by N; each table's
        # floor is refused in the command's words, whatever its sum accepts
        least = EXACT_FLOORS[target]
        assert main(["exact", target, "--n", str(least - 1)]) == 2
        assert capsys.readouterr().err == (
            f"sheetwalk: invalid input: --n must be >= {least} for {target}, got {least - 1}\n"
        )
        assert main(["exact", target, "--n", str(least)]) == 0

    def test_antidiag_mean_runs(self, capsys):
        assert main(["exact", "antidiag-mean", "--n", "64"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "N,mean,centered"

    def test_hit_constant_row(self, capsys):
        assert main(["exact", "hit-constant", "--n", "50"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "n_max,estimate"

    def test_hit_constant_ceiling(self, tmp_path):
        at, over = tmp_path / "at.csv", tmp_path / "over.csv"
        assert main(["exact", "hit-constant", "--n", "512", "--out", str(at)]) == 0
        assert at.read_text() == "n_max,estimate\n512,1\n"
        assert main(["exact", "hit-constant", "--n", "513", "--out", str(over)]) == 3
        assert not over.exists()

    @pytest.mark.parametrize("target", ["delta-mean", "antidiag-mean"])
    def test_linear_mean_ceiling(self, tmp_path, target):
        at, over = tmp_path / "at.csv", tmp_path / "over.csv"
        assert main(["exact", target, "--n", "10000000", "--out", str(at)]) == 0
        assert at.read_text().startswith("N,mean,centered\n10000000,")
        assert main(["exact", target, "--n", "10000001", "--out", str(over)]) == 3
        assert not over.exists()

    def test_out_file(self, tmp_path):
        target = tmp_path / "pn.csv"
        assert main(["exact", "pn", "--max", "2", "--out", str(target)]) == 0
        assert target.read_text() == "n,p\n0,1\n1,0.5\n2,0.375\n"


class TestSimulateCommand:
    def run(self, outdir, *, workers="1", seed="7"):
        return main(
            [
                "simulate",
                "--stat",
                "delta-fast",
                "--sizes",
                "50,100",
                "--reps",
                "12",
                "--seed",
                seed,
                "--workers",
                workers,
                "--out",
                str(outdir),
            ]
        )

    def test_writes_all_three_files(self, tmp_path):
        assert self.run(tmp_path / "run") == 0
        outdir = tmp_path / "run"
        raw = (outdir / "raw.csv").read_text().splitlines()
        assert raw[0] == "N,replicate,value"
        assert len(raw) == 1 + 2 * 12
        summary = (outdir / "summary.csv").read_text().splitlines()
        assert summary[0] == "N,M,mean,variance,stderr,min,max"
        assert len(summary) == 3
        assert all(line.split(",")[1] == "12" for line in summary[1:])
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert {o["name"] for o in manifest["outputs"]} == {"raw.csv", "summary.csv"}

    def test_byte_identical_reruns(self, tmp_path):
        assert self.run(tmp_path / "a") == 0
        assert self.run(tmp_path / "b") == 0
        assert (tmp_path / "a/raw.csv").read_bytes() == (
            tmp_path / "b/raw.csv"
        ).read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        assert self.run(tmp_path / "a", workers="1") == 0
        assert self.run(tmp_path / "b", workers="3") == 0
        assert (tmp_path / "a/raw.csv").read_bytes() == (
            tmp_path / "b/raw.csv"
        ).read_bytes()
        assert (tmp_path / "a/summary.csv").read_bytes() == (
            tmp_path / "b/summary.csv"
        ).read_bytes()

    def test_locked_directory_is_io_error(self, tmp_path):
        outdir = tmp_path / "run"
        outdir.mkdir()
        (outdir / ".sheetwalk.lock").touch()
        assert self.run(outdir) == 4

    def test_bad_sizes_are_usage_errors(self, tmp_path):
        assert (
            main(
                [
                    "simulate",
                    "--stat",
                    "gamma",
                    "--sizes",
                    "0,8",
                    "--reps",
                    "2",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 2
        )

    def test_repeated_sizes_are_usage_errors(self, tmp_path, capsys):
        argv = ["simulate", "--stat", "gamma", "--sizes", "8,8", "--reps", "2",
                "--workers", "1", "--out", str(tmp_path / "dup")]
        assert main(argv) == 2
        assert "distinct" in capsys.readouterr().err
        assert not (tmp_path / "dup" / "raw.csv").exists()

    @pytest.mark.parametrize("stat", sorted(cli._STAT_NAMES))
    def test_a_bad_eps_is_a_usage_error_for_every_statistic(self, tmp_path, capsys, stat):
        # a statistic that reads no eps refuses one out of range all the same
        argv = ["simulate", "--stat", stat, "--sizes", "8", "--reps", "2", "--eps", "2",
                "--workers", "1", "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        message = "eps must be in (0,1), got 2.0"
        assert capsys.readouterr().err == f"sheetwalk: invalid input: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_clamped_pool_keeps_bytes_and_requested_workers(self, tmp_path, inline_pool):
        for workers in ("1", "8"):
            argv = ["simulate", "--stat", "z-crossings", "--sizes", "16", "--reps", "2",
                    "--workers", workers, "--out", str(tmp_path / workers)]
            assert main(argv) == 0
        assert inline_pool == [2]
        for name in ("raw.csv", "summary.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "8" / name).read_bytes()
        manifest = json.loads((tmp_path / "8" / "manifest.json").read_text())
        assert manifest["workers"] == 8

    @staticmethod
    def assert_nested_rows_equal_one_size_rows(tmp_path, stat, sizes):
        def rows(sizes):
            outdir = tmp_path / sizes
            argv = ["simulate", "--stat", stat, "--sizes", sizes, "--reps", "5",
                    "--seed", "3", "--workers", "1", "--out", str(outdir)]
            assert main(argv) == 0
            return {name: (outdir / name).read_text().splitlines()[1:]
                    for name in ("raw.csv", "summary.csv")}

        nested = rows(sizes)
        singles = [rows(n) for n in sizes.split(",")]
        for name, lines in nested.items():
            assert lines == [line for one in singles for line in one[name]]

    @pytest.mark.parametrize("stat", ["gamma", "z-crossings", "delta", "antidiag"])
    def test_nested_sizes_write_the_one_size_rows(self, tmp_path, stat):
        # one sweep at the largest edge serves every size, in the order given
        self.assert_nested_rows_equal_one_size_rows(tmp_path, stat, "64,16,32")

    def test_nested_fast_path_sizes_write_the_one_size_rows(self, tmp_path):
        # one draw at the largest size serves every size
        self.assert_nested_rows_equal_one_size_rows(tmp_path, "delta-fast", "20,200,2000")

    def test_annulus_column_is_the_zero_count(self, tmp_path):
        # the value is the number of zeros in [eps*N, N]^2, not the indicator
        argv = ["simulate", "--stat", "annulus", "--sizes", "32", "--reps", "6",
                "--seed", "5", "--eps", "0.25", "--workers", "1",
                "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        raw = (tmp_path / "run" / "raw.csv").read_text().splitlines()[1:]
        assert raw == [
            "32,0,34.0", "32,1,8.0", "32,2,18.0", "32,3,31.0", "32,4,44.0", "32,5,0.0"
        ]
        for line in raw:
            _, r, value = line.split(",")
            field = RademacherField(StreamKey(Seed(5), int(r)))
            assert float(value) == annulus_zero_check(field, 0.25, 32)[1]

    def test_capacity_exit(self, tmp_path):
        assert (
            main(
                [
                    "simulate",
                    "--stat",
                    "gamma",
                    "--sizes",
                    str(2**15 + 1),
                    "--reps",
                    "1",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 3
        )

    @pytest.mark.parametrize(
        "stat,sizes,eps",
        [
            ("annulus", "40000", "0.25"),
            ("twin-zeros", "40000", "0.25"),
            ("twin-zeros", "1024", "0.01"),  # a band of 102307 columns
        ],
    )
    def test_zero_sets_past_the_ceiling_exit_before_any_sweep(
        self, tmp_path, monkeypatch, stat, sizes, eps
    ):
        # both sides of the swept rectangle are checked before a tile is read
        def unread(*args):
            raise AssertionError("a tile was read")

        monkeypatch.setattr(walkstats._Tiles, "read", unread)
        argv = ["simulate", "--stat", stat, "--sizes", sizes, "--eps", eps, "--reps", "1",
                "--workers", "1", "--out", str(tmp_path / "run")]
        assert main(argv) == 3
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_a_subnormal_twin_zero_eps_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # the band's width (M - 1) / eps overflows to infinity; its ceiling once
        # raised an OverflowError, exit 1
        argv = ["simulate", "--stat", "twin-zeros", "--sizes", "8", "--reps", "1",
                "--eps", "5e-324", "--out", str(tmp_path / "run")]
        assert main(argv) == 3
        message = "sweep capped at N=32768, got a band of infinite width"
        assert capsys.readouterr().err == f"sheetwalk: capacity: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_delta_fast_past_the_ceiling_exits_3_and_writes_no_raw(self, tmp_path):
        # a grid edge of 2 * 10**7 + 1 asks for more diagonal points than delta-mean
        # takes; the harness refuses it after the output directory was made
        argv = ["simulate", "--stat", "delta-fast", "--sizes", "20000001", "--reps", "1",
                "--workers", "1", "--out", str(tmp_path / "run")]
        assert main(argv) == 3
        assert not (tmp_path / "run").exists()

    def test_reps_past_the_ceiling_exit_3_before_any_work(self, tmp_path, monkeypatch):
        # 10**11 replicates once printed numpy's _ArrayMemoryError and exited 1
        def unrun(*args):
            raise AssertionError("a worker ran")

        monkeypatch.setattr(mcharness, "_worker_chunk", unrun)
        argv = ["simulate", "--stat", "gamma", "--sizes", "8", "--reps", "100000000000",
                "--workers", "1", "--out", str(tmp_path / "run")]
        assert main(argv) == 3
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "stat, sizes, message",
        [
            *(
                (stat, "32769", "sweep capped at N=32768, got 32769")
                for stat in ("gamma", "gamma-prime", "z-crossings", "delta", "antidiag", "annulus")
            ),
            (
                "delta-fast",
                str(walkstats.DIAG_FAST_CEILING + 1),
                f"diagonal draws capped at N={walkstats.DIAG_FAST_CEILING}, "
                f"got {walkstats.DIAG_FAST_CEILING + 1}",
            ),
            # the band of M = 8193 at eps 0.25 and radius 8: 8192 / 0.25 - 1 + 8 columns
            ("twin-zeros", "8193", "sweep capped at N=32768, got 32775"),
        ],
    )
    def test_a_grid_past_its_ceiling_is_refused_before_a_pool_opens(
        self, tmp_path, capsys, inline_pool, stat, sizes, message
    ):
        # two workers and four replicates would open a pool of two
        argv = ["simulate", "--stat", stat, "--sizes", sizes, "--reps", "4", "--workers", "2",
                "--eps", "0.25", "--radius", "8", "--out", str(tmp_path / "run")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"sheetwalk: capacity: {message}\n"
        assert inline_pool == []
        assert not (tmp_path / "run").exists()

    def _fail_after_mkdir(self, monkeypatch, outdir, error):
        """Exit code of a ``simulate`` into ``outdir`` whose experiment raises ``error``."""
        def failing(config):
            assert outdir.is_dir()  # made before the run, as the lock needs it
            raise error

        monkeypatch.setattr(mcharness, "run_experiment", failing)
        return main(["simulate", "--stat", "gamma", "--sizes", "8", "--reps", "2",
                     "--workers", "1", "--out", str(outdir)])

    @pytest.mark.parametrize(
        "error,code", [(exactprob.CapacityError("cap"), 3), (ValueError("usage"), 2)]
    )
    def test_a_failed_run_removes_the_directories_it_made(
        self, tmp_path, monkeypatch, error, code
    ):
        assert self._fail_after_mkdir(monkeypatch, tmp_path / "new" / "run", error) == code
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "error,code", [(exactprob.CapacityError("cap"), 3), (ValueError("usage"), 2)]
    )
    def test_a_failed_run_leaves_an_existing_directory_as_it_was(
        self, tmp_path, monkeypatch, error, code
    ):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "notes.txt").write_text("mine\n")
        empty = tmp_path / "run" / "empty"
        empty.mkdir()
        assert self._fail_after_mkdir(monkeypatch, tmp_path / "run", error) == code
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["empty", "notes.txt"]
        assert (tmp_path / "run" / "notes.txt").read_text() == "mine\n"
        assert self._fail_after_mkdir(monkeypatch, empty, error) == code
        assert empty.is_dir()

    @pytest.mark.parametrize("flags", [["--eps", "7"], ["--eps", "0"], ["--radius", "-3"]])
    def test_eps_and_radius_out_of_range_are_usage_errors(self, tmp_path, capsys, flags):
        argv = ["simulate", "--stat", "gamma", "--sizes", "8", "--reps", "2", *flags,
                "--workers", "1", "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        assert flags[0][2:] in capsys.readouterr().err
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_workers_env_default_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WORKERS", "2")
        assert self.run(tmp_path / "env") == 0  # flag --workers 1 wins
        manifest = json.loads((tmp_path / "env/manifest.json").read_text())
        assert manifest["workers"] == 1

    def test_workers_env_used_when_no_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WORKERS", "2")
        assert main(
            [
                "simulate",
                "--stat",
                "delta-fast",
                "--sizes",
                "40",
                "--reps",
                "4",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "env2"),
            ]
        ) == 0
        manifest = json.loads((tmp_path / "env2/manifest.json").read_text())
        assert manifest["workers"] == 2

    def test_a_non_integer_workers_env_names_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WORKERS", "abc")
        argv = ["simulate", "--stat", "delta-fast", "--sizes", "40", "--reps", "4",
                "--out", str(tmp_path / "bad")]
        assert main(argv) == 2
        assert "WORKERS must be an integer, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


# seed-0 bytes of the grid statistics, taken before the tile kernel was
# rebuilt; any change to the field stream or to a counter moves them
SIMULATE_PINS = {
    ("z-crossings", "16,32,64", "12"): (
        "051a31348c043502286d34b632786953da359ac48172840974c9cc29abc173f4",
        "4b12e1af18a2917f70dfaffa4997824c0bbe9df418a2e7a5c8a711407c588d59",
    ),
    ("gamma", "64", "40"): (
        "8bbedff157146a23b953cc9645222a71892aceca3057a849abd76b9be1870989",
        "575b56b97778ff66f35df1f3471a2ce19d52fab89582a9c96c2f23a77518fd7a",
    ),
    ("gamma-prime", "16,32,64", "12"): (
        "e88e6de2a2eaa89de92fa12cde9f8b4573682eb028eff66e55c8a087dfffd830",
        "5387ea52d5b3000a30eacfb3a4dac88ab2f567fd09579a033482c0b1270be2c6",
    ),
    ("delta", "16,32,64", "12"): (
        "85298175e2ffca56302fc59e30cb411d5762c4e5996cc21bcee45e2486b0e6be",
        "a358e8623098a2c981ecb87f29a71cc1f8357b0b2d4f53ffcabdcbd5032f412d",
    ),
    # taken on the per-size draws before nested sizes shared one draw
    ("delta-fast", "20,200,2000", "12"): (
        "1d8c90ab3662b074d264e2395b6446d386539b24cab2d2fe6e369ef768badaae",
        "c8bfd800e6b6dc6e0e7d92634317f977378b8be91ec9017b89d5bbe4d469a587",
    ),
    ("antidiag", "16,32,64", "12"): (
        "4e4e57c274f69d2930d0d254838bd909da264a0f58a9fa4729c77412a1bf9d55",
        "a06d2e83ecb87b8ecfa754a18faa6225fef0bf0bacf6b0a120660bba3a4f7b78",
    ),
    # the zero-set statistics at the default --eps 0.25 and --radius 8
    ("annulus", "16,32,64", "12"): (
        "a30d0e498a57d422b23f7ce63bd2b2005638a27a3b44c5d0a0b030019d091309",
        "a820af30d80b4f2cde168756756fc5f49c476b08a994da2a37603f58bd4d1558",
    ),
    ("annulus", "128", "20"): (
        "c43507da8c550848b41f9b09af97918817d115c9909440c9ffa2c89e6329650f",
        "704eee7b5adf2ccc073790aa5a12d7a5bba70dcb75418e20e3a2ea0a1e789db0",
    ),
    ("twin-zeros", "16,32,64", "12"): (
        "fcc6f3b35a4135d57c6ccd5b045fdf64a539509c4731bd022840489a257e0cd8",
        "5ca0e9feb657ff47a4fcd02e8b15b3e238a6395dd4fed52d71b7b1d57842a119",
    ),
    ("twin-zeros", "64", "20"): (
        "86bb174d37e939a40f240f800a96d92514b39fd2d9443d35446911b8543a97a2",
        "9922d742cca83e3d891f23694d0d490539c0c9a29f1099acd4088fabb0b0ee9a",
    ),
}
# the exact-table rows of the closed-form benchmark workload, byte for byte
EXACT_ROW_PINS = {
    ("gamma-mean", "4096"): b"N,mean,centered\n4096,9552.18129467865,2.33207551139615\n",
    ("delta-var", "4000"): b"N,variance,centered\n4000,4.56371485171044,1.25486777452546\n",
    ("delta-mean", "1000000"):
        b"N,mean,centered\n1000000,5.71291763983048,0.20132635292614\n",
    ("antidiag-mean", "1000000"):
        b"N,mean,centered\n1000000,1.25166630310814,-0.00164783420735737\n",
    ("hit-constant", "200"): b"n_max,estimate\n200,1\n",
}
RENDER_PIN = "4aab753360e18b1d4993bbdf2aaf502bc666a04644dad2009dc506a8bcd63464"
# `exact pn --max 10000`: the float image of the whole p(n) table
PN_FLOAT_PIN = "856a612658b78299036653e3ba59c8f38497d524673b4d00bc414999242fec2b"
# every size and mean is a power of two, the inputs whose logs libms most
# often agree on to the last bit; the fitted floats still rest on np.log
ESTIMATE_SUMMARY = (
    "N,M,mean,variance,stderr,min,max\n"
    "4,10,8.0,1.0,0.1,0.0,9.9\n"
    "16,10,64.0,1.0,0.1,0.0,9.9\n"
    "64,10,1024.0,1.0,0.1,0.0,9.9\n"
    "256,10,4096.0,1.0,0.1,0.0,9.9\n"
)
ESTIMATE_PIN = "ee11aa1e8485e611338959687d3cdddf1caee8181cc0bbca37ab3b292737eb23"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_canonical_json(text):
    # pins the layout, not the values: timestamps, timings and the
    # environment block differ from run to run
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestBytePins:
    @pytest.mark.parametrize("stat,sizes,reps", sorted(SIMULATE_PINS))
    def test_simulate_bytes_at_seed_zero(self, tmp_path, stat, sizes, reps):
        argv = ["simulate", "--stat", stat, "--sizes", sizes, "--reps", reps,
                "--seed", "0", "--workers", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        digests = (_sha256(tmp_path / "raw.csv"), _sha256(tmp_path / "summary.csv"))
        assert digests == SIMULATE_PINS[stat, sizes, reps]

    @pytest.mark.parametrize("target,n", sorted(EXACT_ROW_PINS))
    def test_exact_row_bytes(self, tmp_path, target, n):
        out = tmp_path / "table.csv"
        assert main(["exact", target, "--n", n, "--out", str(out)]) == 0
        assert out.read_bytes() == EXACT_ROW_PINS[target, n]

    def test_every_exact_target_is_pinned(self):
        assert {target for target, _ in EXACT_ROW_PINS} == set(cli._TARGETS)

    def test_pn_table_bytes(self, tmp_path):
        out = tmp_path / "pn.csv"
        assert main(["exact", "pn", "--max", str(exactprob.EXACT_CEILING), "--out", str(out)]) == 0
        assert _sha256(out) == PN_FLOAT_PIN

    def test_render_bytes_at_seed_seven(self, tmp_path):
        target = tmp_path / "zeros.pgm"
        assert main(["render", "--seed", "7", "--n", "128", "--out", str(target)]) == 0
        assert _sha256(target) == RENDER_PIN

    def test_manifest_layout(self, tmp_path):
        argv = ["simulate", "--stat", "gamma", "--sizes", "8", "--reps", "2",
                "--workers", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        _assert_canonical_json((tmp_path / "manifest.json").read_text(encoding="utf-8"))

    def test_manifest_environment_is_the_verify_reports(self, tmp_path):
        argv = ["simulate", "--stat", "gamma", "--sizes", "8", "--reps", "2",
                "--workers", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["environment"] == {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "usable_cpus": usable_cpus(),
            "workers": 1,
        }

    def test_manifest_entries_are_the_outputs(self, tmp_path):
        argv = ["simulate", "--stat", "gamma", "--sizes", "8", "--reps", "2",
                "--workers", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["outputs"] == [
            {"name": name, "bytes": (tmp_path / name).stat().st_size,
             "sha256": _sha256(tmp_path / name)}
            for name in ("raw.csv", "summary.csv")
        ]

    @pytest.mark.parametrize("to_file", [False, True])
    def test_estimate_report_bytes(self, tmp_path, capsys, to_file):
        summary = tmp_path / "summary.csv"
        summary.write_text(ESTIMATE_SUMMARY, encoding="utf-8")
        argv = ["estimate", "--summary", str(summary)]
        if to_file:
            argv += ["--out", str(tmp_path / "fit.json")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        text = (tmp_path / "fit.json").read_text(encoding="utf-8") if to_file else out
        assert out == ("" if to_file else text)
        _assert_canonical_json(text)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == ESTIMATE_PIN

    def test_verify_report_layout(self, tmp_path, monkeypatch):
        # one fast check stands in for the suite
        from sheetwalk import checks

        only = tuple(c for c in checks._CHECKS if c.name == "hitting-floor")
        monkeypatch.setattr(checks, "_CHECKS", only)
        report_path = tmp_path / "report.json"
        assert main(["verify", "--workers", "1", "--out", str(report_path)]) == 0
        _assert_canonical_json(report_path.read_text(encoding="utf-8"))


class TestEstimateCommand:
    def write_summary(self, path, rows):
        lines = ["N,M,mean,variance,stderr,min,max"]
        lines += [f"{n},10,{mean},1.0,0.1,0.0,9.9" for n, mean in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_linear_means_give_slope_one(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        self.write_summary(path, [(n, float(n)) for n in (8, 16, 32, 64)])
        assert main(["estimate", "--summary", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slope"] == pytest.approx(1.0, abs=1e-12)
        assert report["stderr"] == pytest.approx(0.0, abs=1e-12)
        assert report["points_used"] == [8, 16, 32, 64]
        assert all(abs(r["residual"]) < 1e-12 for r in report["residuals"])

    def test_three_halves_power(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        self.write_summary(path, [(n, float(n) ** 1.5) for n in (8, 16, 32, 64)])
        assert main(["estimate", "--summary", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slope"] == pytest.approx(1.5, abs=1e-12)

    def test_drop_below(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        self.write_summary(
            path, [(4, 9999.0)] + [(n, float(n)) for n in (16, 32, 64)]
        )
        assert main(["estimate", "--summary", str(path), "--drop-below", "16"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["points_used"] == [16, 32, 64]
        assert report["slope"] == pytest.approx(1.0, abs=1e-12)

    def test_a_floor_past_float_range_is_usage_error(self, tmp_path, capsys):
        # it drops every size, as a floor above every size in float range does;
        # comparing it as a float once raised an OverflowError, exit 1
        path = tmp_path / "summary.csv"
        self.write_summary(path, [(n, float(n)) for n in (16, 32, 64)])
        for floor in (str(10**20 - 1), str(10**400)):
            assert main(["estimate", "--summary", str(path), "--drop-below", floor]) == 2
            err = capsys.readouterr().err
            assert err == (
                "sheetwalk: invalid input: need positive means at two distinct sizes "
                "to fit a slope\n"
            )

    def test_a_repeated_size_keeps_its_positive_row(self, tmp_path, capsys):
        # the zero mean at 64 is dropped from the fit; the other row at 64 is
        # fitted, and only the rows fitted get a residual
        path = tmp_path / "summary.csv"
        self.write_summary(path, [(64, 5.0), (64, 0.0), (128, 9.0)])
        with pytest.warns(UserWarning, match="excluding 1 nonpositive mean") as warned:
            assert main(["estimate", "--summary", str(path)]) == 0
        assert len(warned) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["points_used"] == [64, 128]
        assert [r["N"] for r in report["residuals"]] == [64, 128]
        assert [r["log_mean"] for r in report["residuals"]] == [math.log(5.0), math.log(9.0)]

    def test_too_few_rows_is_usage_error(self, tmp_path):
        path = tmp_path / "summary.csv"
        self.write_summary(path, [(8, 8.0)])
        assert main(["estimate", "--summary", str(path)]) == 2

    def test_wrong_header_is_usage_error(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["estimate", "--summary", str(path)]) == 2

    @pytest.mark.parametrize("bad_row", ["", "8,4", "8,10,8.0,1,0.1,0,9.9,x"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_malformed_row_is_usage_error(self, tmp_path, capsys, bad_row, to_file):
        # a row must have the header's seven fields; a blank line has none
        path = tmp_path / "summary.csv"
        path.write_text(
            f"N,M,mean,variance,stderr,min,max\n4,10,4.0,1,0.1,0,9.9\n{bad_row}\n"
            "16,10,16.0,1,0.1,0,9.9\n"
        )
        out = tmp_path / "fit.json"
        argv = ["estimate", "--summary", str(path)] + (["--out", str(out)] if to_file else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "line 3:" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.csv"]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(8, 8.0), (8, 9.0)], "two distinct sizes"),  # sxx would be 0
            ([(8, "nan"), (16, 16.0), (32, 32.0)], "must be finite"),  # not valid JSON
            ([(8, 8.0), (16, "inf")], "must be finite"),
            ([(0, 1.0), (16, 16.0)], "sizes must be >= 1"),  # log(0)
        ],
        ids=["one-size", "nan-mean", "inf-mean", "zero-size"],
    )
    @pytest.mark.parametrize("to_file", [False, True])
    def test_unfittable_summary_is_usage_error(self, tmp_path, capsys, rows, message, to_file):
        path = tmp_path / "summary.csv"
        self.write_summary(path, rows)
        out = tmp_path / "fit.json"
        argv = ["estimate", "--summary", str(path)] + (["--out", str(out)] if to_file else [])
        assert main(argv) == 2  # pytest makes a numpy RuntimeWarning an error
        captured = capsys.readouterr()
        assert captured.err.startswith("sheetwalk: invalid input: ")
        assert message in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.csv"]

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["estimate", "--summary", str(tmp_path / "nope.csv")]) == 4

    def test_report_out_file(self, tmp_path):
        path = tmp_path / "summary.csv"
        self.write_summary(path, [(n, float(n)) for n in (8, 16)])
        out = tmp_path / "fit.json"
        assert main(["estimate", "--summary", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["slope"] == pytest.approx(1.0)


class TestRenderCommand:
    @pytest.mark.usefixtures("stub_hash")
    def test_all_plus_stub_image(self):
        pgm = render_zero_set(PlusField(), 2)
        assert pgm == b"P5\n2 2\n255\n" + b"\xff\xff\xff\xff"

    @pytest.mark.usefixtures("stub_hash")
    def test_negative_odd_columns_stub_image(self):
        pgm = render_zero_set(NegativeOddColumnsField(), 2)
        # column 1 negative, column 2 zero, both rows
        assert pgm == b"P5\n2 2\n255\n" + bytes([128, 0, 128, 0])

    def test_real_field_roundtrip(self, tmp_path):
        target = tmp_path / "zeros.pgm"
        assert main(["render", "--seed", "7", "--n", "16", "--out", str(target)]) == 0
        data = target.read_bytes()
        assert data.startswith(b"P5\n16 16\n255\n")
        pixels = data.split(b"255\n", 1)[1]
        assert len(pixels) == 256
        assert set(pixels) <= {0, 128, 255}

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert main(["render", "--seed", "7", "--n", "32", "--out", str(a)]) == 0
        assert main(["render", "--seed", "7", "--n", "32", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_over_ceiling_is_capacity(self, tmp_path):
        target = tmp_path / "big.pgm"
        assert main(["render", "--n", str(2**13 + 1), "--out", str(target)]) == 3
        assert not target.exists()

    def test_unwritable_path_is_io_error(self, tmp_path):
        target = tmp_path / "missing" / "dir" / "img.pgm"
        assert main(["render", "--n", "4", "--out", str(target)]) == 4


class TestVerifyCommand:
    def test_unknown_level_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--level", "bogus"])
        assert info.value.code == 2

    def test_corrupted_table_is_named_in_the_report(
        self, tmp_path, monkeypatch, capsys
    ):
        # mutation probe: perturb one tabulated probability and expect the
        # rebuild check to catch and name it
        import sheetwalk.exactprob as ep

        table = ep._table()
        floats = table.float_values.copy()
        floats[137] *= 1.0000001
        corrupted = dataclasses.replace(table, float_values=floats)
        monkeypatch.setattr(ep, "_TABLE", corrupted)
        self.assert_return_probability_fails(tmp_path, capsys)

    def test_corrupted_pair_is_named_in_the_report(self, tmp_path, monkeypatch, capsys):
        # one numerator off by two at an n that no closed-form sample or
        # identity of check 1 reads: only the pair-by-pair compare sees it
        monkeypatch.setattr(exactprob, "_TABLE", exactprob.ReturnProbTable.build())
        pairs = exactprob.dyadic_pairs

        def corrupted():
            for n, (num, exp) in enumerate(pairs()):
                yield (num + 2 if n == 1500 else num), exp

        monkeypatch.setattr(exactprob, "dyadic_pairs", corrupted)
        self.assert_return_probability_fails(tmp_path, capsys)

    @staticmethod
    def assert_return_probability_fails(tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["verify", "--level", "quick", "--out", str(report_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL return-probability" in out
        report = json.loads(report_path.read_text())
        assert report["passed"] is False
        named = {c["name"]: c["passed"] for c in report["checks"]}
        assert named["return-probability"] is False

    def test_report_keys_and_environment(self, tmp_path, monkeypatch):
        # one fast check stands in for the suite; the report's keys are pinned
        from sheetwalk import checks

        only = tuple(c for c in checks._CHECKS if c.name == "hitting-floor")
        monkeypatch.setattr(checks, "_CHECKS", only)
        report_path = tmp_path / "report.json"
        assert main(["verify", "--workers", "3", "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"level", "passed", "checks", "pool", "environment"}
        assert (report["level"], report["passed"]) == ("quick", True)
        assert report["pool"] == {}  # hitting-floor reads no pool work
        assert [set(c) for c in report["checks"]] == [{"name", "passed", "seconds", "detail"}]
        assert report["environment"] == {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "usable_cpus": usable_cpus(),
            "workers": 3,
        }

    def test_report_times_the_pool_jobs(self, tmp_path, monkeypatch, inline_pool):
        # check 6's draws and the shared pass of checks 7-9 go on the run's one
        # pool as 8 tasks each (4 per process); each job's task seconds are summed
        from sheetwalk import checks

        readers = {"fastpath-consistency", "zero-count-scaling", "crossing-count-scaling",
                   "crossing-decomposition"}
        only = tuple(c for c in checks._CHECKS if c.name in readers | {"hitting-floor"})
        monkeypatch.setattr(checks, "_CHECKS", only)
        report_path = tmp_path / "report.json"
        main(["verify", "--workers", "2", "--out", str(report_path)])
        assert inline_pool == [2]
        report = json.loads(report_path.read_text())
        assert not any(c["detail"].startswith("raised ") for c in report["checks"])
        assert set(report["pool"]) == {"fastpath-draws", "shared-pass"}
        for job in report["pool"].values():
            assert set(job) == {"seconds", "cpu_seconds", "tasks"}
            assert job["tasks"] == 8 and job["seconds"] > 0 and job["cpu_seconds"] > 0

    def test_report_says_why_one_worker_ran(self, tmp_path, monkeypatch):
        # an affinity mask of one CPU on a larger machine: the default worker
        # count follows the mask, and the report records both counts
        from sheetwalk import checks

        only = tuple(c for c in checks._CHECKS if c.name == "hitting-floor")
        monkeypatch.setattr(checks, "_CHECKS", only)
        monkeypatch.delenv("WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        report_path = tmp_path / "report.json"
        assert main(["verify", "--out", str(report_path)]) == 0
        environment = json.loads(report_path.read_text())["environment"]
        assert (environment["cpu_count"], environment["usable_cpus"]) == (4, 1)
        assert environment["workers"] == 1

    def test_quick_verify_reports_the_documented_red_checks(self, capsys):
        # four committed bounds are unattainable (see README), so a correct
        # build exits 1 with exactly those checks failing
        code = main(["verify", "--level", "quick"])
        out = capsys.readouterr().out
        assert code == 1
        failed = {
            line.split("FAIL ")[1].split()[0]
            for line in out.splitlines()
            if " FAIL " in line
        }
        assert failed == {
            "difference-window",
            "diagonal-variance-band",
            "zero-count-scaling",
            "antidiagonal-constant",
        }

    def test_single_check_report(self, tmp_path, capsys):
        # drive the runner directly for speed; the CLI command is exercised
        # by the acceptance suite
        from sheetwalk.checks import format_report, run_checks

        results = run_checks(level="quick", names={"hitting-floor"})
        assert len(results) == 1 and results[0].passed
        report = format_report(results, level="quick")
        assert "hitting-floor" in report and "PASS" in report


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "pn", "--max", "4"],
        ["render", "--n", "4"],
        ["estimate", "--summary", "summary.csv"],
        ["verify"],
    ],
    ids=["exact", "render", "estimate", "verify"],
)
def test_missing_out_directory_names_the_target(tmp_path, capsys, monkeypatch, argv):
    # the error names the path given, not the random temporary file beside it
    from sheetwalk import checks

    only = tuple(c for c in checks._CHECKS if c.name == "hitting-floor")
    monkeypatch.setattr(checks, "_CHECKS", only)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "summary.csv").write_text(
        "N,M,mean,variance,stderr,min,max\n8,10,8.0,1,0.1,0,9.9\n16,10,16.0,1,0.1,0,9.9\n"
    )
    target = tmp_path / "missing" / "dir" / "out.txt"
    assert main(argv + ["--out", str(target)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("sheetwalk: i/o error: ")
    assert err.endswith(f"'{target}'\n")
    assert not (tmp_path / "missing").exists()


def test_an_output_is_hashed_without_holding_it(tmp_path):
    # a raw.csv at RESULT_CEILING is about 150 MB; its manifest entry reads
    # it in chunks rather than whole
    path = tmp_path / "raw.csv"
    data = np.random.default_rng(0).bytes(8 * 2**20)
    path.write_bytes(data)
    tracemalloc.start()
    try:
        entry = cli._output_entry(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert entry == {
        "name": "raw.csv", "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()
    }
    assert peak < 2**20


# run in a fresh interpreter, since this one has imported the pool stack and the sweep
_FIRST_READS = """
import sys
sys.path.insert(0, sys.argv[1])
import sheetwalk.cli
from sheetwalk import exactprob

def unread(*args, **kwargs):
    raise AssertionError("the dyadic pairs were walked")

exactprob.dyadic_pairs = unread
exactprob.p_float(1)
exactprob.gamma_mean_exact(64)
unloaded = {"multiprocessing", "concurrent.futures.process", "hashlib",
            "sheetwalk.walkstats", "sheetwalk.mcharness"}
print(sorted(unloaded & set(sys.modules)))
"""


def test_reading_p_loads_the_table_and_no_pool_or_hash_module():
    src = Path(sheetwalk.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _FIRST_READS, str(src)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
