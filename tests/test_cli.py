import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tbbands import cli
from tbbands.analytic import analytic_eigenvector
from tbbands.bands import compute_basis, compute_spectrum
from tbbands.model import LatticeSpec
from tbbands.simdiag import VerificationReport


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSpectrumCommand:
    def test_n8_file(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        rc = cli.main(["spectrum", "--n", "8", "--alpha", "1.0", "--t", "0.2", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["index", "energy"]
        assert len(rows) == 64
        energies = [float(r[1]) for r in rows]
        assert energies == sorted(energies)
        assert abs(energies[0] - 0.2) <= 1e-13
        assert abs(energies[-1] - 1.8) <= 1e-13

    def test_rendered_floats_round_trip(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert cli.main(["spectrum", "--n", "6", "--out", str(out)]) == 0
        _header, rows = read_csv(out)
        values = compute_spectrum(LatticeSpec(6, 1.0, 0.2))
        for row, value in zip(rows, values):
            assert float(row[1]) == value

    def test_t_zero_flat(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert cli.main(["spectrum", "--n", "3", "--t", "0", "--out", str(out)]) == 0
        _header, rows = read_csv(out)
        assert len(rows) == 9
        assert all(abs(float(r[1]) - 1.0) <= 1e-14 for r in rows)

    def test_n2_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "--n", "2"])
        assert exc.value.code == 2
        assert ">= 3" in capsys.readouterr().err

    def test_stdout_default(self, capsys):
        assert cli.main(["spectrum", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("index,energy\n")
        assert len(out.splitlines()) == 10


class TestBandsCommand:
    def test_schema_and_origin_row(self, tmp_path):
        out = tmp_path / "bands.csv"
        rc = cli.main(["bands", "--n", "4", "--alpha", "1.0", "--t", "0.2", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["r", "s", "kx", "ky", "energy"]
        assert len(rows) == 16
        first = rows[0]
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == 0.0 and float(first[3]) == 0.0
        assert abs(float(first[4]) - 0.2) <= 1e-12

    def test_methods_agree(self, tmp_path):
        out_a = tmp_path / "refine.csv"
        out_b = tmp_path / "combination.csv"
        assert cli.main(["bands", "--n", "4", "--method", "refine", "--out", str(out_a)]) == 0
        assert cli.main(["bands", "--n", "4", "--method", "combination", "--out", str(out_b)]) == 0
        _h, rows_a = read_csv(out_a)
        _h, rows_b = read_csv(out_b)
        for row_a, row_b in zip(rows_a, rows_b):
            assert row_a[:2] == row_b[:2]
            assert abs(float(row_a[4]) - float(row_b[4])) <= 1e-9

    def test_deterministic_bytes(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["bands", "--n", "5", "--alpha", "1.0", "--t", "0.2"]
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_vectors_export(self, tmp_path):
        out = tmp_path / "bands.csv"
        vecs = tmp_path / "vectors.csv"
        rc = cli.main(["bands", "--n", "4", "--out", str(out), "--vectors", str(vecs)])
        assert rc == 0
        lines = vecs.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 16
        fields = [float(x) for x in lines[0].split(",")]
        assert len(fields) == 32
        v = np.array(fields[0::2]) + 1j * np.array(fields[1::2])
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_combination_deficit_is_compute_error(self, tmp_path, capsys):
        rc = cli.main(["bands", "--n", "4", "--t", "0", "--method", "combination",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "deficit" in err


def reference_vectors_csv(vectors):
    """The eigenvector CSV rendered entry by entry with format(x, ".17g")."""
    lines = []
    for j in range(vectors.shape[1]):
        fields = []
        for entry in vectors[:, j]:
            fields += [format(float(entry.real), ".17g"), format(float(entry.imag), ".17g")]
        lines.append(",".join(fields) + "\n")
    return "".join(lines).encode("utf-8")


# Bit patterns of float64 edge cases: +-0, subnormals, the largest finite,
# +-inf, and NaNs of either sign with quiet, signalling and payload bits.
SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000001,
    0x7FF80000DEADBEEF, 0xFFF4000000C0FFEE, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF,
]


def vector_bits():
    """(dim, 2 * lines) uint64 arrays, lines past one _CHUNK_LINES write."""
    shapes = st.tuples(
        st.integers(1, 3), st.integers(cli._CHUNK_LINES + 1, 2 * cli._CHUNK_LINES + 3)
    ).map(lambda shape: (shape[0], 2 * shape[1]))
    entries = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_BITS))
    return hnp.arrays(np.uint64, shapes, elements=entries)


class TestVectorsWriter:
    def test_bytes_match_format_17g(self, tmp_path):
        special = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e16, -1e16,
                   1e16 + 2.0, 9007199254740993.0, 0.1, 1.0 / 3.0, -123456.789, 1e-5, 1e22]
        rng = np.random.default_rng(11)
        pool = np.array(special + list(rng.standard_normal(10)))
        vectors = np.empty((14, 9), dtype=complex)
        vectors.real = rng.choice(pool, vectors.shape)
        vectors.imag = rng.choice(pool, vectors.shape)
        vectors.real[: len(special), 0] = special
        vectors.imag[: len(special), 1] = special
        for view in (vectors, vectors[:, ::2], np.asfortranarray(vectors)):
            out = tmp_path / "vectors.csv"
            cli._write_vectors_csv(str(out), view)
            assert out.read_bytes() == reference_vectors_csv(view)

    def test_bands_vectors_match_format_17g(self, tmp_path):
        out = tmp_path / "vectors.csv"
        args = ["bands", "--n", "5", "--alpha", "-0.7", "--t", "0.3"]
        assert cli.main(args + ["--out", str(tmp_path / "b.csv"), "--vectors", str(out)]) == 0
        _family, basis = compute_basis(LatticeSpec(5, -0.7, 0.3))
        assert out.read_bytes() == reference_vectors_csv(basis.vectors)

    def test_signed_values_and_zeros_recur(self, tmp_path):
        rng = np.random.default_rng(12)
        pool = rng.standard_normal(6)
        pool = np.concatenate([pool, -pool, [0.0, -0.0, 0.0, -0.0]])
        vectors = rng.choice(pool, (40, 30)) + 1j * rng.choice(pool, (40, 30))
        vectors[::3, ::2] = complex(-0.0, 0.0)
        vectors[1::3, 1::2] = complex(0.0, -0.0)
        out = tmp_path / "vectors.csv"
        cli._write_vectors_csv(str(out), vectors)
        text = out.read_bytes()
        assert text == reference_vectors_csv(vectors)
        assert text.count(b"-0,") > 100 and text.count(b",0,") > 100

    def test_lines_span_several_chunks(self, tmp_path):
        lines = 2 * cli._CHUNK_LINES + 5
        rng = np.random.default_rng(13)
        vectors = np.round(rng.standard_normal((3, lines)), 1) + 1j * rng.standard_normal((3, lines))
        out = tmp_path / "vectors.csv"
        cli._write_vectors_csv(str(out), vectors)
        assert out.read_bytes() == reference_vectors_csv(vectors)
        assert len(out.read_bytes().splitlines()) == lines

    def test_no_repeated_floats(self, tmp_path):
        rng = np.random.default_rng(14)
        vectors = rng.standard_normal((50, 70)) + 1j * rng.standard_normal((50, 70))
        assert np.unique(vectors.view(float)).size == 2 * vectors.size
        out = tmp_path / "vectors.csv"
        cli._write_vectors_csv(str(out), vectors)
        assert out.read_bytes() == reference_vectors_csv(vectors)

    def test_verify_and_analytic_vectors_match_format_17g(self, tmp_path):
        spec = LatticeSpec(7, 0.4, -0.9)
        args = ["--n", "7", "--alpha", "0.4", "--t", "-0.9"]
        out = tmp_path / "vectors.csv"
        assert cli.main(["verify", *args, "--vectors", str(out)]) == 0
        _family, basis = compute_basis(spec)
        assert out.read_bytes() == reference_vectors_csv(basis.vectors)
        assert cli.main(["analytic", *args, "--out", str(tmp_path / "a.csv"),
                         "--vectors", str(out)]) == 0
        exact = np.stack([analytic_eigenvector(spec, (r, s))
                          for r in range(7) for s in range(7)], axis=1)
        assert out.read_bytes() == reference_vectors_csv(exact)

    @settings(max_examples=60, deadline=None)
    @given(bits=vector_bits(), layout=st.sampled_from(["C", "F", "strided"]))
    @example(
        bits=np.resize(np.array(SPECIAL_BITS, dtype=np.uint64), (3, 2 * cli._CHUNK_LINES + 6)),
        layout="F",
    )
    def test_any_bits_match_format_17g(self, bits, layout, tmp_path_factory):
        vectors = bits.view(complex)
        if layout == "F":
            vectors = np.asfortranarray(vectors)
        elif layout == "strided":
            vectors = np.repeat(vectors, 2, axis=1)[:, ::2]
        out = tmp_path_factory.mktemp("bits") / "vectors.csv"
        cli._write_vectors_csv(str(out), vectors)
        assert out.read_bytes() == reference_vectors_csv(vectors)


class TestWriterAllocationBudget:
    # Traced peak allocation of one eigenvector-CSV write at n = 22. The
    # writer that held every line, their join and the encoded bytes at once
    # peaked at 32.5 MiB; rendering each distinct float once and writing in
    # chunks peaks at 22.3 MiB; keying the table by magnitude, on the solvers'
    # one-eigenvector-per-row layout, at 11.3 MiB.
    WRITER_MIB = 24

    def test_peak_at_n22(self, tmp_path):
        _family, basis = compute_basis(LatticeSpec(22, 1.3, -0.7))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cli._write_vectors_csv(str(tmp_path / "vectors.csv"), basis.vectors)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= self.WRITER_MIB * 2**20


class TestVerifyCommand:
    def test_exit_zero_and_metrics_printed(self, capsys):
        rc = cli.main(["verify", "--n", "8", "--alpha", "1.0", "--t", "0.2"])
        out = capsys.readouterr().out
        assert rc == 0
        keys = [line.split("=")[0] for line in out.strip().splitlines()]
        assert keys == list(cli.VERIFY_THRESHOLDS)
        for line in out.strip().splitlines():
            assert float(line.split("=")[1]) >= 0.0

    def test_out_receives_the_metrics(self, tmp_path, capsys):
        out = tmp_path / "metrics.txt"
        assert cli.main(["verify", "--n", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        keys = [line.split("=")[0] for line in out.read_text(encoding="utf-8").splitlines()]
        assert keys == list(cli.VERIFY_THRESHOLDS)

    def test_degenerate_case_exit_zero(self, capsys):
        assert cli.main(["verify", "--n", "3", "--t", "0"]) == 0
        assert "max_residual_h=" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "n,alpha,t",
        [(8, 1.0, 1e-6), (13, -2.5, 1e-3), (8, 1000.0, 0.2), (10, -1000.0, 1e-4), (12, 1e6, 0.3)],
    )
    def test_small_t_and_large_alpha_pass(self, n, alpha, t, capsys):
        # a tiny t or a large alpha/t ratio once mixed the degenerate columns
        # (the eigensolver's error scales with ||H||, the gaps with t); the
        # basis now comes from the parameter-free hopping operator. At
        # alpha = 1e6 applying H rounds alpha v at eps |alpha| per entry, a
        # residual of about 1e-10; verify reads the residuals from the
        # plane-wave coefficients instead, where no operator is applied.
        argv = ["verify", "--n", str(n), "--alpha", repr(alpha), "--t", repr(t)]
        assert cli.main(argv) == 0
        assert "threshold breached" not in capsys.readouterr().err

    def test_small_n_residual(self, capsys):
        assert cli.main(["verify", "--n", "8", "--alpha", "1.0", "--t", "0.2"]) == 0
        out = capsys.readouterr().out
        metrics = dict(line.split("=") for line in out.strip().splitlines())
        assert float(metrics["max_residual_h"]) <= 1e-11

    def test_threshold_breach_exits_three(self, capsys, monkeypatch):
        bad = VerificationReport(
            max_residual_h=1.0,
            max_residual_sx=0.0,
            max_residual_sy=0.0,
            max_orthogonality_defect=0.0,
            max_eigenvalue_error=0.0,
            max_entrywise_vector_error=0.0,
        )
        monkeypatch.setattr(cli, "verify_basis", lambda *args: bad)
        rc = cli.main(["verify", "--n", "3"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "max_residual_h=1" in captured.out
        assert "max_residual_h" in captured.err

    @pytest.mark.parametrize("key", list(cli.VERIFY_THRESHOLDS))
    def test_nan_metric_is_a_breach(self, key, capsys, monkeypatch):
        # "value > threshold" is False for a NaN, which then passed.
        clean = VerificationReport(**dict.fromkeys(cli.VERIFY_THRESHOLDS, 0.0))
        monkeypatch.setattr(cli, "verify_basis", lambda *args: replace(clean, **{key: math.nan}))
        assert cli.main(["verify", "--n", "3"]) == 3
        captured = capsys.readouterr()
        assert f"{key}=nan" in captured.out
        assert captured.err == f"threshold breached: {key}\n"


class TestAnalyticCommand:
    def test_schema_matches_bands(self, tmp_path):
        bands_out = tmp_path / "bands.csv"
        exact_out = tmp_path / "analytic.csv"
        assert cli.main(["bands", "--n", "8", "--out", str(bands_out)]) == 0
        assert cli.main(["analytic", "--n", "8", "--out", str(exact_out)]) == 0
        header_b, rows_b = read_csv(bands_out)
        header_a, rows_a = read_csv(exact_out)
        assert header_a == header_b
        for row_b, row_a in zip(rows_b, rows_a):
            assert row_b[:4] == row_a[:4]
            assert abs(float(row_b[4]) - float(row_a[4])) <= 1e-11

    def test_corner_energy_rendering(self, tmp_path):
        out = tmp_path / "analytic.csv"
        assert cli.main(["analytic", "--n", "4", "--out", str(out)]) == 0
        _header, rows = read_csv(out)
        corner = [r for r in rows if r[0] == "2" and r[1] == "2"]
        assert len(corner) == 1
        assert float(corner[0][4]) == 1.8

    def test_vectors_export(self, tmp_path):
        vecs = tmp_path / "vectors.csv"
        rc = cli.main(["analytic", "--n", "3", "--out", str(tmp_path / "a.csv"),
                       "--vectors", str(vecs)])
        assert rc == 0
        lines = vecs.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 9
        assert all(len(line.split(",")) == 18 for line in lines)


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["spectrum", "bands", "verify", "analytic"])
    def test_out_in_missing_directory(self, command, tmp_path, capsys):
        missing = tmp_path / "missing" / "x.csv"
        assert cli.main([command, "--n", "3", "--out", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"tbbands {command}: cannot write {missing}")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["bands", "verify", "analytic"])
    def test_vectors_is_a_directory(self, command, tmp_path, capsys):
        argv = [command, "--n", "3", "--vectors", str(tmp_path)]
        if command != "verify":
            argv += ["--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"tbbands {command}: cannot write {tmp_path}")
        assert "Traceback" not in err

    def test_module_entry_point_prints_no_traceback(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tbbands", "bands", "--n", "3",
             "--out", str(tmp_path / "missing" / "x.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "cannot write" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fourier", "--n", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["bands", "verify"])
    def test_lists_no_tolerance_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--method" in out
        assert "--gap-tol" not in out and "--filter-tol" not in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tbbands", "spectrum", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("index,energy")

    @pytest.mark.parametrize("command", ["bands", "spectrum"])
    @pytest.mark.parametrize("flag", ["--alpha", "--t"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_parameter_is_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--n", "4", f"{flag}={value}"])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [("--t", "-1e-6"), ("--alpha", "-2e+3")]
        + [(prefix, "-2e+3") for prefix in ("--a", "--al", "--alp", "--alph")],
    )
    def test_negative_value_in_exponent_notation(self, flag, value, capsys):
        # argparse reads a token like -1e-6 as an option: "--t -1e-6" and the
        # abbreviated "--alph -2e+3" exited 2 with "expected one argument",
        # while "--t=-1e-6" worked.
        assert cli.main(["bands", "--n", "4", flag, value]) == 0
        spaced = capsys.readouterr()
        assert cli.main(["bands", "--n", "4", f"{flag}={value}"]) == 0
        assert capsys.readouterr() == spaced

    def test_negative_infinity_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bands", "--n", "4", "--t", "-inf"])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_energy_bound_overflow_is_usage_error(self):
        # every value is finite, but |alpha| + 4|t| is not: this printed a traceback
        proc = subprocess.run(
            [sys.executable, "-m", "tbbands", "spectrum", "--n", "3", "--alpha", "1e308", "--t", "1e308"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "|alpha| + 4|t|" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["spectrum", "bands", "verify"])
    def test_above_dense_cap_is_compute_error(self, command, capsys):
        # n = 91 gives dim 8281 > 8192: refused before any solve, in one line
        assert cli.main([command, "--n", "91"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"tbbands {command}: ")
        assert "dense cap 8192" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_analytic_takes_no_solver_flags(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analytic", "--n", "4", "--method", "refine"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["bands", "verify", "analytic"])
    def test_out_and_vectors_may_not_name_one_file(self, command, tmp_path, monkeypatch, capsys):
        # the vector rows overwrote the band table; now refused before any solve
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "compute_basis", None)
        for vectors in ("same.csv", str(tmp_path / "same.csv"), "./sub/../same.csv"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--n", "3", "--out", "same.csv", "--vectors", vectors])
            assert exc.value.code == 2
            assert "--out and --vectors name the same file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["bands", "verify"])
    def test_out_and_vectors_may_not_name_one_file_through_a_symlink(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # link.csv -> real.csv passed the guard, and the vector rows replaced
        # the band table; the target need not exist yet
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "compute_basis", None)
        (tmp_path / "link.csv").symlink_to("real.csv")
        for out, vectors in (("link.csv", "real.csv"), ("real.csv", "link.csv")):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--n", "4", "--out", out, "--vectors", vectors])
            assert exc.value.code == 2
            assert "--out and --vectors name the same file" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]
