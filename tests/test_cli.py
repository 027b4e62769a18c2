"""Config parsing, CSV result tables, and end-to-end command runs."""

import numpy as np
import pytest

from hypersing.cli import (
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_SINGULAR,
    ConfigError,
    ResultTable,
    main,
    parse_config,
)

CHAR_CFG = "a = -1\nb = 1\nn = 40\nrhs = constant_pi\n"
CRACK_CFG = (
    "half_length = 1\nn = 200\nlam = 1\nmu = 1\nalpha = 1\n"
    "beta = 0\nxi = 1\nsigma0 = 1\n"
)


def _read(path):
    """The header and the rows of a written CSV table."""
    header = path.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _run(tmp_path, command, text, *sets, out_name="out.csv"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / out_name
    argv = [command, "--config", str(cfg)]
    for kv in sets:
        argv += ["--set", kv]
    argv += ["--out", str(out)]
    return main(argv), out


def test_parse_minimal_config():
    cfg = parse_config(CHAR_CFG, overrides=("command=characteristic", "out=res.csv"))
    assert cfg.command == "characteristic"
    assert cfg.interval.a == -1.0 and cfg.interval.b == 1.0 and cfg.n == 40
    assert cfg.rhs == "constant_pi"


def test_parse_collects_every_failure_at_once():
    bad = "a = 1\nb = -1\nn = 0\nrhs = nope\nwhat = 3\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad, overrides=("command=characteristic", "out=res.csv"))
    text = "\n".join(exc.value.failures)
    assert len(exc.value.failures) >= 4
    for frag in ("rhs", "what", "a/b", "n"):
        assert frag in text


def test_parse_reports_the_offending_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("a = -1\nnot a pair\n", overrides=("command=characteristic", "out=res.csv"))
    assert any("line 2" in msg for msg in exc.value.failures)


def test_comments_and_blank_lines_are_ignored():
    text = "# profile run\n\na = -1\n b = 1 \nn = 12\nrhs = constant_pi\n"
    cfg = parse_config(text, overrides=("command=characteristic", "out=res.csv"))
    assert cfg.n == 12


def test_later_settings_win():
    cfg = parse_config(
        CHAR_CFG, overrides=("command=characteristic", "out=res.csv", "n=100", "n=200")
    )
    assert cfg.n == 200


def test_command_specific_requirements():
    with pytest.raises(ConfigError) as exc:
        parse_config("a = -1\nb = 1\nn = 40\n", overrides=("command=characteristic", "out=res.csv"))
    assert any("rhs" in msg for msg in exc.value.failures)
    with pytest.raises(ConfigError):
        parse_config(CRACK_CFG, overrides=("command=crack", "out=res.csv", "n=5"))
    with pytest.raises(ConfigError):
        parse_config(CRACK_CFG, overrides=("command=crack", "out=res.csv", "half_length=-1"))
    with pytest.raises(ConfigError):
        parse_config(CRACK_CFG, overrides=("command=crack", "out=res.csv", "mu=-1"))
    # s_max is the one kernel transform key; its default applies when it is absent
    assert parse_config(CRACK_CFG, overrides=("command=crack", "out=res.csv")).spec.s_max == 200.0
    assert parse_config(CRACK_CFG, overrides=("command=crack", "out=res.csv", "s_max=400")
                        ).spec.s_max == 400.0


def test_n_list_and_porosity_bounds(tmp_path):
    base = "a = -1\nb = 1\nrhs = constant_pi\nn_list = 25,50,100\n"
    cfg = parse_config(base, overrides=("command=convergence", "out=res.csv"))
    assert cfg.n_list == [25, 50, 100]
    with pytest.raises(ConfigError):
        parse_config(base, overrides=("command=convergence", "out=res.csv", "n_list=50,50"))
    with pytest.raises(ConfigError):
        parse_config(
            CRACK_CFG, overrides=("command=sweep", "out=res.csv", "N_values=0,0.5,1.0")
        )
    with pytest.raises(ConfigError) as exc:
        parse_config(CRACK_CFG, overrides=("command=sweep", "out=res.csv", "N_values="))
    assert exc.value.failures == ["N_values: needs at least one porosity target"]
    code, out = _run(tmp_path, "sweep", CRACK_CFG, "N_values=")
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_result_table_validation():
    with pytest.raises(ValueError):
        ResultTable(["a", "b"], [(1.0, 2.0), (3.0,)])
    with pytest.raises(ValueError):
        ResultTable(["a"], [(float("nan"),)])
    with pytest.raises(ValueError):
        ResultTable(["a"], [(float("inf"),)])


def test_result_table_round_trips_float64_exactly(tmp_path):
    rows = [(1.0 / 3.0, 0.1 + 0.2), (-1e-300, 2.0**-52)]
    table = ResultTable(["u", "v"], rows)
    path = tmp_path / "t.csv"
    table.write(path)
    columns, back = _read(path)
    assert columns == ["u", "v"]
    assert back.tolist() == [list(row) for row in rows]


def test_result_table_csv_literal():
    table = ResultTable(["x", "y"], np.array([[0.1, -0.0], [1e-300, 25.0], [1.0 / 3.0, -2.5]]))
    assert table.to_csv() == (
        "x,y\n"
        "0.10000000000000001,-0\n"
        "1e-300,25\n"
        "0.33333333333333331,-2.5\n"
    )
    assert ResultTable(["x"]).to_csv() == "x\n"


def test_characteristic_run_writes_expected_profile(tmp_path):
    code, out = _run(tmp_path, "characteristic", CHAR_CFG, "n=100")
    assert code == EXIT_OK
    columns, arr = _read(out)
    assert columns == ["t", "g"]
    x, g = arr[:, 0], arr[:, 1]
    inside = np.abs(x) <= 0.9
    assert np.max(np.abs(g - np.sqrt(1.0 - x * x))[inside]) <= 2e-2


def test_zero_kernel_full_run_matches_characteristic_bytes(tmp_path):
    _, out1 = _run(tmp_path, "characteristic", CHAR_CFG, out_name="c.csv")
    _, out2 = _run(tmp_path, "full", CHAR_CFG, "kernel=zero", out_name="f.csv")
    # the full run samples where the characteristic run does, byte for byte,
    # and its weighted basis holds the constant-data semicircle to rounding
    first = lambda path: [line.split(b",")[0] for line in path.read_bytes().splitlines()]
    assert first(out1) == first(out2)
    _, arr = _read(out2)
    x, g = arr[:, 0], arr[:, 1]
    assert np.max(np.abs(g - np.sqrt(1.0 - x * x))) <= 1e-12


def test_reruns_are_byte_identical(tmp_path):
    _, out1 = _run(tmp_path, "crack", CRACK_CFG, "n=60", out_name="a.csv")
    _, out2 = _run(tmp_path, "crack", CRACK_CFG, "n=60", out_name="b.csv")
    assert out1.read_bytes() == out2.read_bytes()


def test_linear_family_solves_on_shifted_interval(tmp_path):
    code, out = _run(
        tmp_path, "characteristic", "a = 0\nb = 4\nn = 200\nrhs = linear_pi\n"
    )
    assert code == EXIT_OK
    _, arr = _read(out)
    x, g = arr[:, 0], arr[:, 1]
    exact = np.sqrt(x * (4.0 - x)) * (x + 2.0) / 2.0
    inside = np.abs(x - 2.0) <= 1.8
    assert np.max(np.abs(g - exact)[inside]) <= 5e-2


def test_chebyshev_family_respects_degree_and_scale(tmp_path):
    text = "a = -1\nb = 1\nn = 200\nrhs = chebyshev_u\nrhs_degree = 1\nrhs_scale = 2\n"
    code, out = _run(tmp_path, "characteristic", text)
    assert code == EXIT_OK
    _, arr = _read(out)
    x, g = arr[:, 0], arr[:, 1]
    exact = 4.0 * x * np.sqrt(1.0 - x * x)
    assert np.max(np.abs(g - exact)[np.abs(x) <= 0.9]) <= 6e-2


def test_crack_run_reproduces_classical_ellipse(tmp_path):
    code, out = _run(tmp_path, "crack", CRACK_CFG)
    assert code == EXIT_OK
    columns, arr = _read(out)
    assert columns == ["x", "opening"]
    x, v = arr[:, 0], arr[:, 1]
    err = np.abs(v - 0.75 * np.sqrt(1.0 - x * x))
    assert np.max(err[np.abs(x) <= 0.9]) <= 0.01 * 0.75


def test_sweep_run_rows_and_normalization(tmp_path):
    code, out = _run(tmp_path, "sweep", CRACK_CFG, "N_values=0,0.2,0.4", "n=120")
    assert code == EXIT_OK
    columns, arr = _read(out)
    assert columns == ["N", "opening0", "tip_coeff"]
    assert arr.shape == (3, 3)
    assert np.allclose(arr[:, 0], [0.0, 0.2, 0.4], atol=1e-15)
    assert abs(arr[0, 2] - 1.0) <= 0.05
    assert np.all(np.diff(arr[:, 1]) > 0.0)


def test_convergence_run_errors_shrink(tmp_path):
    text = "a = -1\nb = 1\nn_list = 25,50,100\nrhs = constant_pi\n"
    code, out = _run(tmp_path, "convergence", text)
    assert code == EXIT_OK
    columns, arr = _read(out)
    assert columns == ["n", "max_error"]
    errs = arr[:, 1]
    assert errs[0] > errs[1] > errs[2]


def test_config_failures_exit_2_and_write_nothing(tmp_path, capsys):
    code, out = _run(tmp_path, "characteristic", "a = 1\nb = -1\nn = 0\nrhs = bad\n")
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert captured.out == ""
    assert "ERROR config:" in captured.err


def test_domain_object_failures_are_collected_with_the_rest(tmp_path, capsys):
    # an unknown key, such as panels_per_period, is one more failure
    sets = ("a=1", "b=-1", "s_max=0", "panels_per_period=8", "mu=-1")
    with pytest.raises(ConfigError) as exc:
        parse_config(CRACK_CFG, overrides=("command=crack", "out=res.csv") + sets)
    failures = exc.value.failures
    assert len(failures) == 4
    assert failures[0] == "panels_per_period: unknown key"
    assert failures[1].startswith("a/b: ")
    assert failures[2].startswith("s_max: ")
    assert "s_max" in failures[2].split(": ", 1)[1]
    assert failures[3].startswith("material constants: ") and "mu" in failures[3]
    code, out = _run(tmp_path, "crack", CRACK_CFG, *sets)
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err.count("ERROR config:") == 4


def test_material_off_the_plane_strain_rule_is_a_config_failure(tmp_path, capsys):
    # lam + 2 mu = 0.5 > 0, but lam + mu < 0 puts c^2 = 2 outside (0, 1)
    sets = ("lam=-1.5", "mu=1", "panels_per_period=8")
    with pytest.raises(ConfigError) as exc:
        parse_config(CRACK_CFG, overrides=("command=crack", "out=res.csv") + sets)
    assert exc.value.failures == [
        "panels_per_period: unknown key",
        "material constants: lam + mu must be positive (plane strain), got -0.5"]
    code, out = _run(tmp_path, "crack", CRACK_CFG, *sets[:2])
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err == (
        "ERROR config: material constants: lam + mu must be positive (plane strain), got -0.5\n")


def test_runtime_domain_failures_exit_3(tmp_path, capsys):
    # subnormal shear modulus overflows the effective load
    code, out = _run(tmp_path, "crack", CRACK_CFG, "mu=1e-309", "n=10")
    captured = capsys.readouterr()
    assert code == EXIT_DOMAIN
    assert not out.exists()
    assert "ERROR" in captured.err


@pytest.mark.parametrize("command, sets", [
    ("crack", ("n=10", "beta=1", "alpha=1e40")),
    ("crack", ("n=10", "beta=1", "s_max=1e-300")),
    ("sweep", ("n=10", "half_length=1e-17", "N_values=0.2")),
], ids=("tiny-cell", "tiny-s_max", "tiny-sweep"))
def test_phase_period_past_int64_exits_3(tmp_path, capsys, command, sets):
    # the cosine rule's phases are reduced mod 4M as int64; a scaled cell
    # width or s_max this small needs a period past it
    code, out = _run(tmp_path, command, CRACK_CFG, *sets)
    captured = capsys.readouterr()
    assert code == EXIT_DOMAIN
    assert not out.exists()
    assert captured.err.startswith("ERROR invalid-value: phase period of ")
    assert captured.err.count("\n") == 1


def test_sample_count_is_printed_in_short_form(tmp_path, capsys):
    code, out = _run(tmp_path, "crack", CRACK_CFG, "n=10", "beta=1", "half_length=1e200")
    assert code == EXIT_DOMAIN
    assert not out.exists()
    assert capsys.readouterr().err == ("ERROR invalid-value: sample count 1.94e+203 exceeds "
                                       "the supported maximum; reduce s_max or the offsets\n")


def test_sign_flipped_crack_exits_3(tmp_path, capsys):
    # N = 0.8 > 1 - c^2 at b = 10: the solve's opening changes sign
    code, out = _run(tmp_path, "crack", CRACK_CFG, "half_length=10", f"beta={(2.4) ** 0.5!r}")
    captured = capsys.readouterr()
    assert code == EXIT_DOMAIN
    assert not out.exists()
    assert "negative samples" in captured.err


def test_residual_gate_failure_exits_4(tmp_path, capsys, monkeypatch):
    import hypersing.linalg as linalg

    real = linalg._GETRS[np.dtype(float)]

    def spoiled(lu, pivots, b, **kwargs):
        x, info = real(lu, pivots, b, **kwargs)
        return 2.0 * x, info

    # every triangular solve returns twice its answer, so each refinement
    # step overshoots by the whole residual, which then never halves
    monkeypatch.setitem(linalg._GETRS, np.dtype(float), spoiled)
    code, out = _run(tmp_path, "characteristic", CHAR_CFG)
    captured = capsys.readouterr()
    assert code == EXIT_SINGULAR
    assert not out.exists()
    assert captured.out == ""
    assert captured.err.startswith("ERROR residual: solve residual")
    assert captured.err.count("\n") == 1


def test_unreadable_config_exits_5(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(
        ["characteristic", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == EXIT_IO
    assert not out.exists()
    assert "ERROR io:" in captured.err


def test_success_is_silent_on_both_streams(tmp_path, capsys):
    code, _ = _run(tmp_path, "characteristic", CHAR_CFG)
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out == "" and captured.err == ""


def test_help_lists_every_config_key(capsys):
    from hypersing.cli import _KEYS

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for key in _KEYS:
        assert key in text
