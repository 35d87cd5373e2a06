"""System description files, config parsing, and the batch CLI."""

import filecmp
import subprocess
import sys
from fractions import Fraction

import pytest

from fractalab.cli import main
from fractalab.specfile import (
    SpecFileError,
    builtin_system,
    parse_config,
    parse_ifs_file,
    serialize_ifs,
)

F = Fraction


def write(path, text):
    path.write_text(text)
    return str(path)


GOOD_IFS = """\
kind affine
name pair
interval 0 1
map 1/2 0
map 1/5 4/5
weights 1/2 1/2
"""


def test_parse_ifs_file(tmp_path):
    spec = parse_ifs_file(write(tmp_path / "a.ifs", GOOD_IFS))
    assert spec.ifs.name == "pair"
    assert spec.ifs.n == 2
    assert spec.ifs.maps[0].ratio == F(1, 2)
    assert spec.ifs.maps[1].translation == F(4, 5)
    assert tuple(spec.weights) == (F(1, 2), F(1, 2))


def test_serialize_roundtrip(tmp_path):
    spec = parse_ifs_file(write(tmp_path / "a.ifs", GOOD_IFS))
    text = serialize_ifs(spec.ifs, spec.weights)
    spec2 = parse_ifs_file(write(tmp_path / "b.ifs", text))
    assert [m.ratio for m in spec2.ifs.maps] == [m.ratio for m in spec.ifs.maps]
    assert [m.translation for m in spec2.ifs.maps] == [m.translation for m in spec.ifs.maps]
    assert tuple(spec2.weights) == tuple(spec.weights)


def test_parse_errors_carry_line_numbers(tmp_path):
    bad = GOOD_IFS.replace("map 1/2 0", "map 3/2 0")  # not a contraction
    with pytest.raises(SpecFileError) as exc:
        parse_ifs_file(write(tmp_path / "bad.ifs", bad))
    assert exc.value.line_no is not None
    with pytest.raises(SpecFileError):
        parse_ifs_file(write(tmp_path / "empty.ifs", "kind affine\n"))


def test_builtin_systems_available():
    for name in ("cantor", "aperiodic-125", "dyadic-pair", "bernoulli-golden"):
        spec = builtin_system(name)
        assert spec.ifs.n >= 2
        assert sum(spec.weights) == 1
    with pytest.raises(KeyError):
        builtin_system("no-such-system")


def test_parse_config_flat_and_include(tmp_path):
    base = write(tmp_path / "base.cfg", "experiment clt\nifs builtin:cantor\npaths 500\n")
    child = write(
        tmp_path / "child.cfg", f"include {base}\npaths 900\nseed 3\n"
    )
    cfg = parse_config(child)
    assert cfg["experiment"] == "clt"
    assert cfg["paths"] == "900"  # child overrides the included value
    assert cfg["seed"] == "3"


def test_parse_config_rejects_include_cycles(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text(f"include {b}\n")
    b.write_text(f"include {a}\n")
    with pytest.raises(SpecFileError):
        parse_config(str(a))


# -- CLI ------------------------------------------------------------------------


def test_cli_suites_lists_builtins(capsys):
    assert main(["suites"]) == 0
    out = capsys.readouterr().out.split()
    assert "pisot-nondecay" in out
    assert "aperiodic-decay" in out
    assert len(out) >= 8


def test_cli_classify_builtin(capsys):
    assert main(["classify", "builtin:cantor"]) == 0
    out = capsys.readouterr().out
    assert "periodic: true" in out


def test_cli_classify_expectation_mismatch(capsys):
    assert main(["classify", "builtin:cantor", "--expect", "periodic=false"]) == 1


def test_cli_classify_file(tmp_path, capsys):
    path = write(tmp_path / "sys.ifs", GOOD_IFS)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "periodic: false" in out


def test_cli_run_missing_field_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "experiment clt\n")
    assert main(["run", cfg]) == 2
    assert "ifs" in capsys.readouterr().err


def test_cli_run_unknown_kind_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "experiment frobnicate\nifs builtin:cantor\n")
    assert main(["run", cfg]) == 2


@pytest.mark.parametrize(
    "lines, needle",
    [
        # a value that does not parse
        (["experiment fourier-decay", "ifs builtin:cantor", "q-grid 1:100:4-log", "tol abc"], "abc"),
        # a PreconditionError from the experiment
        (["experiment llt", "ifs builtin:smooth-example", "k-list 5", "paths 100"], "affine"),
    ],
    ids=["bad-value", "precondition"],
)
def test_cli_run_rejected_value_exits_2(tmp_path, capsys, lines, needle):
    cfg = write(tmp_path / "bad.cfg", "\n".join(lines + [f"out {tmp_path / 'o'}"]) + "\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err
    assert not (tmp_path / "o").exists()


def test_cli_run_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "absent.cfg" in err


def test_cli_classify_missing_file_exits_2(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "absent.ifs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "absent.ifs" in err


def test_cli_run_clt_pass_and_fail(tmp_path, capsys):
    cfg = write(
        tmp_path / "clt.cfg",
        "experiment clt\nifs builtin:aperiodic-125\nn 200\npaths 4000\n"
        f"assert-ks-below 0.05\nout {tmp_path / 'out1'}\n",
    )
    assert main(["run", cfg]) == 0
    assert (tmp_path / "out1" / "clt-summary.txt").exists()
    cfg = write(
        tmp_path / "tight.cfg",
        "experiment clt\nifs builtin:aperiodic-125\nn 200\npaths 4000\n"
        f"assert-ks-below 0.00001\nout {tmp_path / 'out2'}\n",
    )
    assert main(["run", cfg]) == 1


def test_cli_run_is_deterministic(tmp_path):
    text = (
        "experiment normality\nifs builtin:cantor\nbase 2\nn-digits 256\n"
        "seeds 5\nblock-len 2\nseed 9\n"
    )
    c1 = write(tmp_path / "n1.cfg", text + f"out {tmp_path / 'o1'}\n")
    c2 = write(tmp_path / "n2.cfg", text + f"out {tmp_path / 'o2'}\n")
    assert main(["run", c1]) == 0
    assert main(["run", c2]) == 0
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    assert mismatch == [] and errors == []


def test_cli_run_fourier_decay_csv_schema(tmp_path):
    cfg = write(
        tmp_path / "f.cfg",
        "experiment fourier-decay\nifs builtin:cantor\nq-grid 1:1000:12-log\n"
        f"tol 1e-4\nout {tmp_path / 'fo'}\n",
    )
    assert main(["run", cfg]) == 0
    csv_path = tmp_path / "fo" / "fourier-decay-profile.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "q,re,im,abs,error_bound,method"
    assert len(lines) == 13


def test_cli_run_suite_kind(tmp_path):
    cfg = write(
        tmp_path / "s.cfg",
        f"experiment suite\nsuite stopping-bracket\nout {tmp_path / 'so'}\n",
    )
    assert main(["run", cfg]) == 0


def test_cli_ratio_powers_of_a_negative_ratio_alternate_in_sign(tmp_path, capsys):
    """q = r^-n for r = -1/2 is -2, 4, -8, ...: no increasing grid, and the
    decade check reads only q > 0 (4 in decade 0; 16 and 64 in decade 1)."""
    ifs = write(tmp_path / "alt.ifs",
                "kind affine\ninterval -1 1\nmap -1/2 1/2\nmap 1/3 -1/3\nweights 2/3 1/3\n")
    cfg = write(
        tmp_path / "p.cfg",
        f"experiment fourier-decay\nifs {ifs}\nq-ratio-powers 6\n"
        f"assert-decades-decreasing true\nout {tmp_path / 'o'}\n",
    )
    assert main(["run", cfg]) == 0
    rows = (tmp_path / "o" / "fourier-decay-profile.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [(-2.0) ** n for n in range(1, 7)]
    decades = [line for line in capsys.readouterr().out.splitlines() if "per-decade" in line]
    assert len(decades) == 1 and decades[0].startswith("PASS") and decades[0].count(" > ") == 1


@pytest.mark.parametrize("value", ["yes", "1", "TRUE"])
@pytest.mark.parametrize(
    "lines",
    [
        ["experiment classify", "ifs builtin:cantor", "expect-periodic {}"],
        ["experiment llt", "ifs builtin:cantor", "k-list 20", "paths 500", "assert-trend {}"],
    ],
    ids=["expect-periodic", "assert-trend"],
)
def test_cli_run_boolean_values_are_true_or_false(tmp_path, capsys, lines, value):
    text = "\n".join(lines).format(value)
    cfg = write(tmp_path / "b.cfg", f"{text}\nout {tmp_path / 'o'}\n")
    if value == "TRUE":
        assert main(["run", cfg]) == 0
        return
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "true or false" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["yes", "1", "TRUE"])
def test_cli_classify_expect_values_are_true_or_false(capsys, value):
    rc = main(["classify", "builtin:cantor", "--expect", f"periodic={value}"])
    err = capsys.readouterr().err
    if value == "TRUE":
        assert rc == 0 and err == ""
    else:
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "true or false" in err


@pytest.mark.parametrize("name", ["smooth-example", "moebius-example"])
def test_cli_classify_smooth_system_exits_2(tmp_path, capsys, name):
    assert main(["classify", f"builtin:{name}"]) == 2
    cfg = write(tmp_path / "c.cfg", f"experiment classify\nifs builtin:{name}\nout {tmp_path / 'o'}\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: ") and "affine" in line for line in err)
    assert not (tmp_path / "o").exists()


def test_cli_entry_point_installed():
    proc = subprocess.run(["fractalab", "suites"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "classification" in proc.stdout
