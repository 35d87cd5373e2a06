"""System description files, config parsing, and the batch CLI."""

import contextlib
import filecmp
import functools
import io
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalab import fourier
from fractalab.classify import classify_ifs
from fractalab.cli import main
from fractalab.ifs_core import BUILTINS, builtin
from fractalab.specfile import (
    SpecFileError,
    parse_config,
    parse_ifs_file,
)
from fractalab.suites import BUILTIN_SUITES, REQUIRED, RUNNERS

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
    ifs, weights = parse_ifs_file(write(tmp_path / "a.ifs", GOOD_IFS))
    assert ifs.name == "pair"
    assert ifs.n == 2
    assert ifs.maps[0].ratio == F(1, 2)
    assert ifs.maps[1].translation == F(4, 5)
    assert tuple(weights) == (F(1, 2), F(1, 2))


def test_parse_errors_carry_line_numbers(tmp_path, capsys):
    bad = GOOD_IFS.replace("map 1/2 0", "map 3/2 0")  # not a contraction
    with pytest.raises(SpecFileError) as exc:
        parse_ifs_file(write(tmp_path / "bad.ifs", bad))
    assert exc.value.line_no is not None
    with pytest.raises(SpecFileError):
        parse_ifs_file(write(tmp_path / "empty.ifs", "kind affine\n"))
    # a builtin is named by the reference builtin:<name>, not from inside a file
    path = write(tmp_path / "builtin.ifs", "weights 1/3 2/3\nbuiltin cantor\nmap 1/2 0\n")
    with pytest.raises(SpecFileError, match="unknown directive 'builtin'") as exc:
        parse_ifs_file(path)
    assert exc.value.line_no == 2
    assert main(["classify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_builtin_systems_available():
    assert len(BUILTINS) == 8
    for name in BUILTINS:
        ifs, weights = builtin(name)
        assert ifs.n >= 2
        assert len(weights) == ifs.n and sum(weights) == 1
    with pytest.raises(KeyError, match="known: aperiodic-125, bernoulli-1/3, bernoulli-golden, cantor, "
                                       "dyadic-pair, moebius-example, pow2-pair, smooth-example"):
        builtin("no-such-system")


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
    assert capsys.readouterr().out.split() == [
        "fourier-oracle-agreement", "fourier-recursion", "pisot-nondecay", "aperiodic-decay", "llt-trend",
        "stopping-bracket", "gamma-law", "cantor-digit-normality", "digit-certification", "classification",
        "scaled-energy", "moser-instance",
    ]


def test_cli_classify_builtin(capsys):
    assert main(["classify", "builtin:cantor"]) == 0
    out = capsys.readouterr().out
    assert "periodic: true" in out


def test_cli_classify_expectation_mismatch(capsys):
    assert main(["classify", "builtin:cantor", "--expect", "periodic=false"]) == 1
    assert capsys.readouterr().err == "expectation failed: periodic == False\n"


# what each builtin's report says, under the three --expect keys
_VERDICTS = {
    "cantor": {"periodic": "true", "lattice-contained": "true", "in-integer-form": "true"},
    "aperiodic-125": {"periodic": "false", "lattice-contained": "false", "in-integer-form": "false"},
}
_FLIP = {"true": "false", "false": "true"}


@pytest.mark.parametrize("key", ["periodic", "lattice-contained", "in-integer-form"])
@pytest.mark.parametrize("name", sorted(_VERDICTS))
def test_cli_classify_each_expect_key_passes_and_fails(capsys, name, key):
    value = _VERDICTS[name][key]
    assert main(["classify", f"builtin:{name}", "--expect", f"{key}={value}"]) == 0
    report = capsys.readouterr()
    assert report.err == ""
    assert main(["classify", f"builtin:{name}", "--expect", f"{key}={_FLIP[value]}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == report.out
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("expectation failed: ")
    assert captured.err.endswith(f" == {_FLIP[value].capitalize()}\n")


def test_cli_classify_repeated_expect_keeps_the_last_value(capsys):
    argv = ["classify", "builtin:cantor", "--expect", "periodic=false", "--expect", "periodic=true"]
    assert main(argv) == 0
    assert main(argv[:-2]) == 1


@pytest.mark.parametrize(
    "expect, needle",
    [("integer-form=true", "unknown config field 'expect-integer-form'"), ("periodic", "empty value"),
     ("=true", "unknown config field 'expect-'")],
)
def test_cli_classify_bad_expect_exits_2_before_any_output(capsys, expect, needle):
    assert main(["classify", "builtin:cantor", "--expect", expect]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert needle in captured.err


@pytest.mark.parametrize("name", sorted(n for n in BUILTINS if builtin(n)[0].is_affine))
def test_cli_classify_prints_the_report(capsys, name):
    assert main(["classify", f"builtin:{name}"]) == 0
    assert capsys.readouterr().out == classify_ifs(builtin(name)[0]).to_text()


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
        # ratio powers read the first map's ratio, which a smooth map lacks
        (["experiment fourier-decay", "ifs builtin:smooth-example", "q-ratio-powers 3"], "affine"),
        # a key the kind does not take, here a typo for `paths`
        (["experiment clt", "ifs builtin:cantor", "path 100"], "'path'"),
        (["experiment suite", "suite moser-instance", "paths 5"], "'paths'"),
        # a key given without a value
        (["experiment fourier-decay", "ifs builtin:cantor", "q-grid 1:100:4-log", "assert-min-abs"],
         "assert-min-abs"),
        (["experiment del-criterion", "ifs builtin:cantor", "q 1/0"], "bad q '1/0'"),
        (["experiment clt", "ifs builtin:cantor", "paths 1e3"], "bad paths '1e3'"),
        (["experiment fourier-decay", "ifs builtin:cantor", "q-grid 1:inf:4-log"], "bad q-grid"),
        # float() reads nan: a nan tol never stops the word tree, a nan tau never verifies
        (["experiment fourier-decay", "ifs builtin:cantor", "q-grid 1:100:4-log", "tol nan"], "bad tol"),
        (["experiment moser", "tau nan"], "bad tau"),
        # ratio powers fix both the frequencies and the method
        (["experiment fourier-decay", "ifs builtin:cantor", "q-ratio-powers 3", "q-grid 1:100:5-log"],
         "q-grid and q-ratio-powers"),
        (["experiment fourier-decay", "ifs builtin:cantor", "q-ratio-powers 3", "method bogus"], "bogus"),
        (["experiment fourier-decay", "ifs builtin:cantor", "q-ratio-powers 3", "method monte_carlo"],
         "monte_carlo"),
        # a Monte Carlo sample count, given to the word tree
        (["experiment fourier-decay", "ifs builtin:cantor", "q-grid 1:10:3-log", "samples 5"], "samples"),
        (["experiment fourier-decay", "ifs builtin:cantor", "q-ratio-powers 3", "samples 5"], "samples"),
    ],
    ids=["bad-value", "precondition", "smooth-ratio-powers", "unknown-key", "suite-paths",
         "empty-assertion", "q-over-zero", "paths-float", "q-grid-infinite", "tol-nan", "tau-nan",
         "ratio-powers-with-q-grid", "ratio-powers-unknown-method", "ratio-powers-monte-carlo",
         "word-tree-samples", "ratio-powers-samples"],
)
def test_cli_run_rejected_value_exits_2(tmp_path, capsys, lines, needle):
    cfg = write(tmp_path / "bad.cfg", "\n".join(lines + [f"out {tmp_path / 'o'}"]) + "\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and needle in err
    assert not (tmp_path / "o").exists()


def test_cli_run_word_tree_budget_exits_2(tmp_path, capsys, monkeypatch):
    # a tol the node budget cannot reach; the budget is cut so the tree
    # gives up at once instead of after 2e6 nodes
    monkeypatch.setattr(fourier, "fourier_word_tree", functools.partial(fourier.fourier_word_tree, max_nodes=200))
    lines = ["experiment fourier-decay", "ifs builtin:aperiodic-125", "q-grid 10:100:2-log", "tol 1e-300"]
    cfg = write(tmp_path / "bad.cfg", "\n".join(lines + [f"out {tmp_path / 'o'}"]) + "\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "word tree exceeded 200 nodes" in err
    assert not (tmp_path / "o").exists()


def _run_captured(lines, out):
    """(exit code, stderr) of `fractalab run` on a config of `lines` writing to out."""
    cfg = out.parent / "c.cfg"
    cfg.write_text("\n".join(lines + [f"out {out}"]) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["run", str(cfg)])
    return rc, err.getvalue()


def _required_lines(kind):
    """A config of `kind` giving each of its required keys a valid value."""
    valid = {"ifs": "builtin:cantor", "k-list": "20", "suite": "moser-instance"}
    return [f"experiment {kind}"] + [f"{key} {valid[key]}" for key, (_, default) in RUNNERS[kind][1].items()
                                     if default is REQUIRED]


def _rejects(parse, text):
    try:
        parse(text)
    except (ValueError, ZeroDivisionError):
        return True
    return False


# one config value: no '#' (a comment), no line break, no surrounding space
VALUE = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters="#"),
                min_size=1, max_size=12).map(str.strip).filter(bool)


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for kind, (_, table) in RUNNERS.items() for key, (parse, _) in table.items() if parse is not str],
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cli_run_unparseable_value_exits_2(kind, key, data):
    parse = RUNNERS[kind][1][key][0]
    value = data.draw(VALUE.filter(lambda text: _rejects(parse, text)), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        lines = [line for line in _required_lines(kind) if not line.startswith(f"{key} ")]
        rc, err = _run_captured(lines + [f"{key} {value}"], out)
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and f"bad {key} " in err
        assert not out.exists()


@pytest.mark.parametrize("kind", list(RUNNERS))
def test_cli_run_unknown_key_exits_2(tmp_path, kind):
    rc, err = _run_captured(_required_lines(kind) + ["colour blue"], tmp_path / "o")
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'colour'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", [kind for kind, (_, table) in RUNNERS.items() if "weights" in table])
def test_cli_run_ifs_file_without_weights(tmp_path, kind):
    """classify reads no weights and takes them optionally; every other kind
    exits 2 when neither the config nor the ifs file gives them."""
    ifs = write(tmp_path / "pair.ifs", GOOD_IFS.replace("weights 1/2 1/2\n", ""))
    lines = [line for line in _required_lines(kind) if not line.startswith("ifs ")] + [f"ifs {ifs}"]
    if kind == "classify":
        assert _run_captured(lines, tmp_path / "o") == (0, "")
        assert _run_captured(lines + ["weights 1/2 1/2"], tmp_path / "o") == (0, "")
        return
    rc, err = _run_captured(lines, tmp_path / "o")
    assert rc == 2
    assert err == "error: missing config field: weights (not provided by the ifs file either)\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "lines, needle",
    [
        (["experiment del-criterion", "ifs builtin:cantor", "n-max 0"], "n_max"),
        (["experiment del-criterion", "ifs builtin:cantor", "n-max 3"], "n_max"),
        (["experiment normality", "ifs builtin:cantor", "seeds 1", "n-digits 0"], "block_len"),
        (["experiment normality", "ifs builtin:cantor", "seeds 1", "n-digits 2", "block-len 3"], "block_len"),
        (["experiment normality", "ifs builtin:cantor", "seeds 1", "n-digits 64", "block-len 0"], "block_len"),
        (["experiment scaled-energy", "ifs builtin:cantor", "q-list 0", "k-list 2", "r-list 0.1"], "nonzero"),
        (["experiment clt", "ifs builtin:cantor", "weights 1/0 1", "paths 100"], "weights"),
        (["experiment moser", "depth 0"], "liouville_depth"),
        (["experiment moser", "tau -5"], "tau must be >= -1"),
        (["experiment fourier-decay", "ifs builtin:cantor", "q-grid 1:100:4-log", "method bogus"], "bogus"),
        (["experiment fourier-decay", "ifs builtin:cantor", "q-grid 1:100:4-log", "method monte_carlo",
          "samples 0"], "samples"),
        (["experiment clt", "ifs builtin:cantor", "n 0", "paths 100"], "n >= 1"),
        (["experiment clt", "ifs builtin:cantor", "n 20", "paths 0"], "paths"),
        (["experiment clt", "ifs builtin:cantor", "n 100000000000000000000", "paths 10"], "below 2^63"),
        (["experiment scaled-energy", "ifs builtin:cantor", "q-list 100", "k-list 1000", "r-list 0.1"],
         "e^(k chi) overflows a float"),
        (["experiment llt", "ifs builtin:cantor", "k-list 5", "paths 0"], "paths"),
        (["experiment del-criterion", "ifs builtin:cantor", "n-max 8", "samples 0"], "samples"),
        # Fraction("1e400") parses; its float overflows
        (["experiment del-criterion", "ifs builtin:cantor", "q 1e400"], "q overflows a float"),
        (["experiment normality", "ifs builtin:cantor", "seeds 0", "assert-pass-fraction 0.9"], "seeds"),
        (["experiment fourier-decay", "ifs builtin:cantor", "q-ratio-powers 0", "assert-min-abs 0.1"],
         "q-ratio-powers"),
        (["experiment llt", "ifs builtin:cantor", "k-list -5", "paths 100"], "k must be positive"),
        (["experiment llt", "ifs builtin:aperiodic-125", "k-list 20", "h -19"], "h must be >= 0, got -19.0"),
    ],
    ids=["n-max-0", "n-max-3", "n-digits-0", "n-below-block-len", "block-len-0", "q-zero",
         "weight-over-zero", "moser-depth-0", "moser-tau-below-minus-1", "unknown-method", "mc-samples-0", "clt-n-0",
         "clt-paths-0", "clt-n-2^63", "energy-exp-overflow", "llt-paths-0", "del-samples-0", "del-q-overflow",
         "normality-seeds-0", "ratio-powers-0", "llt-negative-k", "llt-negative-h"],
)
def test_cli_run_edge_parameter_exits_2(tmp_path, capsys, lines, needle):
    cfg = write(tmp_path / "bad.cfg", "\n".join(lines + [f"out {tmp_path / 'o'}"]) + "\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and needle in err
    assert not (tmp_path / "o").exists()


_KNOWN_SYSTEMS = ", ".join(sorted(BUILTINS))


@pytest.mark.parametrize(
    "argv, lines, message",
    [
        (["classify", "builtin:nope"], None, f"unknown builtin system 'nope'; known: {_KNOWN_SYSTEMS}"),
        (["run"], ["experiment clt", "ifs builtin:nope"], f"unknown builtin system 'nope'; known: {_KNOWN_SYSTEMS}"),
        (["run"], ["experiment suite", "suite nope"], f"unknown suite 'nope'; known: {', '.join(BUILTIN_SUITES)}"),
    ],
    ids=["classify-builtin", "run-builtin", "run-suite"],
)
def test_cli_unknown_name_prints_the_message(tmp_path, capsys, argv, lines, message):
    # the lookups raise KeyError, whose str() would wrap the message in quotes
    if lines is not None:
        argv = argv + [write(tmp_path / "bad.cfg", "\n".join(lines + [f"out {tmp_path / 'o'}"]) + "\n")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert '"' not in captured.err and captured.out == ""


def test_cli_run_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "absent.cfg" in err


def test_cli_run_unwritable_out_exits_2(tmp_path, capsys):
    # `out` under a regular file: the directory cannot be made
    blocker = write(tmp_path / "file", "")
    cfg = write(tmp_path / "c.cfg", f"experiment classify\nifs builtin:cantor\nout {blocker}/o\n")
    assert main(["run", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize(
    "lines, rc, table, header",
    [
        (["experiment moser", "tau 3", "depth 3", "seed 5"], 0, "moser-scan", "x,m"),
        (["experiment scaled-energy", "ifs builtin:cantor", "q-list 100 1000", "k-list 2", "r-list 0.01"],
         0, "scaled-energy-energy", "q,k,r,lhs,rhs,ok"),
        (["experiment del-criterion", "ifs builtin:cantor", "q 3", "n-max 512", "samples 50"],
         0, "del-criterion-partial-sums", "N,e_N,partial_sum"),
        # each assertion key at a value that holds and at one that does not
        (["experiment fourier-decay", "ifs builtin:cantor", "q-grid 1:100:4-log", "assert-min-abs 0.005"],
         0, "fourier-decay-profile", "q,re,im,abs,error_bound,method"),
        (["experiment fourier-decay", "ifs builtin:cantor", "q-grid 1:100:4-log", "assert-min-abs 0.1"],
         1, "fourier-decay-profile", "q,re,im,abs,error_bound,method"),
        (["experiment llt", "ifs builtin:cantor", "k-list 20", "paths 5000", "assert-median-floor 0.2"],
         0, "llt-cells", "k,prefix,suffix,count,ks"),
        (["experiment llt", "ifs builtin:aperiodic-125", "k-list 20", "paths 5000", "assert-median-floor 0.2"],
         1, "llt-cells", "k,prefix,suffix,count,ks"),
        (["experiment clt", "ifs builtin:cantor", "n 200", "paths 2000", "assert-zero-variance true"],
         0, "clt-clt", "n,paths,ks,fitted_var,zero_variance"),
        (["experiment clt", "ifs builtin:aperiodic-125", "n 200", "paths 2000", "assert-zero-variance true"],
         1, "clt-clt", "n,paths,ks,fitted_var,zero_variance"),
        (["experiment normality", "ifs builtin:cantor", "base 2", "n-digits 256", "seeds 3", "block-len 2",
          "assert-pass-fraction 0.6"], 0, "normality-digit-frequency", "seed,min_p_value,pass"),
        (["experiment normality", "ifs builtin:cantor", "base 3", "n-digits 256", "seeds 3", "block-len 2",
          "assert-pass-fraction 0.6"], 1, "normality-digit-frequency", "seed,min_p_value,pass"),
        (["experiment classify", "ifs builtin:cantor", "expect-in-integer-form true"], 0, "classify-report", "field"),
        (["experiment classify", "ifs builtin:aperiodic-125", "expect-in-integer-form true"],
         1, "classify-report", "field"),
        (["experiment classify", "ifs builtin:cantor", "expect-lattice-contained true"], 0, "classify-report", "field"),
        (["experiment classify", "ifs builtin:cantor", "expect-lattice-contained false"],
         1, "classify-report", "field"),
    ],
    ids=["moser", "scaled-energy", "del-criterion", "min-abs-holds", "min-abs-fails", "median-floor-holds",
         "median-floor-fails", "zero-variance-holds", "zero-variance-fails", "pass-fraction-holds",
         "pass-fraction-fails", "integer-form-holds", "integer-form-fails", "lattice-contained-holds",
         "lattice-contained-fails"],
)
def test_cli_run_kinds_and_assertions(tmp_path, capsys, lines, rc, table, header):
    cfg = write(tmp_path / "c.cfg", "\n".join(lines + [f"out {tmp_path / 'o'}"]) + "\n")
    assert main(["run", cfg]) == rc
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == ("result: PASS" if rc == 0 else "result: FAIL")
    assert (tmp_path / "o" / f"{table}.csv").read_text().splitlines()[0] == header


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
    captured = capsys.readouterr()
    if value == "TRUE":
        assert rc == 0 and captured.err == ""
    else:
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "true or false" in captured.err


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
