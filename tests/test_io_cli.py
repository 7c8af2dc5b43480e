import base64
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from pdecont import cli, demos, io, plot, problem, spcont
from pdecont.continuation import cont
from pdecont.timeint import tint

V1_DIR = Path(__file__).parent / "data" / "v1_bratu"
V2_DIR = Path(__file__).parent / "data" / "v2_bratu"


def _read_json(path):
    return json.loads(Path(path).read_text())


@pytest.fixture
def run_dir(tmp_path):
    st = demos.make("bratu", {"nx": 10, "ny": 10})
    st.sol.ds = 0.05
    st.file.dir = str(tmp_path)
    cont(st, 5)
    io.export_branch(st, os.path.join(str(tmp_path), "branch.csv"))
    return str(tmp_path), st


def test_save_load_roundtrip_bit_exact(run_dir):
    d, st = run_dir
    name = f"pt{st.file.count}"
    st2 = io.load_point(d, name)
    assert np.array_equal(st2.u, st.u)
    assert np.array_equal(st2.tau, st.tau)
    assert st2.ilam == st.ilam
    assert st2.file.count == st.file.count
    assert st2.sol.ds == st.sol.ds
    # the rebuilt state evaluates the same residual bit-for-bit
    assert np.array_equal(problem.residual(st2), problem.residual(st))


def test_saved_file_is_self_describing(run_dir):
    d, st = run_dir
    doc = _read_json(os.path.join(d, f"pt{st.file.count}.json"))
    assert doc["demo"] == "bratu"
    assert doc["config"]["nx"] == 10
    assert doc["format"] == io.FORMAT_VERSION
    assert len(np.frombuffer(base64.b64decode(doc["u"]), "<f8")) == len(st.u)


def test_point_file_has_no_removed_switch(run_dir):
    d, st = run_dir
    doc = _read_json(os.path.join(d, f"pt{st.file.count}.json"))
    assert "sfem" not in doc


def test_load_point_reads_file_with_removed_switch(run_dir, tmp_path):
    # files written before the path switch was removed carry "sfem"
    d, st = run_dir
    doc = _read_json(os.path.join(d, f"pt{st.file.count}.json"))
    doc["sfem"] = 1
    old = tmp_path / "old"
    old.mkdir()
    (old / "pt0.json").write_text(json.dumps(doc))
    st2 = io.load_point(str(old), "pt0")
    assert np.array_equal(st2.u, st.u)
    assert np.array_equal(problem.residual(st2), problem.residual(st))
    # fold-continuation files written before spdata lost "old_primary"
    spcont.spcontini(st, 2, kerneltol=np.inf)
    st.file.dir = str(old)
    doc = _read_json(io.save_point(st, "sp0"))
    assert doc["spdata"] == {"nu_base": st.spdata["nu_base"]}
    doc["spdata"]["old_primary"] = 1
    (old / "sp0.json").write_text(json.dumps(doc))
    st3 = io.load_point(str(old), "sp0")
    assert st3.mode == "spcont" and st3.spdata == st.spdata
    assert st3.ilam == st.ilam
    assert np.array_equal(st3.u, st.u)
    assert np.array_equal(problem.residual(st3), problem.residual(st))


def test_spdata_follows_the_layout_and_is_checked_on_load(run_dir, tmp_path):
    d, st = run_dir
    assert st.spdata is None
    with pytest.raises(AttributeError):
        st.spdata = {"nu_base": 1}
    spcont.spcontini(st, 2, kerneltol=np.inf)
    assert st.spdata == {"nu_base": st.ops.per.nu_per}
    st.file.dir = str(tmp_path)
    doc = _read_json(io.save_point(st, "sp0"))
    # a file whose fold-continuation layout is not the problem's
    doc["spdata"]["nu_base"] += 1
    (tmp_path / "sp1.json").write_text(json.dumps(doc))
    with pytest.raises(io.IOError_, match="layout"):
        io.load_point(str(tmp_path), "sp1")


def test_no_temp_files_left(run_dir):
    d, _ = run_dir
    assert not [f for f in os.listdir(d) if f.endswith(".tmp")]


def test_load_missing_point_raises(run_dir):
    d, _ = run_dir
    with pytest.raises(io.IOError_):
        io.load_point(d, "pt999")


PAYLOAD = ("u", "tau", "uold")


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_v1_point_file_loads_bit_exactly(tmp_path):
    # pt3.json was written by format 1 (JSON lists): bratu 6x6, cont(3)
    doc = _read_json(V1_DIR / "pt3.json")
    assert doc["format"] == 1
    st = io.load_point(str(V1_DIR), "pt3")
    for key in PAYLOAD:
        assert np.array_equal(_bits(getattr(st, key)), _bits(doc[key]))
    assert st.file.count == 3
    # a converged point, rewritten in the current format without a change
    assert np.abs(problem.residual(st)).max() < 1e-8
    st.file.dir = str(tmp_path)
    io.save_point(st, "pt3")
    assert _read_json(tmp_path / "pt3.json")["format"] == io.FORMAT_VERSION
    st2 = io.load_point(str(tmp_path), "pt3")
    for key in PAYLOAD:
        assert np.array_equal(_bits(getattr(st2, key)), _bits(doc[key]))


# keys that point files no longer carry: the branch lives in branch.csv, the
# model time in config["time"], the mode follows from spcont
REMOVED_KEYS = {"branch", "err_column", "time", "mode"}


def test_v2_point_file_with_an_embedded_branch_loads_bit_exactly(tmp_path):
    # pt3.json was written by format 2 while point files still carried the
    # branch, time, err_column and mode: bratu 6x6, cont(3)
    doc = _read_json(V2_DIR / "pt3.json")
    assert doc["format"] == 2
    assert REMOVED_KEYS <= set(doc)
    st = io.load_point(str(V2_DIR), "pt3")
    for key in PAYLOAD:
        want = np.frombuffer(base64.b64decode(doc[key]), "<f8")
        assert np.array_equal(_bits(getattr(st, key)), _bits(want))
    assert st.file.count == 3 and st.branch == [] and st.mode == "normal"
    assert np.abs(problem.residual(st)).max() < 1e-8
    st.file.dir = str(tmp_path)
    new = _read_json(io.save_point(st, "pt3"))
    assert not REMOVED_KEYS & set(new)
    assert {k: v for k, v in doc.items() if k not in REMOVED_KEYS} == new


def test_point_files_grow_linearly_with_the_run(tmp_path):
    st = demos.make("bratu", {"nx": 10, "ny": 10})
    st.file.dir = str(tmp_path)
    cont(st, 60)
    sizes = [p.stat().st_size for p in tmp_path.glob("*.json")]
    assert len(sizes) == len(st.branch) > 60
    assert max(sizes) <= 1.01 * min(sizes)


def test_no_written_file_stores_a_fact_twice(tmp_path):
    st = demos.make("schnak")
    st.file.dir = str(tmp_path)
    cont(st, 2)
    tint(st, 0.05, 2, pmod=1)
    assert st.demo_config["time"] > 0
    spcont.spcontini(st, 2, kerneltol=np.inf)
    io.save_point(st, "sp0")
    files = list(tmp_path.rglob("*.json"))
    assert len(files) == 3 + 3 + 1
    for path in files:
        doc = _read_json(path)
        assert not REMOVED_KEYS & set(doc), path.name
    # the model time is read back from the config, the mode from spcont
    st2 = io.load_point(str(tmp_path / "pre"), "pt2")
    assert st2.demo_config["time"] == st.demo_config["time"]
    st3 = io.load_point(str(tmp_path), "sp0")
    assert st3.mode == "spcont" and st3.switches.spcont == 1


def test_mode_follows_spcont_and_is_not_settable():
    st = demos.make("bratu", {"nx": 4, "ny": 4})
    with pytest.raises(AttributeError):
        st.mode = "spcont"
    for flavor, mode in ((0, "normal"), (1, "spcont"), (2, "spcont")):
        st.switches.spcont = flavor
        assert st.mode == mode
        with spcont.base_view(st):
            assert st.mode == "normal"
        assert st.switches.spcont == flavor


def test_loaded_point_starts_the_new_branch(tmp_path):
    a, b = str(tmp_path / "A"), str(tmp_path / "B")
    assert cli.main(["run", "bratu", "--steps", "3", "--out", a]) == 0
    before = {p: p.read_bytes() for p in Path(a).iterdir()}
    assert cli.main(["swipar", a, "pt3", "--ilam", "2", "--steps", "2",
                     "--out", b]) == 0
    assert {p: p.read_bytes() for p in Path(a).iterdir()} == before
    header, rows = io.read_branch_csv(os.path.join(b, "branch.csv"))
    assert header[:3] == ["count", "ptype", "c"] and "err" not in header
    assert [row[0] for row in rows] == [3, 4, 5]
    # the first row is the loaded point, as A's branch.csv recorded it
    _, rows_a = io.read_branch_csv(os.path.join(a, "branch.csv"))
    i = header.index("l2norm")
    assert rows[0][i] == rows_a[-1][i]
    assert sorted(os.listdir(b)) == ["branch.csv", "pt3.json", "pt4.json",
                                     "pt5.json"]


_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
            1e308, -1e308, 1.7976931348623157e308, np.inf, -np.inf]
_FLOATS = hst.one_of(hst.sampled_from(_SPECIAL),
                     hst.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=25, deadline=None)
@given(data=hst.data())
def test_payload_round_trip_is_bitwise(data, tmp_path_factory):
    st = demos.make("bratu", {"nx": 4, "ny": 4})
    for key, n in (("u", len(st.u)), ("tau", st.nu + st.nq + 1),
                   ("uold", len(st.u))):
        vals = data.draw(hst.lists(_FLOATS, min_size=n, max_size=n), key)
        setattr(st, key, np.array(vals, dtype=float))
    st.file.dir = str(tmp_path_factory.mktemp("rt"))
    io.save_point(st, "pt0")
    st2 = io.load_point(st.file.dir, "pt0")
    for key in PAYLOAD:
        assert np.array_equal(_bits(getattr(st2, key)),
                              _bits(getattr(st, key)))


def test_payload_uses_little_endian_float64(tmp_path):
    st = demos.make("bratu", {"nx": 4, "ny": 4})
    st.u[:3] = [1.0, -0.0, 5e-324]
    st.file.dir = str(tmp_path)
    doc = _read_json(io.save_point(st, "pt0"))
    assert base64.b64decode(doc["u"])[:24] == struct.pack(
        "<3d", 1.0, -0.0, 5e-324)
    assert doc["tau"] is None and doc["uold"] is None
    assert io.load_point(str(tmp_path), "pt0").tau is None


def _b64(raw):
    return base64.b64encode(raw).decode("ascii")


@pytest.mark.parametrize("key, payload", [
    ("u", "not base64!"),
    ("u", _b64(b"\0" * 7)),                         # not whole float64s
    ("u", _b64(np.zeros(5).tobytes())),             # wrong unknown count
    ("u", [0.0, 1.0]),                              # a list in format 2
    ("tau", "AAAA=A=="),                            # bad padding
    ("uold", _b64(b"\0" * 12)),
])
def test_bad_payload_raises(run_dir, tmp_path, key, payload):
    d, st = run_dir
    doc = _read_json(os.path.join(d, f"pt{st.file.count}.json"))
    doc[key] = payload
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(io.IOError_):
        io.load_point(str(tmp_path), "bad")


def test_unknown_format_raises(run_dir, tmp_path):
    d, st = run_dir
    doc = _read_json(os.path.join(d, f"pt{st.file.count}.json"))
    for fmt in (0, 3, None):
        doc["format"] = fmt
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        with pytest.raises(io.IOError_, match="format"):
            io.load_point(str(tmp_path), "bad")


@pytest.mark.parametrize("source", ["v1", "v2"])
def test_loaded_arrays_are_writable(run_dir, source):
    d, st = run_dir
    directory, name = ((str(V1_DIR), "pt3") if source == "v1"
                       else (d, f"pt{st.file.count}"))
    st2 = io.load_point(directory, name)
    for key in PAYLOAD:
        a = getattr(st2, key)
        assert a.flags.writeable and a.flags.owndata
        a[0] += 1.0


def test_load_periodic_point_restores_reduction(tmp_path):
    st = demos.make("schnaktravel")
    st.file.dir = str(tmp_path)
    io.save_point(st, "pt0")
    st2 = io.load_point(str(tmp_path), "pt0")
    assert st2.switches.bcper == 1
    assert st2.nu == st.nu
    assert np.array_equal(st2.u, st.u)
    assert np.array_equal(problem.residual(st2), problem.residual(st))


def test_branch_csv_roundtrip(run_dir):
    d, st = run_dir
    header, rows = io.read_branch_csv(os.path.join(d, "branch.csv"))
    assert header[:2] == ["count", "ptype"]
    assert "lambda" in header and "l2norm" in header
    assert len(rows) == len(st.branch)
    i = header.index("l2norm")
    for row, rec in zip(rows, st.branch):
        assert row[i] == rec.l2norm       # repr round-trip is exact
    j = header.index("lambda")
    assert rows[-1][j] == st.branch[-1].pars[0]


def test_cli_run_and_check(tmp_path):
    out = str(tmp_path / "run")
    rc = cli.main(["run", "bratu", "--steps", "3", "--ds", "0.05",
                   "--param", "lambda=0.0", "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "branch.csv"))
    assert os.path.exists(os.path.join(out, "pt1.json"))
    assert cli.main(["check", "bratu"]) == 0


@pytest.mark.parametrize("argv, point", [
    (["findbif", "acfold", "--nbif", "1"], "bpt1"),
    (["run", "bratu", "--steps", "25", "--ds", "0.05"], "fpt1")])
def test_cli_writes_outputs_then_fails_on_a_swallowed_failure(
        tmp_path, monkeypatch, capsys, argv, point):
    from pdecont import continuation
    orig = continuation.bisect_special_point

    def failing(state, left, right, kind):
        return dict(orig(state, left, right, kind), warn=True)
    monkeypatch.setattr(continuation, "bisect_special_point", failing)
    out = str(tmp_path / "run")
    with pytest.warns(RuntimeWarning) as caught:
        rc = cli.main(argv + ["--out", out])
    assert rc == 1
    assert str(caught[0].message).startswith(f"{point}: ")
    assert os.path.exists(os.path.join(out, "branch.csv"))
    assert os.path.exists(os.path.join(out, f"{point}.json"))
    err = capsys.readouterr().err
    assert f"failed: {point}: the corrector failed inside the " \
           "localization" in err


def test_cli_check_uses_a_perturbed_state(monkeypatch, capsys):
    # bratu's default state (u = 0, lambda = 0) has a zero second block
    seen = []
    spjac_check = spcont.spjac_check

    def spy(state, *args, **kwargs):
        seen.append(np.array(state.u))
        return spjac_check(state, *args, **kwargs)
    monkeypatch.setattr(spcont, "spjac_check", spy)
    assert cli.main(["check", "bratu"]) == 0
    nu = demos.make("bratu").nu
    assert np.ptp(seen[0][:nu]) > 0 and seen[0][nu] != 0
    assert "seeded perturbed state (seed 0)" in capsys.readouterr().out


def test_cli_error_paths(tmp_path, capsys):
    assert cli.main(["run", "nosuchdemo", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["run", "bratu", "--param", "oops", "--out", str(tmp_path)])


def test_cli_plot_branch_and_solution(tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["run", "bratu", "--steps", "3", "--ds", "0.05",
                     "--out", out]) == 0
    svg1 = str(tmp_path / "branch.svg")
    assert cli.main(["plot", "branch", out, "--out", svg1]) == 0
    assert Path(svg1).read_text().startswith("<svg")
    svg2 = str(tmp_path / "sol.svg")
    assert cli.main(["plot", "sol", out, "pt1", "--out", svg2]) == 0
    assert "<polygon" in Path(svg2).read_text()


def test_plot_constant_field_single_color(tmp_path):
    st = demos.make("bratu", {"nx": 6, "ny": 6})
    st.u[:st.nu] = 0.7
    svg = str(tmp_path / "c.svg")
    plot.plot_solution(st, 0, svg)
    text = Path(svg).read_text()
    fills = {seg.split('"')[0] for seg in text.split('fill="')[1:]}
    fills = {f for f in fills if f.startswith("#")}
    assert len(fills) <= 2     # one field color (+ possibly colorbar frame)


def test_plot_solution_in_fold_continuation(tmp_path):
    # the plotted field is the base PDE field, also when the kernel vector
    # follows it in U
    st = demos.perturb(demos.make("acfold", {"nx": 6, "ny": 5}), seed=1)
    want = str(tmp_path / "base.svg")
    plot.plot_solution(st, 0, want)
    spcont.spcontini(st, 2, kerneltol=np.inf)
    got = str(tmp_path / "spcont.svg")
    plot.plot_solution(st, 0, got)
    assert Path(got).read_text() == Path(want).read_text()


def test_cli_tint_runs(tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["run", "schnak", "--steps", "2", "--out", out]) == 0
    assert cli.main(["tint", out, "pt1", "--dt", "0.05", "--nt", "5"]) == 0
    assert cli.main(["tints", out, "pt1", "--dt", "0.05", "--nt", "5"]) == 0


def test_cli_tints_needs_semilinear_declaration(tmp_path, capsys):
    # nlbc has a u-dependent boundary operator and declares no semilinear
    # operator, so there is no splitting to derive
    st = demos.make("nlbc", {"nx": 8, "ny": 8})
    st.file.dir = str(tmp_path)
    io.save_point(st, "pt0")
    rc = cli.main(["tints", str(tmp_path), "pt0", "--dt", "0.05",
                   "--nt", "2"])
    assert rc == 1
    assert "semilinear" in capsys.readouterr().err
