"""Every public reader and writer takes a path or a handle, and path writes are atomic."""

import io
import os
import stat

import numpy as np
import pytest

import qfront.fields
import qfront.fit
import qfront.localtime
from qfront.eikonal import TraveltimeField
from qfront.fields import ComplexField, Grid, read_field_csv, write_field_csv
from qfront.fit import fit_vp, read_records_csv, synthesize_records, write_fit_json
from qfront.localtime import local_time, write_localtime_csv

FIELD = ComplexField(Grid((2, 2), (1.0, 1.0)), np.array([[1, 2j], [3, 4 + 4j]]))
LOCAL_TIME = local_time(TraveltimeField(Grid((3,), (1.0,)), np.zeros(3), np.inf), 1.0)
FIT = fit_vp(synthesize_records(4, 1.3e8))

WRITERS = {
    "write_field_csv": lambda out: write_field_csv(FIELD, out),
    "write_localtime_csv": lambda out: write_localtime_csv(LOCAL_TIME, out),
    "write_fit_json": lambda out: write_fit_json(FIT, out),
}

READERS = {
    "read_field_csv": ("index_axis0,value_re,value_im\n0,1.5,-2\n1,0,3\n",
                       lambda src: read_field_csv(src).values.tolist()),
    "read_records_csv": ("# comment\nvoltage_volts,wavelength_meters\n54,1.67e-10\n",
                         read_records_csv),
}

KINDS = ["str", "Path", "handle"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", WRITERS)
def test_every_writer_takes_a_path_or_a_handle(tmp_path, name, kind):
    write = WRITERS[name]
    expected = io.StringIO()
    write(expected)
    path = tmp_path / "out.txt"
    if kind == "handle":
        with open(path, "w", newline="") as handle:
            write(handle)
            assert not handle.closed
    else:
        write(str(path) if kind == "str" else path)
    assert path.read_text() == expected.getvalue()
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", READERS)
def test_every_reader_takes_a_path_or_a_handle(tmp_path, name, kind):
    text, read = READERS[name]
    path = tmp_path / "in.csv"
    path.write_text(text)
    if kind == "handle":
        with open(path, newline="") as handle:
            got = read(handle)
            assert not handle.closed
    else:
        got = read(str(path) if kind == "str" else path)
    assert got == read(io.StringIO(text))


def _fail_on_second_row(monkeypatch, module):
    """Make module's rows raise at the second row, after one row is written."""
    real = qfront.fields._write_cell_rows

    def write(out, grid, value_cols, rows):
        def failing():
            for i, row in enumerate(rows):
                if i == 1:
                    raise RuntimeError("injected write failure")
                yield row
        real(out, grid, value_cols, failing())

    monkeypatch.setattr(module, "_write_cell_rows", write)


def _fail_in_json(monkeypatch):
    """Make the fit document unserialisable after its first key."""
    monkeypatch.setattr(qfront.fit, "fit_result_to_dict",
                        lambda result: {"n_records": 4, "residuals": object()})


FAILURES = {
    "write_field_csv": lambda mp: _fail_on_second_row(mp, qfront.fields),
    "write_localtime_csv": lambda mp: _fail_on_second_row(mp, qfront.localtime),
    "write_fit_json": _fail_in_json,
}


@pytest.mark.parametrize("existing", [True, False])
@pytest.mark.parametrize("name", WRITERS)
def test_a_failed_path_write_leaves_the_old_file_and_no_temporary(
        tmp_path, monkeypatch, name, existing):
    path = tmp_path / "out.txt"
    if existing:
        path.write_text("old\n")
    FAILURES[name](monkeypatch)
    with pytest.raises((RuntimeError, TypeError)):
        WRITERS[name](path)
    assert list(tmp_path.iterdir()) == ([path] if existing else [])
    if existing:
        assert path.read_text() == "old\n"


@pytest.mark.parametrize("name", WRITERS)
def test_a_failed_handle_write_leaves_the_handle_open(monkeypatch, name):
    FAILURES[name](monkeypatch)
    handle = io.StringIO()
    with pytest.raises((RuntimeError, TypeError)):
        WRITERS[name](handle)
    assert not handle.closed
    assert handle.getvalue()  # the failure came part-way through


def test_a_failed_path_write_names_the_target(tmp_path):
    target = tmp_path / "no_such_dir" / "f.csv"
    with pytest.raises(FileNotFoundError) as info:
        write_field_csv(FIELD, target)
    assert info.value.filename == str(target)


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_a_new_path_file_gets_the_mode_plain_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_field_csv(FIELD, tmp_path / "field.csv")
        open(tmp_path / "plain.csv", "w").close()
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "field.csv").stat().st_mode)
    assert mode == 0o666 & ~umask
    assert mode == stat.S_IMODE((tmp_path / "plain.csv").stat().st_mode)

