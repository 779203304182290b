"""The bit contract: every pinned digest, and the configurations it must hold in.

A fresh interpreter per configuration runs this file as a script and prints the
digests as JSON for test_pins_hold; the numpy and scipy CI pins computed them.
"""
import functools
import hashlib
import json
import os
import shlex
import struct
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

import qfront
from qfront.constants import natural_units
from qfront.eikonal import SourceSpec, solve_traveltime
from qfront.fields import Grid, ScalarField, read_field_csv
from qfront.fit import fit_vp, read_records_csv
from qfront.schrodinger import QuantumProblem, gaussian_packet, propagate_classical

README = Path(__file__).resolve().parents[1] / "README.md"

# setting -> (environment variable, value, the CPU feature it needs).  numpy
# reads NPY_DISABLE_CPU_FEATURES by group (X86_V4 and up: AVX-512; X86_V3: AVX2)
# and ignores the old names AVX512F and AVX512_SKX with a hidden ImportWarning.
# scipy.linalg is imported after the 1-D pins, and then every pin runs again.
SETTINGS = {
    "avx512-off": ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR", "X86_V4"),
    "avx2-off": ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR X86_V3", "X86_V3"),
    "Sandybridge": ("OPENBLAS_CORETYPE", "Sandybridge", "AVX"),
    "Zen": ("OPENBLAS_CORETYPE", "Zen", "AVX2"),
    "1-thread": ("OPENBLAS_NUM_THREADS", "1", None),
    "2-threads": ("OPENBLAS_NUM_THREADS", "2", None),
    "scipy.linalg": (None, None, None),
    "default": (None, None, None),
}
# A configuration is settings joined by "+".
CONFIGS = ["default", "avx512-off", "avx2-off", "1-thread", "2-threads", "scipy.linalg"]
CONFIGS += [kernel + other for kernel in ("Sandybridge", "Zen")
            for other in ("", "+avx512-off", "+1-thread", "+2-threads", "+scipy.linalg")]
# The README commands take 2.5 s of CPU on a 2-core Xeon, so their pins run in these only.
README_CONFIGS = ["default", "avx2-off"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def t_p(shape, spacing, sources, speed, ball):
    """The whole sha256 of t_P; speed ("field", seed) is uniform(0.5, 2) by seed."""
    g = Grid(shape, spacing)
    if isinstance(speed, tuple):
        speed = ScalarField(g, np.random.default_rng(speed[1]).uniform(0.5, 2.0, shape))
    tt = solve_traveltime(g, SourceSpec(sources), speed, source_ball_radius=ball)
    return hashlib.sha256(tt.t_P.tobytes()).hexdigest()


def history(shape, seed, width, n_steps):
    """A packet (carrier 10, dt 5e-4) in the unit box, in a zero potential or
    one drawn uniform(-50, 50) from default_rng(seed), in natural units."""
    g = Grid(shape, tuple(1.0 / (n - 1) for n in shape))
    u = np.zeros(shape) if seed is None else np.random.default_rng(seed).uniform(-50, 50, shape)
    prob = QuantumProblem(g, ScalarField(g, u), 1.0, 5e-4, natural_units())
    psi = gaussian_packet(g, (0.5,) * len(shape), width, 10.0)
    return digest(propagate_classical(psi, prob, n_steps).history.tobytes())


def bundled_fit():
    """v_P, both variances and the residuals of the bundled dataset's fit."""
    fit = fit_vp(read_records_csv(Path(qfront.__file__).parent / "data" / "davisson_germer.csv"))
    values = (fit.v_p_fitted, fit.variance_modified, fit.variance_classical, *fit.residuals)
    return digest(struct.pack(f"<{len(values)}d", *values))


def readme_commands() -> list[list[str]]:
    lines = README.read_text().replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("qfront ")]


@functools.cache
def readme_stdouts() -> tuple[str, ...]:
    """What each README command printed, run in order by a fresh interpreter."""
    cli = [sys.executable, "-W", "error", "-m", "qfront.cli"]
    return tuple(subprocess.run([*cli, *argv], stdout=subprocess.PIPE, text=True,
                                check=True).stdout for argv in readme_commands())


def readme(name):
    """A file the README commands write, or their joined stdout."""
    stdout = "".join(readme_stdouts()).encode()
    return digest(stdout if name == "stdout" else Path(name).read_bytes())


# name -> (digest function, its arguments..., digest).  t_P: shape, spacing,
# sources, speed, ball radius (the seed-38 3-D field moves 32 cells if the
# update squares the slowness by a product).  Histories: shape, potential seed,
# packet width, steps.  The fit's digest is also the numpy formula's.
PINS = {
    "t_P 1d": (t_p, (101,), (0.5,), [(30,)], 2.0, None,
               "9d3e913692eb931c60e874ff15c38d694733de9bf6a9b9bd5b15a140f1f640ab"),
    "t_P 1d-field-2src": (t_p, (64,), (0.3,), [(5,), (50,)], ("field", 5), None,
                          "ea7c385a81f69082dbec4ef299565ea957d5e1922b3c2918deb258eb34d08cd1"),
    "t_P 2d": (t_p, (41, 41), (1.0, 1.0), [(20, 20)], 1.0, None,
               "8625a301c438d1a54daf1fa19b148e653d8416c111550c53621526d418482603"),
    "t_P 2d-noball": (t_p, (41, 41), (1.0, 1.0), [(7, 30)], 1.0, 0.0,
                      "c4159002e6857aab6578864654b29388992b0749dba2472bf57ece84f273b684"),
    "t_P 2d-aniso-3src": (t_p, (37, 29), (0.7, 1.3), [(3, 4), (30, 20), (18, 27)], 1.5, None,
                          "1ae3a9af9eadebd6be52037392b1f78fa32dec488f5eba8c5df0d3672203558a"),
    "t_P 2d-aniso-field": (t_p, (33, 27), (1.0, 1.3), [(16, 13)], ("field", 5), None,
                           "b4aaa4ddd7da9f4aa0e58fc1fe8fa0d7dec65a48a487b7e662a9e49fcce60b8d"),
    "t_P 2d-aniso-field-ball": (
        t_p, (33, 27), (1.0, 1.3), [(16, 13), (2, 25)], ("field", 5), 3.0,
        "7cf75b0a1abe77be3f2d1d978ad10c7f96c7ab4b8c496b334928c882042650e5"),
    "t_P 3d-aniso-2src": (t_p, (15, 12, 10), (1.0, 0.8, 1.3), [(2, 3, 4), (12, 9, 1)], 1.0, None,
                          "775f021920e661461b43f45e279977993190527f1ec48ce3f9d29df59fabc8a4"),
    "t_P 3d-field": (t_p, (14, 14, 14), (1.0, 1.0, 1.0), [(7, 7, 7)], ("field", 5), None,
                     "3ff094237700813a96476cf3a69e3b590b98b4fedccc2c16d3f6c4d1d0eaa04d"),
    "t_P 3d-field-ball": (t_p, (18, 18, 18), (1.0, 1.0, 1.0), [(9, 9, 9)], ("field", 38), 2.0,
                          "a2eadcc0af02b670ce10f0805f3569d4beacc701e864c184216ad9b143819b53"),
    "history 1-D free": (history, (257,), None, 0.08, 40, "df144184cec877a4"),
    "history 1-D potential": (history, (257,), 7, 0.08, 40, "11f46c1dfe71cb61"),
    "history 1-D 3-cell": (history, (3,), 7, 0.2, 40, "e98644a7d5a60547"),
    "history 1-D 3-cell free": (history, (3,), None, 0.2, 40, "675c41540df6c7df"),
    "history 1-D 4-cell": (history, (4,), None, 0.2, 40, "217fc3add9338225"),
    "history 1-D 4-cell potential": (history, (4,), 7, 0.2, 40, "0709cfa6e1cff1e6"),
    "history 2-D free": (history, (41, 37), None, 0.1, 40, "767c2f2f2a06728f"),
    "history 2-D potential": (history, (41, 37), 7, 0.1, 40, "38fbe2e9cf95fea4"),
    "history 3-D free": (history, (17, 19, 15), None, 0.1, 40, "faee14b24d0d234e"),
    "history 3-D potential": (history, (17, 19, 15), 7, 0.1, 40, "7d943ab543918110"),
    "history 2-D 128x128": (history, (128, 128), 7, 0.1, 10, "0380193726135ab2"),
    "fit bundled": (bundled_fit, "4e33300268bd895a"),
    "README fit.json": (readme, "fit.json", "f5397c8fdd454f07"),
    "README layers.csv": (readme, "layers.csv", "a703fef4af6222f5"),
    "README lt.csv": (readme, "lt.csv", "36ac6584ee315658"),
    "README records.csv": (readme, "records.csv", "a02b223edd383432"),
    "README run_manifest.json": (readme, "run_manifest.json", "f3a4065073a872a0"),
    "README run_state.csv": (readme, "run_state.csv", "367922f64cce9a78"),
    "README runmod_manifest.json": (readme, "runmod_manifest.json", "567581180b0b10a5"),
    "README runmod_state.csv": (readme, "runmod_state.csv", "10cd2e4be91519a3"),
    "README tt.csv": (readme, "tt.csv", "e8c55b6f04484b53"),
    "README tt1d.csv": (readme, "tt1d.csv", "abf8439e36d486f5"),
    "README stdout": (readme, "stdout", "e5ad956b7f3dd2ee"),
}
# (configuration, pin) -> the other digest it gives, checked as strictly: numpy's
# AVX2 and AVX-512 complex multiply fuses multiply-adds, its baseline loop not.
DIFFERENT = {
    ("avx2-off", "history 2-D free"): "bf3dc75a3eac140d",
    ("avx2-off", "history 2-D potential"): "bdbd10f88da658e0",
    ("avx2-off", "history 3-D free"): "689f439237e7607c",
    ("avx2-off", "history 3-D potential"): "ade24b5cc99999a2",
    ("avx2-off", "history 2-D 128x128"): "20b326c3935c68bd",
}


def expected(config):
    """pin -> digest, for every pin the configuration runs."""
    return {pin: DIFFERENT.get((config, pin), row[-1]) for pin, row in PINS.items()
            if row[0] is not readme or config in README_CONFIGS}


def main(config):
    off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    assert not [f for f in off if __cpu_features__[f]], off
    pins = expected(config)
    first = {p: PINS[p][0](*PINS[p][1:-1]) for p in pins if p.startswith("history 1-D")}
    assert "scipy.linalg" not in sys.modules
    if "scipy.linalg" in config.split("+"):
        import scipy.linalg  # noqa: F401
    digests = {p: PINS[p][0](*PINS[p][1:-1]) for p in pins}
    assert first.items() <= digests.items(), first
    written = [PINS[pin][1] for pin in pins if PINS[pin][0] is readme and pin != "README stdout"]
    assert sorted(os.listdir()) == sorted(written), os.listdir()
    print(json.dumps({"digests": digests,
                      "stdouts": readme_stdouts() if config in README_CONFIGS else []}))


# A configuration's interpreter stops here, before pytest is imported.
if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

import pytest  # noqa: E402

POOL, STARTED = ThreadPoolExecutor(os.cpu_count()), {}  # config -> (directory, future)
MISSING = {config: [need for name in config.split("+")  # features numpy finds off
                    if (need := SETTINGS[name][2]) and not __cpu_features__[need]]
           for config in CONFIGS}


def start(config, tmp_path_factory):
    """(directory, future) of config's interpreter, started once if numpy here
    has its features; conftest.py starts the selected ones with the session."""
    if config not in STARTED and not MISSING[config]:
        env = {k: v for k, v in os.environ.items() if k not in {s[0] for s in SETTINGS.values()}}
        src = str(Path(qfront.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        for var, value, _ in (SETTINGS[name] for name in config.split("+")):
            if var == "NPY_DISABLE_CPU_FEATURES":  # only the groups this CPU has
                value = " ".join(f for f in value.split() if __cpu_features__[f])
            if var:
                env[var] = value
        directory = tmp_path_factory.mktemp(config)
        STARTED[config] = directory, POOL.submit(
            subprocess.run, [sys.executable, "-W", "error", __file__, config], cwd=directory,
            env=env, capture_output=True, text=True, timeout=600)
    return STARTED.get(config)


def result(config, tmp_path_factory):
    if MISSING[config]:
        pytest.skip(f"numpy reports no {' or '.join(MISSING[config])} here")
    directory, future = start(config, tmp_path_factory)
    done = future.result()
    assert done.returncode == 0, done.stderr
    return directory, json.loads(done.stdout)


@pytest.mark.parametrize("config", CONFIGS)
def test_pins_hold(tmp_path_factory, config):
    assert result(config, tmp_path_factory)[1]["digests"] == expected(config)


@pytest.mark.parametrize("config", README_CONFIGS)
def test_readme_numbers_hold(tmp_path_factory, config):
    directory, got = result(config, tmp_path_factory)
    run, modified = (json.loads((directory / f"{prefix}_manifest.json").read_text())
                     for prefix in ("run", "runmod"))
    density = np.abs(read_field_csv(directory / "run_state.csv").values) ** 2
    centroid = np.sum(np.arange(len(density)) * density) / np.sum(density)
    fit = json.loads(got["stdouts"][readme_commands().index(["fit", "--use-bundled"])])
    argv = next(argv for argv in readme_commands() if argv[0] == "propagate")
    text = " ".join(README.read_text().split())
    # The quote, the number it states, half a unit of its last digit, the run's number.
    for quote, stated, tolerance, value in [
            ("a 1 nm box", 1e-9, 0.5e-9,
             (run["grid"]["shape"][0] - 1) * run["grid"]["spacing"][0]),
            ("from 2 to 5.6 angstrom", 2e-10, 0.5e-10,
             float(argv[argv.index("--gaussian-center") + 1])),
            ("to 5.6 angstrom", 5.6e-10, 0.05e-10, centroid * run["grid"]["spacing"][0]),
            ("reads 126 of its 251 states", 126, 0, modified["retained_snapshots"]),
            ("v_P = 1.30e8 m/s", 1.30e8, 0.005e8, fit["v_p_fitted_m_per_s"]),
            ("variance ratio of 2.27", 2.27, 0.005,
             fit["variance_classical_inv_m2"] / fit["variance_modified_inv_m2"])]:
        assert quote in text
        assert abs(value - stated) <= tolerance, (quote, value)


def test_readme_states_the_table():
    def listing(names):
        quoted = [f"`{name}`" for name in names]
        return ", ".join(quoted[:-1]) + " and " + quoted[-1]

    gaps = {config: listing(pin for c, pin in DIFFERENT if c == config) for config, _ in DIFFERENT}
    text = " ".join(README.read_text().split())
    for sentence in [f"The configurations are {listing(CONFIGS)}.",
                     f"The README commands run in {listing(README_CONFIGS)} only.",
                     *(f"With `{c}`, {pins} give other digests" for c, pins in gaps.items())]:
        assert sentence in text
