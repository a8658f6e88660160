"""The seven lines of identity_digest.py, computed by its functions and held to
the values pinned here, so that a change meant to keep every output bit for bit
is checked by the suite.

The bits depend on the numpy and scipy builds, on the OpenBLAS each bundles and
on the CPU kernel OpenBLAS picks at run time, so the test runs only where all of
these are the ones the values were pinned on, and is skipped, naming what it
found, elsewhere.  A change of arithmetic pins its new lines here.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest
import scipy

from drlqr.experiment import _OPENBLAS

PINNED_ON = {"numpy": "2.4.6", "scipy": "1.17.1",
             "numpy's OpenBLAS": ("0.3.31.188.0", "SkylakeX"), "scipy's OpenBLAS": ("0.3.30", "SkylakeX")}
DIGESTS = {
    "pencils": "3fe6f285e5c279eda5969cab2ab18d5b0fb4873a7163cc3536c6669dff255820",
    "synthesis": "415b147bbd1198e81127ca32ddae7dae6e6356dfddf90030a492bd95d9c5f737",
    "riccati-chain": "77bc9adc7d4a141aedec201a3e23520770641c9f621b63f036b78078f674fd9c",
    "sweep-paper": "8f7c8ccb7e8c0e9ee25f6146a2cfef2f14a9f9df8d087b30d08802eef7621e8e",
    "mss": "ccd10f2bff7227eefb98a2b83578fa5bb0b87efc34763a1073396ae7ff4a63aa",
    "ce-gain": "8d0e5335a4eac3200fa28621286d01be5e9d16bc58293ed7d998fbb02a56ea32",
    "riccati-stage": "8e945399b41018a26d459c5d3b72053de0af3a138e019ae2bff2a844efe24534",
}


def _openblas(package, pattern, suffix) -> tuple:
    """(version, core) of the OpenBLAS that package bundles, "unknown" where not found."""
    try:
        version = package.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        lib = ctypes.CDLL(glob.glob(os.path.join(os.path.dirname(package.__file__) + ".libs", pattern))[0])
        corename = getattr(lib, f"scipy_openblas_get_corename{suffix}")
    except (TypeError, KeyError, IndexError, OSError, AttributeError):
        return ("unknown", "unknown")
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return (version, corename().decode())


def _builds() -> dict:
    numpy_blas, scipy_blas = (_openblas(*entry) for entry in _OPENBLAS)
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy's OpenBLAS": numpy_blas, "scipy's OpenBLAS": scipy_blas}


def test_outputs_are_the_pinned_bits():
    found = _builds()
    if found != PINNED_ON:
        pytest.skip(f"the digests are pinned on {PINNED_ON}; found {found}")
    import identity_digest as digest  # builds the inputs only when the test runs

    mss = hashlib.sha256()
    pencils, synthesis = digest.synthesis_digests(mss)
    lines = {"pencils": pencils, "synthesis": synthesis, "riccati-chain": digest.riccati_chain_digest(mss),
             "sweep-paper": digest.sweep_paper_digest(), "mss": mss.hexdigest(),
             "ce-gain": digest.ce_gain_digest(), "riccati-stage": digest.riccati_stage_digest()}
    assert lines == DIGESTS
