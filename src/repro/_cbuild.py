"""Build C sources into shared objects, once per environment.

Both compiled kernels, the one-tick library (:mod:`repro.snn.ckernel`)
and the replay kernel (:mod:`repro.sim.fast_engine.ckernel`), load
through :func:`load_library`, which builds them with
:func:`compile_library`.  Objects are cached under
``$REPRO_CKERNEL_CACHE`` (default: a ``repro-ckernel-<uid>`` directory
in the system temp dir) keyed by a hash of the source, compiler, flags
and Python version, so each environment compiles each kernel once.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Callable, Optional, Sequence, TypeVar

T = TypeVar("T")

#: Compiler flags: IEEE-strict.  ``-ffp-contract=off`` forbids FMA
#: contraction, ``-fno-fast-math`` forbids reassociation — both would
#: break bit-identity with the Python paths the kernels transcribe.
CFLAGS = ["-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off"]


def _find_compiler() -> Optional[str]:
    cc = os.environ.get("CC")
    if cc:
        return shutil.which(cc)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_CKERNEL_CACHE")
    if configured:
        return configured
    return os.path.join(tempfile.gettempdir(),
                        f"repro-ckernel-{os.getuid() if hasattr(os, 'getuid') else 'u'}")


def compile_library(prefix: str, source: str,
                    libs: Sequence[str] = ()) -> Optional[str]:
    """Build ``source`` into the kernel cache; return the ``.so`` path.

    The object is named ``<prefix>_<tag>.so``, with ``tag`` a hash of
    the source, compiler, flags and Python version, so an existing one
    is reused.  Each process compiles its own temporary copy of the
    source and installs the result with an atomic rename, so concurrent
    cold compiles never read a half-written file.  Returns ``None`` when
    there is no compiler or the build fails.
    """
    cc = _find_compiler()
    if cc is None:
        return None
    tag = hashlib.sha256(
        (source + "\0" + cc + "\0" + " ".join(CFLAGS)
         + "\0" + sys.version).encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"{prefix}_{tag}.so")
    if os.path.exists(so_path):
        return so_path
    try:
        os.makedirs(cache, exist_ok=True)
        fd, src_path = tempfile.mkstemp(prefix=f"{prefix}_{tag}.",
                                        suffix=".c", dir=cache)
        tmp_so = src_path[:-2] + ".tmp.so"
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(source)
            proc = subprocess.run(
                [cc, *CFLAGS, src_path, "-o", tmp_so, *libs],
                capture_output=True, timeout=120)
            if proc.returncode != 0:
                return None
            os.replace(tmp_so, so_path)
        finally:
            for path in (src_path, tmp_so):
                if os.path.exists(path):
                    os.unlink(path)
        return so_path
    except (OSError, subprocess.SubprocessError):
        return None


@functools.cache
def load_library(prefix: str, source: str, bind: Callable[[ctypes.CDLL], T],
                 libs: Sequence[str] = ()) -> Optional[T]:
    """The process-wide binding of ``source``, or ``None`` if unavailable.

    The first call builds ``source`` (:func:`compile_library`, cached on
    disk afterwards), loads it and wraps it with ``bind``; every later
    call returns that same object.  Returns ``None`` when
    ``REPRO_NO_CKERNEL=1``, no C compiler is on PATH, or compiling or
    loading fails for any reason.
    """
    if os.environ.get("REPRO_NO_CKERNEL") == "1":
        return None
    so_path = compile_library(prefix, source, libs)
    if so_path is None:
        return None
    try:
        return bind(ctypes.CDLL(so_path))
    except OSError:
        return None
