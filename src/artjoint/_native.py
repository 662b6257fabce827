"""The one compiled library: ``_stepper.c`` (the joint stepper
``dynamics._run`` calls) and ``_csv.c`` (the row writer
``trajectory.export_csv`` calls and the row reader ``trajectory.import_csv``
calls), built together by one ``cc`` run.

The library is built on the first :func:`library` call, never on import,
cached under ``$XDG_CACHE_HOME/artjoint`` (else ``~/.cache/artjoint``),
named by a hash of both sources, the compiler's ``--version`` and the
flags. ``-ffp-contract=off`` keeps the stepper's arithmetic Python's
(``_stepper.c`` says why); the writer does integer arithmetic only, and the
reader's one multiply or divide per cell is exact or correctly rounded
either way. ``-D_GNU_SOURCE`` declares the reader's ``strtod_l`` ahead of
the first header of the one translation unit. With no compiler, or if the
build or load fails, :func:`library` says why, and each caller runs its
Python fallback.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
from pathlib import Path

_SOURCES = (Path(__file__).with_name("_stepper.c"), Path(__file__).with_name("_csv.c"))
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-D_GNU_SOURCE")
# (the library or None, why): None until the first library() loads it.
_loaded: "tuple[ctypes.CDLL | None, str] | None" = None


def library() -> "tuple[ctypes.CDLL | None, str]":
    """``(library, its path)`` or ``(None, why it did not load)``, loaded
    on the first call."""
    global _loaded
    if _loaded is None:
        _loaded = _load()
    return _loaded


def _load() -> "tuple[ctypes.CDLL | None, str]":
    """Find the library in the cache, building it there on a miss, and load
    it: ``(library, its path)``, or ``(None, why not)``.

    The file name carries a hash of the sources, the compiler's
    ``--version`` and the flags, so a build of other source, by another
    compiler or with other flags is never loaded; a build lands under its
    name by ``os.replace``, so a half-written one never is. If the cache
    directory cannot be written, the library is built in a temporary
    directory for this process and removed once loaded.
    """
    import hashlib  # imported here: a process that never loads the library pays nothing
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        return None, "no C compiler (cc) on PATH"
    try:
        version = subprocess.run([cc, "--version"], capture_output=True, check=True, timeout=60).stdout
        source = _source()
        digest = hashlib.sha256(b"\0".join([source, version, " ".join(_CFLAGS).encode()])).hexdigest()
        name = f"_artjoint-{digest[:16]}.so"
        cache = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")) / "artjoint"
        try:
            cache.mkdir(parents=True, exist_ok=True)
            if not (cache / name).exists():
                _build(cc, source, cache / name)
        except OSError:  # an unwritable cache: build for this process only
            with tempfile.TemporaryDirectory(prefix="artjoint-") as tmp:
                path = Path(tmp) / name
                _build(cc, source, path)
                return _bind(path), f"{path}, removed once loaded ({cache} is not writable)"
        return _bind(cache / name), str(cache / name)
    except subprocess.CalledProcessError as exc:  # the first error line, for a one-line reason
        lines = exc.stderr.decode(errors="replace").splitlines() or [f"exit status {exc.returncode}"]
        return None, "cc failed: " + next((line for line in lines if "error" in line), lines[-1]).strip()
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        return None, f"the compiled library did not build or load: {exc}"


def _source() -> bytes:
    """Both sources as one translation unit, each file with its own name
    and line numbers in cc's messages."""
    return b"".join(b'#line 1 "%s"\n' % path.name.encode() + path.read_bytes() for path in _SOURCES)


def _build(cc: str, source: bytes, path: Path) -> None:
    """Compile ``source`` with ``cc`` to ``path``, through a temporary file
    in the same directory that is renamed over ``path`` once complete."""
    import subprocess

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([cc, *_CFLAGS, "-o", tmp, "-x", "c", "-", "-lm"], input=source, capture_output=True, check=True, timeout=120)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(path: Path) -> ctypes.CDLL:
    """Load ``path`` and declare its functions' signatures (an
    ``AttributeError`` where one is missing)."""
    lib = ctypes.CDLL(str(path))
    pointer, long = ctypes.c_void_p, ctypes.c_long
    lib.artjoint_advance.argtypes = (pointer, pointer, pointer, pointer, long, ctypes.c_double, pointer, pointer, pointer)
    lib.artjoint_advance.restype = ctypes.c_double
    lib.artjoint_write_rows.argtypes = (pointer, long, long, long, pointer)
    lib.artjoint_write_rows.restype = long
    lib.artjoint_read_rows.argtypes = (pointer, long, long, ctypes.c_int, pointer, pointer)
    lib.artjoint_read_rows.restype = long
    return lib
