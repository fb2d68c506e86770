"""Content-addressed run keys: spec digest + code fingerprint.

The run store never invents identifiers: a run's primary key is a stable
function of *what was run* —

``run_key = sha256(spec_digest ‖ code_version)``

* ``spec_digest`` is :meth:`repro.api.ScenarioSpec.digest` (hex SHA-256
  of the canonical spec JSON; the seed is part of the spec);
* ``code_version`` is :func:`code_fingerprint` — a digest over the
  ``repro`` package sources, so editing protocol code invalidates cached
  cells instead of silently serving stale results.  The
  ``REPRO_CODE_VERSION`` environment variable overrides it (useful for
  pinning a fingerprint across checkouts that differ only in comments).

Every component is independent of process, platform and hash
randomisation, which is what makes resumable sweeps safe across
interpreter restarts and worker processes.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterable

from ..api.spec import ScenarioSpec

__all__ = ["spec_digest", "code_fingerprint", "run_key", "sweep_digest"]

#: Environment override for the code fingerprint.
CODE_VERSION_ENV = "REPRO_CODE_VERSION"

_FINGERPRINT_CACHE: dict[str, str] = {}


def spec_digest(spec: ScenarioSpec) -> str:
    """Stable content digest of a scenario spec (delegates to the spec)."""

    return spec.digest()


def code_fingerprint() -> str:
    """Digest of the ``repro`` package sources (cached per process).

    Hashes every ``*.py`` file under the installed ``repro`` package, in
    sorted relative-path order, path and contents both.  Two checkouts
    with identical sources fingerprint identically on any machine.
    """

    override = os.environ.get(CODE_VERSION_ENV)
    if override:
        return override
    package_root = Path(__file__).resolve().parent.parent
    cache_key = str(package_root)
    cached = _FINGERPRINT_CACHE.get(cache_key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()
    _FINGERPRINT_CACHE[cache_key] = fingerprint
    return fingerprint


def run_key(spec: ScenarioSpec, *, code_version: str | None = None) -> str:
    """The content-addressed primary key of one run of ``spec``."""

    material = "\n".join(
        (
            spec.digest(),
            code_version if code_version is not None else code_fingerprint(),
        )
    )
    return hashlib.sha256(material.encode("ascii")).hexdigest()


def sweep_digest(specs: Iterable[ScenarioSpec]) -> str:
    """Digest of an expanded sweep: the ordered spec digests, re-hashed.

    Used by :class:`repro.harness.experiments.ExperimentResult` so a JSON
    report names exactly which scenario population produced it — with the
    same digest function the store keys individual runs by.
    """

    digest = hashlib.sha256()
    for spec in specs:
        digest.update(spec.digest().encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()
