"""Running CLI commands in-process, capturing their output, and recording
the digest of every document they write."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class OpResult:
    """One timed operation: a CLI command or a library call."""

    label: str = ""
    seconds: float = 0.0
    code: int = 0
    stderr: str = ""
    warnings: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    doc_bytes: int = 0
    trials: int = 0


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_digest(doc: dict) -> str:
    """Digest of a document with its own ``parallel`` flags blanked: the
    only bytes the determinism contract lets differ between a serial and a
    ``--parallel`` run of the same command."""
    doc = json.loads(json.dumps(doc))
    if isinstance(doc.get("config"), dict):
        doc["config"]["parallel"] = None
    params = doc.get("manifest", {}).get("resolved_parameters", {})
    if "parallel" in params:
        params["parallel"] = None
    return sha256_hex(json.dumps(doc, sort_keys=True).encode())


def run_cli(cp, argv: list[str], workdir: Path) -> OpResult:
    """Run ``crowdpricer.cli.main(argv)`` in ``workdir``, timing the call and
    capturing stdout, stderr and every warning it raises."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # a fresh CLI process shows each warning once; so do we, per command
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                code = cp.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            seconds = perf_counter() - t0
    finally:
        os.chdir(cwd)
    shown = [warnings.formatwarning(w.message, w.category, w.filename, w.lineno).strip()
             for w in caught]
    return OpResult(seconds=seconds, code=code, stderr=err.getvalue(), warnings=shown)


class DigestStore:
    """sha256 of every document written, keyed by program fingerprint and
    command line, kept in a file so repeats in later runs are compared too.

    A command whose document bytes differ from an earlier run of the same
    command on the same program breaks the determinism contract.
    """

    def __init__(self, path: Path, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        try:
            self.digests = json.loads(path.read_text())
        except (OSError, ValueError):
            self.digests = {}

    def check(self, argv: list[str], digest: str) -> list[str]:
        key = sha256_hex(json.dumps([self.fingerprint, argv]).encode())
        seen = self.digests.setdefault(key, digest)
        if seen != digest:
            return [f"document bytes differ from an earlier run of: {' '.join(argv)}"]
        return []

    def save(self) -> None:
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.digests, sort_keys=True))
        tmp.replace(self.path)


def program_fingerprint(package_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
