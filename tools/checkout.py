"""The files of one committed revision, written into a directory of their
own, for the tools that compare a revision with the working tree
(same_bytes.py, bench_pairs.py).

The copy is ``git archive`` of the revision, so it leaves no worktree or
other state in the repository and holds exactly the committed files.
"""

from __future__ import annotations

import io
import subprocess
import tarfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def git(*args, repo: Path = REPO) -> str:
    """The stripped standard output of one git command in ``repo``."""
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def resolve(rev: str, repo: Path = REPO) -> str | None:
    """The full commit id ``rev`` names in ``repo``, or None."""
    try:
        return git("rev-parse", "--verify", f"{rev}^{{commit}}", repo=repo)
    except subprocess.CalledProcessError:
        return None


def export(commit: str, dest: Path, repo: Path = REPO) -> None:
    """Write the files of ``commit`` of ``repo`` into directory ``dest``."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", commit],
                             check=True, capture_output=True).stdout
    # the "data" filter refuses absolute and escaping paths where the
    # running Python has it
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)
