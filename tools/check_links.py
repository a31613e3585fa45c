#!/usr/bin/env python3
"""Markdown link checker for the repo's documentation.

Walks the markdown files (or directories of them) given on the command
line, extracts every inline link and image reference, and verifies that
relative targets resolve to real files. External links (http/https/
mailto) are recorded but not fetched — the checker must work offline —
and pure in-page anchors (``#section``) are validated against the
headings of the containing file. Code references are held to the same
standard: a backticked dotted name under ``repro`` must import (module)
or resolve (attribute), and a backticked path under ``src/``, ``tests/``,
``tools/``, ``perfbench/``, ``examples/`` or ``docs/`` must exist.

Usage::

    python tools/check_links.py README.md DESIGN.md EXPERIMENTS.md docs

Exits non-zero listing every broken link, so it can gate CI.
"""

from __future__ import annotations

import pkgutil
import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

#: Inline links/images: [text](target) or ![alt](target). Titles after
#: the target ("[x](y "title")") are stripped by the target parser.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Reference-style definitions: [label]: target
_REF_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)

#: Fenced code blocks are stripped before link extraction — command
#: examples like ``ls [a](b)`` must not be parsed as links.
_FENCE = re.compile(r"^(```|~~~).*?^\1\s*$", re.MULTILINE | re.DOTALL)

_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")

ROOT = Path(__file__).resolve().parent.parent

#: A backticked span that is nothing but a dotted name under ``repro``
#: (a trailing ``()`` is allowed), or nothing but a repo path, with an
#: optional ``::test`` or ``:line`` suffix. Spans holding anything else —
#: a command line, a glob, a ``<placeholder>`` — are prose, not references.
_DOTTED = re.compile(r"`(repro(?:\.\w+)+)(?:\(\))?`")
_REPO_PATH = re.compile(
    r"`((?:src|tests|tools|perfbench|examples|docs)/[\w./-]*)(?::[\w:.-]+)?`")


def _anchor_of(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading line."""
    text = heading.lstrip("#").strip().lower()
    text = re.sub(r"[`*_~]", "", text)
    text = re.sub(r"[^\w\s-]", "", text)
    return re.sub(r"\s+", "-", text).strip("-")


def _headings(path: Path) -> List[str]:
    out = []
    body = _FENCE.sub("", path.read_text(encoding="utf-8"))
    for line in body.splitlines():
        if line.startswith("#"):
            out.append(_anchor_of(line))
    return out


def _targets(path: Path) -> List[str]:
    body = _FENCE.sub("", path.read_text(encoding="utf-8"))
    found = _LINK.findall(body)
    found.extend(_REF_DEF.findall(body))
    return found


def _resolves(dotted: str) -> bool:
    """Whether *dotted* names an importable module under ``src/`` or an
    attribute reachable from one."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def _code_references(path: Path) -> List[str]:
    """A description of every dangling code reference in *path*."""
    body = _FENCE.sub("", path.read_text(encoding="utf-8"))
    dangling = [f"{path}: no such module or attribute {name}"
                for name in sorted(set(_DOTTED.findall(body)))
                if not _resolves(name)]
    dangling += [f"{path}: no such path {name}"
                 for name in sorted(set(_REPO_PATH.findall(body)))
                 if not (ROOT / name).exists()]
    return dangling


def _expand(args: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for arg in args:
        path = Path(arg)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        elif path.suffix == ".md":
            files.append(path)
        else:
            raise SystemExit(f"not a markdown file or directory: {arg}")
    return files


def check(paths: Iterable[str]) -> Tuple[int, int, List[str]]:
    """Check every link; returns (files, links, broken-descriptions)."""
    files = _expand(paths)
    broken: List[str] = []
    links = 0
    for md in files:
        broken.extend(_code_references(md))
        for target in _targets(md):
            links += 1
            if target.startswith(_EXTERNAL):
                continue
            base, _, fragment = target.partition("#")
            if not base:  # in-page anchor
                if fragment and _anchor_of("# " + fragment) not in _headings(md):
                    broken.append(f"{md}: broken anchor #{fragment}")
                continue
            resolved = (md.parent / base).resolve()
            if not resolved.exists():
                broken.append(f"{md}: missing target {target}")
            elif fragment and resolved.suffix == ".md":
                if fragment not in _headings(resolved):
                    broken.append(f"{md}: {base} has no anchor #{fragment}")
    return len(files), links, broken


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    files, links, broken = check(argv[1:])
    for line in broken:
        print(f"BROKEN  {line}", file=sys.stderr)
    status = "FAIL" if broken else "ok"
    print(f"checked {links} links across {files} markdown files: "
          f"{len(broken)} broken [{status}]")
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
