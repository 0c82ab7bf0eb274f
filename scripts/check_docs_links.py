#!/usr/bin/env python
"""Verify intra-repo documentation links and perf-kind coverage.

Two independent checks, both cheap enough for every CI push:

1. **Link check** — every relative markdown link or image in
   ``docs/*.md`` (plus the repo-root ``README.md`` and ``DESIGN.md``)
   must resolve to a file in the repository; fragment links
   (``file.md#anchor``) must also match a heading anchor in the target
   document.  External links (``http(s)://``, ``mailto:``) are not
   fetched.

2. **Perf-kind coverage** — every case kind the perf harness can
   run (``repro.perf.cases.CASE_KINDS``) must be named, as inline
   code, in ``docs/performance.md``.  The perf report is the artifact users
   read speedups from; a kind that shows up there but is documented
   nowhere is how stale docs start.

Usage (the package must be importable, e.g. installed or on
``PYTHONPATH=src``)::

    python scripts/check_docs_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from repro.perf.cases import CASE_KINDS

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
PERF_DOC = DOCS / "performance.md"

#: Markdown inline links/images: ``[text](target)`` / ``![alt](target)``.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
#: Markdown headings, for anchor validation.
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: Inline code spans; links inside them are illustrative, not real.
CODE_SPAN_RE = re.compile(r"`[^`]*`")


def doc_files() -> list[Path]:
    files = sorted(DOCS.glob("*.md"))
    for name in ("README.md", "DESIGN.md"):
        candidate = REPO / name
        if candidate.exists():
            files.append(candidate)
    return files


def heading_anchors(text: str) -> set[str]:
    """GitHub-style anchors: lowercase, punctuation (except dashes and
    underscores) stripped, then every space becomes a dash -- runs of
    spaces are NOT collapsed (``Foo — Bar`` -> ``foo--bar``)."""
    anchors = set()
    for heading in HEADING_RE.findall(text):
        slug = heading.strip().lower()
        slug = re.sub(r"[^\w\s-]", "", slug)
        slug = slug.replace(" ", "-")
        anchors.add(slug)
    return anchors


def check_links() -> list[str]:
    errors = []
    for doc in doc_files():
        text = doc.read_text()
        plain = CODE_SPAN_RE.sub("", text)
        for target in LINK_RE.findall(plain):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    errors.append(f"{doc.relative_to(REPO)}: broken link {target!r}")
                    continue
            else:
                resolved = doc
            if fragment and resolved.suffix == ".md":
                if fragment not in heading_anchors(resolved.read_text()):
                    errors.append(
                        f"{doc.relative_to(REPO)}: link {target!r} points at a "
                        f"missing anchor in {resolved.name}"
                    )
    return errors


def check_perf_kinds() -> list[str]:
    doc = PERF_DOC.read_text()
    return [
        f"the perf harness runs kind {kind!r} but "
        f"docs/performance.md never names it as `{kind}`"
        for kind in CASE_KINDS
        if f"`{kind}`" not in doc
    ]


def main() -> int:
    errors = check_links() + check_perf_kinds()
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return 1
    docs = len(doc_files())
    print(f"docs links ok ({docs} documents); perf kinds documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
