"""CI gate: documentation cross-links must resolve.

Scans markdown files for references to repository paths and fails when a
referenced path does not exist, so ``ARCHITECTURE.md``'s guided tour (and
the README's pointers) cannot silently rot as the tree moves.

Two reference forms are checked:

* markdown links — ``[text](path)`` (external ``http(s)://``/``mailto:``
  targets and in-page ``#anchors`` are skipped; relative targets resolve
  against the *containing file's* directory);
* backtick path spans — every token that ends in a known suffix
  (``PATH_SUFFIXES``), whether or not it contains a ``/``, resolved
  against the repository root, then against the document's own
  directory.  A bare name such as `` `kv.py` `` is therefore read as a
  file at the top of the repository (or beside the document), so cite a
  source file by its repo-root path (`` `src/repro/app/kv.py` ``).
  Tokens starting with ``-``, ``<`` or ``http(s)://``, and tokens holding
  ``*``, ``$`` or ``{`` (globs, placeholders), are skipped.  Spans with
  spaces (shell command lines) are checked token-wise, so a
  copy-pasteable ``python benchmarks/foo.py --flag`` line still has its
  script path checked.

Usage::

    python tools/check_doc_links.py ARCHITECTURE.md README.md docs/*.md
"""

from __future__ import annotations

import os
import re
import sys

#: Suffixes treated as "this backtick span names a repo file".
PATH_SUFFIXES = (".py", ".md", ".json", ".yml", ".yaml", ".toml", ".txt")

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK = re.compile(r"`([^`\n]+)`")


def candidate_paths(text: str):
    """Path-like tokens inside one backtick span."""
    for token in text.split():
        token = token.strip(",;:")
        if not token.endswith(PATH_SUFFIXES):
            continue
        if token.startswith(("-", "<", "http://", "https://")):
            continue
        if "*" in token or "$" in token or "{" in token:
            continue  # globs / placeholders are illustrative, not links
        yield token


def check_file(doc: str, root: str) -> list[str]:
    problems: list[str] = []
    base = os.path.dirname(os.path.abspath(doc))
    with open(doc, encoding="utf-8") as handle:
        text = handle.read()

    for match in MD_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        resolved = os.path.normpath(os.path.join(base, target))
        if not os.path.exists(resolved):
            problems.append(f"{doc}: broken link -> {match.group(1)}")

    for match in BACKTICK.finditer(text):
        for token in candidate_paths(match.group(1)):
            # Backtick paths are repo-root-relative (that is how the
            # docs cite source files); also accept doc-relative.
            if os.path.exists(os.path.join(root, token)):
                continue
            if os.path.exists(os.path.normpath(os.path.join(base, token))):
                continue
            problems.append(f"{doc}: missing path reference -> {token}")
    return problems


def main(argv: list[str] | None = None) -> int:
    docs = (argv if argv is not None else sys.argv[1:])
    if not docs:
        print("usage: check_doc_links.py DOC.md [DOC.md ...]",
              file=sys.stderr)
        return 2
    root = os.getcwd()
    problems: list[str] = []
    for doc in docs:
        if not os.path.exists(doc):
            problems.append(f"{doc}: document itself is missing")
            continue
        problems.extend(check_file(doc, root))
    if problems:
        print("doc link check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"doc link check passed ({len(docs)} file(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
