#!/usr/bin/env python3
"""Documentation consistency checker (CI `docs` job).

Three checks, all over the repository's own files only:

1. Intra-repo markdown links resolve. Every relative `[text](target)` link
   in a tracked *.md file must point at an existing file or directory
   (anchors are stripped; http/https/mailto links are ignored — CI must not
   depend on the network).

2. Bench names in the docs match the bench targets, both ways. Each
   executable declared in bench/CMakeLists.txt (`ccq_add_bench(<name> ...)`
   or a plain `add_executable(bench_* ...)`) must be mentioned in
   EXPERIMENTS.md, so a new bench cannot land without its experiment-book
   section. And every `bench_<name>` that README.md, DESIGN.md,
   EXPERIMENTS.md or the verify skill names must be declared there, so a
   deleted bench cannot linger in the docs. Tokens followed by a file
   extension (`bench_json.hpp`) or a glob star are not bench names.

3. The manifest schema documented in DESIGN.md §14 matches the keys the
   parser accepts. The key lists in src/harness/manifest.cpp sit between
   `// manifest-keys-begin` / `// manifest-keys-end` markers; the schema
   table in DESIGN.md sits between `<!-- manifest-schema-begin -->` /
   `<!-- manifest-schema-end -->`. A key documented but rejected, or
   accepted but undocumented, fails the build — the schema table cannot
   drift from the parser.

Exit status 0 when clean; 1 with one `file:line: message` diagnostic per
problem otherwise. No dependencies beyond the standard library.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# [text](target) — but not images' URL part differences; images ![alt](t)
# match too, which is what we want. Skips reference-style links (rare here).
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
BENCH_DECL_RE = re.compile(
    r"^\s*(?:ccq_add_bench|add_executable)\s*\(\s*(bench_[A-Za-z0-9_]+)",
    re.MULTILINE,
)
# A bench_<name> token in prose; a following extension or glob star makes
# it a file name or pattern, not a bench target.
BENCH_NAME_RE = re.compile(r"\bbench_[A-Za-z0-9_]+\b(?!\.[A-Za-z]|\*)")
# The docs whose bench names must all be declared targets.
BENCH_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
              ".claude/skills/verify/SKILL.md")
# Fenced code blocks: links inside them are examples, not navigation.
FENCE_RE = re.compile(r"^(```|~~~)")


def tracked_markdown() -> list[Path]:
    try:
        out = subprocess.run(
            ["git", "ls-files", "*.md", "**/*.md"],
            cwd=REPO, capture_output=True, text=True, check=True,
        ).stdout
        # Tracked-but-deleted files still show up in ls-files; skip them.
        files = [REPO / line for line in out.splitlines()
                 if line and (REPO / line).exists()]
    except (OSError, subprocess.CalledProcessError):
        files = [p for p in REPO.rglob("*.md")
                 if ".git" not in p.parts and "build" not in p.parts]
    return sorted(files)


def check_links(md: Path) -> list[str]:
    problems = []
    in_fence = False
    for lineno, line in enumerate(md.read_text(encoding="utf-8").splitlines(),
                                  start=1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(
                    f"{md.relative_to(REPO)}:{lineno}: broken link "
                    f"'{target}' (resolved to {resolved})"
                )
    return problems


def check_bench_coverage() -> list[str]:
    cmake = REPO / "bench" / "CMakeLists.txt"
    book = REPO / "EXPERIMENTS.md"
    problems = []
    if not book.exists():
        return [f"{cmake.relative_to(REPO)}:1: EXPERIMENTS.md is missing"]
    targets = BENCH_DECL_RE.findall(cmake.read_text(encoding="utf-8"))
    if not targets:
        return [f"{cmake.relative_to(REPO)}:1: no bench targets found "
                "(checker regex out of date?)"]
    text = book.read_text(encoding="utf-8")
    for t in sorted(set(targets)):
        if t not in text:
            problems.append(
                f"EXPERIMENTS.md:1: bench target '{t}' (declared in "
                f"bench/CMakeLists.txt) has no experiment-book entry"
            )
    declared = set(targets)
    for doc in BENCH_DOCS:
        path = REPO / doc
        if not path.exists():
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            for name in BENCH_NAME_RE.findall(line):
                if name not in declared:
                    problems.append(
                        f"{doc}:{lineno}: names '{name}', which "
                        f"bench/CMakeLists.txt does not declare")
    return problems


def _between(text: str, begin: str, end: str, where: str) -> tuple[str, int]:
    """Return (slice, start-line) of text between two marker lines."""
    b, e = text.find(begin), text.find(end)
    if b < 0 or e < 0 or e < b:
        raise ValueError(f"{where}: markers '{begin}' / '{end}' not found")
    return text[b + len(begin):e], text[:b].count("\n") + 1


def check_manifest_schema() -> list[str]:
    cpp_path = REPO / "src" / "harness" / "manifest.cpp"
    design_path = REPO / "DESIGN.md"
    try:
        cpp_block, cpp_line = _between(
            cpp_path.read_text(encoding="utf-8"),
            "// manifest-keys-begin", "// manifest-keys-end",
            "src/harness/manifest.cpp")
        md_block, md_line = _between(
            design_path.read_text(encoding="utf-8"),
            "<!-- manifest-schema-begin -->", "<!-- manifest-schema-end -->",
            "DESIGN.md")
    except (OSError, ValueError) as exc:
        return [f"check_docs: manifest-schema check unavailable: {exc}"]
    accepted = set(re.findall(r'"([a-z_]+)"', cpp_block))
    # Schema-table rows document one key per row: | `key` | type | ...
    documented = set(re.findall(r"^\|\s*`([a-z_]+)`", md_block, re.MULTILINE))
    problems = []
    for key in sorted(documented - accepted):
        problems.append(
            f"DESIGN.md:{md_line}: manifest key '{key}' is documented in "
            f"§14 but src/harness/manifest.cpp does not accept it")
    for key in sorted(accepted - documented):
        problems.append(
            f"src/harness/manifest.cpp:{cpp_line}: manifest key '{key}' is "
            f"accepted by the parser but undocumented in DESIGN.md §14")
    return problems


def main() -> int:
    problems = []
    for md in tracked_markdown():
        problems.extend(check_links(md))
    problems.extend(check_bench_coverage())
    problems.extend(check_manifest_schema())
    for p in problems:
        print(p)
    if problems:
        print(f"\ncheck_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("check_docs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
