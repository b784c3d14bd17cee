#!/usr/bin/env python3
"""Count non-test Rust lines per crate.

A file's non-test lines are its lines before the first `#[cfg(test)]`
(all of them when it has none); files under a crate's `tests/`, `benches/`
or `examples/` are not counted. Prints one `crate lines` row per crate
under `crates/` (and the root package as `.`), then the total.

Usage: python3 scripts/nontest_loc.py [repo-root]
"""
import pathlib
import sys


def nontest_lines(path):
    count = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip().startswith("#[cfg(test)]"):
            break
        count += 1
    return count


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    crates = [root] + sorted(p for p in (root / "crates").iterdir() if p.is_dir())
    total = 0
    for crate in crates:
        n = sum(nontest_lines(f) for f in sorted((crate / "src").rglob("*.rs")))
        total += n
        print(f"{crate.relative_to(root).as_posix() or '.'} {n}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
