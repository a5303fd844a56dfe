#!/usr/bin/env python3
"""Fail when a lib/ module is referenced by no program.

A module counts as used when a file in lib/, bin/, bench/, perfbench/ or
examples/ other than its own .ml/.mli refers to it: as Wrapper.Module
from anywhere, by bare name from a sibling in the same library, or by
bare name from a file that opens the library.  Comments and string
literals are ignored.  Tests do not count, so a module only test/
exercises is reported unless it is listed in ORACLES below.

Usage: python3 scripts/check_lib_refs.py   (from the repository root;
exit 1 and a list of modules when any is unreferenced)
"""

import pathlib
import re
import sys

CHAR_LITERAL = re.compile(r"'(\\(\d{3}|x[0-9a-fA-F]{2}|o[0-7]{3}|.)|[^\\'])'")

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]

# Modules no program calls that stay on purpose: tests check the
# solvers against them.  "Library.Module": reason.  An entry that gains
# a caller (or whose module is gone) fails the check too.
ORACLES = {
    "Wampde.Hb_envelope": "coefficient-space WaMPDE (eq. 19); tests check Envelope against it",
    "Steady.Hb": "frequency-domain harmonic balance; tests check it against Steady.Periodic",
    "Steady.Periodic": "time-domain collocation of forced steady states; the oracle for Steady.Hb",
    "Fourier.Spectrum": "windowed FFT spectrum; tests use it as an independent frequency estimator",
}


def strip_comments_and_strings(src):
    out, i, depth, n = [], 0, 0, len(src)
    while i < n:
        two = src[i : i + 2]
        if two == "(*":
            depth += 1
            i += 2
        elif depth and two == "*)":
            depth -= 1
            i += 2
        elif src[i] == "'" and CHAR_LITERAL.match(src, i):
            i = CHAR_LITERAL.match(src, i).end()
        elif src[i] == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            if not depth:
                out.append('""')
        else:
            if not depth:
                out.append(src[i])
            i += 1
    return "".join(out)


def libraries():
    """(wrapper, directory) for every dune library under lib/."""
    for dune in sorted((ROOT / "lib").rglob("dune")):
        m = re.search(r"\(library\s+\(name\s+([a-z_0-9]+)\)", dune.read_text())
        if m:
            yield m.group(1).capitalize(), dune.parent


def main():
    lib_of = {d: w for w, d in libraries()}
    sources = {}
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*.ml*")):
            if path.suffix in (".ml", ".mli") and "_build" not in path.parts:
                sources[path] = strip_comments_and_strings(path.read_text())
    referenced = {}
    for path in sorted(p for p in sources if p.suffix == ".ml" and p.parent in lib_of):
        wrapper, module = lib_of[path.parent], path.stem.capitalize()
        qualified = re.compile(rf"\b{wrapper}\s*\.\s*{module}\b")
        bare = re.compile(rf"\b{module}\b")
        opens = re.compile(rf"\b(open!?|include)\s+{wrapper}\b")

        def refers(other, text):
            if other.with_suffix("") == path.with_suffix(""):
                return False
            if module == wrapper or other.parent == path.parent or opens.search(text):
                return bool(bare.search(text))
            return bool(qualified.search(text))

        name = module if module == wrapper else f"{wrapper}.{module}"
        referenced[name] = (path.relative_to(ROOT), any(refers(p, t) for p, t in sources.items()))
    failures = [
        f"unreferenced lib module: {name} ({path})"
        for name, (path, used) in referenced.items()
        if not used and name not in ORACLES
    ] + [
        f"stale oracle exemption: {name} ({'has a caller' if name in referenced else 'no such module'})"
        for name in ORACLES
        if referenced.get(name, (None, True))[1]
    ]
    for line in failures:
        print(line)
    if failures:
        print(f"every lib module needs a caller in {', '.join(PROGRAM_DIRS)} "
              "or an ORACLES entry with a reason")
        return 1
    print(f"every lib module has a caller ({len(ORACLES)} oracles exempt)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
