#!/usr/bin/env python3
"""Fail when a value a lib/ interface exports is called by no program.

Every `val` in a lib/**/*.mli (including those in `module X : sig ... end`
submodules) must be referenced from a file in lib/, bin/, bench/,
perfbench/ or examples/ other than its own module's .ml/.mli.  A
reference is

- qualified, `Module.value`, where the module path is written as
  Wrapper.Module from anywhere, as a bare sibling name inside the same
  library or in a file that opens the library, or through a
  `module Alias = Path` in the referring file (`Obs.Metrics.incr` after
  `module Obs = Wampde_obs`);
- bare, `value`, after `open Module` / `open! Module` (to the end of the
  file) or inside the body of a `let open Module in` (to the next
  top-level item);
- through an `include` re-export: `Dae.make` counts for `System.make`
  because dae.ml does `include System`.

Comments and string literals are ignored.  Tests do not count, so a value
only test/ exercises is reported unless EXEMPT below lists it, or its
module, with a reason.  An exemption whose name is gone, or that gains a
caller, fails the check too.

Usage: python3 scripts/check_lib_refs.py   (from the repository root;
exit 1 and a list of values when any is unreferenced)
"""

import pathlib
import re
import sys

CHAR_LITERAL = re.compile(r"'(\\(\d{3}|x[0-9a-fA-F]{2}|o[0-7]{3}|.)|[^\\'])'")
UIDENT = r"[A-Z][A-Za-z0-9_']*"
LIDENT = r"[a-z_][A-Za-z0-9_']*"
MODPATH = rf"{UIDENT}(?:\s*\.\s*{UIDENT})*"

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]

# Values no program calls that stay on purpose: oracles the tests check
# program-path solvers against, and hooks the tests use to isolate or
# inspect process-global state.  Keys are "Library.Module" (every value
# of the module) or "Library.Module.value"; each reason names the test
# and what it checks.
EXEMPT = {
    # oracles
    "Wampde.Hb_envelope": "coefficient-space WaMPDE (eq. 19); test_apps checks Envelope's "
    "omega(t2) against it",
    "Steady.Hb": "frequency-domain harmonic balance; test_hb checks it against "
    "Mpde.periodic_initial's time-domain collocation on a cubic RC",
    "Fourier.Spectrum": "windowed FFT spectrum; test_circuit and test_transient use it as "
    "an independent frequency estimator",
    "Fourier.Fft.dft": "O(n^2) DFT; test_fourier checks the radix-2 and Bluestein FFT "
    "against it",
    "Fourier.Series.truncation_error": "direct definition; test_health checks "
    "harmonics_needed's suffix-sum scan against it",
    "Nonlin.Fdjac.jacobian_central": "central differences; test_circuit, test_semidisc, "
    "test_apps and test_par check analytic and parallel Jacobians against them",
    "Nonlin.Fdjac.directional": "FD Jacobian-vector product; test_structured checks the "
    "structured operator's products against it",
    "Steady.Shooting.autonomous": "single shooting; test_steady checks Oscillator's "
    "collocation period against it",
    "Linalg.Poly.from_roots": "polynomial from its roots; test_extras checks Poly.roots "
    "(the Floquet eigenvalue path) by rebuilding the polynomial",
    "Wampde.Quasiperiodic.eval_waveform": "univariate recovery (eq. 17); test_wampde checks "
    "Quasiperiodic.solve's amplitude and cycle count against the settled envelope with it",
    # test isolation and inspection hooks
    "Wampde_obs.Metrics.with_isolated": "test_obs, test_health, test_serve and the other "
    "metrics-reading suites keep the process-global registry from leaking across cases",
    "Wampde_obs.Health.set_thresholds": "test_health lowers the monitor thresholds to trip "
    "each monitor and restores the defaults afterwards",
    "Wampde_obs.Health.default_thresholds": "test_health restores them after each case",
    "Fault.with_armed": "test_fault, test_checkpoint, test_globalize and test_serve arm a "
    "schedule for one case and restore the ambient one",
    "Fault.disarm": "test_fault, test_checkpoint and test_serve drop a schedule they armed "
    "mid-run",
    "Fault.injected": "test_fault and test_globalize check how many faults a schedule fired",
    "Linalg.Structured.Precond_cache.enabled": "test_serve checks a serve session leaves "
    "the cache disabled, so later runs stay uncached",
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
            if not depth or src[i] == "\n":
                out.append(src[i])
            i += 1
    return "".join(out)


def libraries():
    """(wrapper, directory) for every dune library under lib/."""
    for dune in sorted((ROOT / "lib").rglob("dune")):
        m = re.search(r"\(library\s+\(name\s+([a-z_0-9]+)\)", dune.read_text())
        if m:
            yield m.group(1).capitalize(), dune.parent


def canonical(wrapper, module):
    """Module path of a library module as seen from outside its library."""
    return (wrapper,) if module == wrapper else (wrapper, module)


def exports(text):
    """(submodule path, value, line) for every val of an interface."""
    frames, line_of = [], lambda pos: text.count("\n", 0, pos) + 1
    token = re.compile(
        rf"\bmodule\s+type\s+{UIDENT}\s*=\s*sig\b|\bmodule\s+({UIDENT})\s*:\s*sig\b"
        rf"|\b(sig|object)\b|\bend\b|\bval\s+({LIDENT})"
    )
    for m in token.finditer(text):
        if m.group(0).startswith("module"):
            frames.append(m.group(1))  # None: a signature, not a module
        elif m.group(2):
            frames.append(None)
        elif m.group(0) == "end":
            frames.pop()
        elif all(frames):
            yield tuple(frames), m.group(3), line_of(m.start())


def item_end(text, pos):
    """Offset of the next top-level item after pos (approximates the
    scope of a `let open ... in`)."""
    m = re.compile(r"\n(let|and|module|type|open|exception)\b").search(text, pos)
    return m.start() if m else len(text)


def main():
    lib_of = {d: w for w, d in libraries()}
    sources = {}
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*.ml*")):
            if path.suffix in (".ml", ".mli") and "_build" not in path.parts:
                sources[path] = strip_comments_and_strings(path.read_text())

    # every exported value, keyed by its full dotted name
    exported, owner, members = {}, {}, {w: set() for w in lib_of.values()}
    for path in sorted(p for p in sources if p.parent in lib_of):
        wrapper, module = lib_of[path.parent], path.stem.capitalize()
        members[wrapper].add(module)
        owner[path.with_suffix("")] = canonical(wrapper, module)
        if path.suffix == ".mli":
            for sub, value, line in exports(sources[path]):
                key = ".".join(canonical(wrapper, module) + sub + (value,))
                exported[key] = f"{path.relative_to(ROOT)}:{line}"

    # `include M` in a library module re-exports M's values under its name
    includes = {}
    for path, text in sources.items():
        if path.suffix == ".ml" and path.parent in lib_of:
            for m in re.finditer(rf"^include\s+({UIDENT})\s*$", text, re.M):
                includes.setdefault(owner[path.with_suffix("")], []).append(
                    canonical(lib_of[path.parent], m.group(1)))

    used = {}

    def mark(module, value, path):
        for target in [module] + includes.get(module, []):
            key = ".".join(target + (value,))
            if key in exported and owner.get(path.with_suffix("")) != target:
                used.setdefault(key, path)

    for path, text in sources.items():
        # bare module names in scope: the file's siblings and the
        # modules of every library it opens
        libs = [m.group(1) for m in re.finditer(rf"\bopen!?\s+({UIDENT})\s*$", text, re.M)]
        libs += [lib_of[path.parent]] if path.parent in lib_of else []
        scope = {mod: canonical(w, mod) for w in libs if w in members for mod in members[w]}
        aliases = {}

        def resolve(dotted):
            head, *rest = [p.strip() for p in dotted.split(".")]
            if head in aliases:
                return aliases[head] + tuple(rest)
            if head in scope:
                return scope[head] + tuple(rest)
            if head in members:
                if rest and rest[0] in members[head]:
                    return canonical(head, rest[0]) + tuple(rest[1:])
                return (head, *rest)
            return None

        for m in re.finditer(rf"\bmodule\s+({UIDENT})\s*=\s*({MODPATH})\b(?!\s*\()", text):
            target = resolve(m.group(2))
            if target:
                aliases[m.group(1)] = target
        for m in re.finditer(rf"(?<![\w'.])({MODPATH})\s*\.\s*({LIDENT})", text):
            target = resolve(m.group(1))
            if target:
                mark(target, m.group(2), path)
        scopes = [(resolve(m.group(1)), m.end(), len(text))
                  for m in re.finditer(rf"^open!?\s+({MODPATH})\s*$", text, re.M)]
        scopes += [(resolve(m.group(1)), m.end(), item_end(text, m.end()))
                   for m in re.finditer(rf"\blet\s+open!?\s+({MODPATH})\s+in\b", text)]
        for target, start, stop in scopes:
            if target:
                for m in re.finditer(rf"(?<![\w'.~?])({LIDENT})", text[start:stop]):
                    mark(target, m.group(1), path)

    failures = [
        f"unreferenced lib value: {key} ({where})"
        for key, where in sorted(exported.items())
        if key not in used and key not in EXEMPT
        and not any(key.startswith(e + ".") for e in EXEMPT)
    ]
    for name in EXEMPT:
        covered = [k for k in exported if k == name or k.startswith(name + ".")]
        callers = sorted({str(used[k].relative_to(ROOT)) for k in covered if k in used})
        if not covered:
            failures.append(f"stale exemption: {name} (no such module or value)")
        elif callers:
            failures.append(f"stale exemption: {name} (has a caller: {', '.join(callers)})")
    for line in failures:
        print(line)
    if failures:
        print(f"every exported lib value needs a caller in {', '.join(PROGRAM_DIRS)} "
              "or an EXEMPT entry with a reason")
        return 1
    print(f"every exported lib value has a caller ({len(exported)} values, "
          f"{len(EXEMPT)} exemptions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
