#!/usr/bin/env python3
"""Check that every locald:: function the CLI never links is allowlisted.

Stdlib-only checker, run by CTest (`unreached_code`) so code no command
reaches cannot accumulate. The build compiles the locald_lib, locald_app
and main.cpp sources once more at -O0 with -ffunction-sections and links
them into `locald_reach` with --gc-sections. -O0 matters: at -O2 a function
inlined at every call site also vanishes from the binary and would look
unreached.

The unreached set is the strong text (`T`) `locald::` symbols of the
objects minus the symbols left in the binary, demangled, with parameter
lists dropped (so overloads share one name). It must equal the names in
the allowlist file, one `qualified::name  # reason` per line:

  - an unreached name that is not listed fails (delete it, or list it
    with a reason);
  - a listed name that is no longer unreached fails (the list cannot go
    stale).

Comparing `nm` output needs neither a linker map nor a particular linker.

Usage: unreached.py --binary FILE --allowlist FILE [--nm NM] OBJECT...
Exits 0 when the sets agree, 1 with one line per difference otherwise.
"""

import argparse
import re
import subprocess
import sys

REASONS = ("perfbench", "example", "hook", "oracle", "fixture")
ABI_TAG = re.compile(r"\[abi:[^\]]*\]")
OPERATOR_SYMBOL = re.compile(r"\(\)|\[\]|[-+*/%^&|~!=<>,]+")


def nm_symbols(nm, files, strong_text_only):
    """Demangled defined symbols of `files` (only strong text when asked)."""
    out = subprocess.run(
        [nm, "--defined-only", "--demangle", *files],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    symbols = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3:
            continue  # archive member headers and blank lines
        kind, name = parts[1], parts[2]
        if strong_text_only and kind != "T":
            continue
        symbols.add(name)
    return symbols


def drop_parameters(signature):
    """`ns::f(int) const` -> `ns::f`; keeps `operator()`, `operator<` and
    template arguments intact."""
    name = ABI_TAG.sub("", signature)
    depth, i = 0, 0
    while i < len(name):
        if name.startswith("operator", i) and (i == 0 or name[i - 1] == ":"):
            i += len("operator")
            symbol = OPERATOR_SYMBOL.match(name, i)
            i = symbol.end() if symbol else i
            continue
        c = name[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            return name[:i]
        i += 1
    return name


def read_allowlist(path):
    entries, errors = {}, []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = (s.strip() for s in line.partition("#"))
            if reason not in REASONS:
                errors.append(
                    f"{path}:{lineno}: `{name}` needs a reason from "
                    f"{', '.join(REASONS)}"
                )
            if name in entries:
                errors.append(f"{path}:{lineno}: `{name}` listed twice")
            entries[name] = reason
    return entries, errors


def main():
    parser = argparse.ArgumentParser(
        description="check unreached locald:: functions against an allowlist"
    )
    parser.add_argument("--binary", required=True, help="the -O0 gc-sections link")
    parser.add_argument("--allowlist", required=True, help="qualified::name  # reason")
    parser.add_argument("--nm", default="nm", help="nm program to run")
    parser.add_argument("objects", nargs="+", help="the binary's object files")
    args = parser.parse_args()

    defined = {
        s
        for s in nm_symbols(args.nm, args.objects, strong_text_only=True)
        if s.startswith("locald::")
    }
    linked = nm_symbols(args.nm, [args.binary], strong_text_only=False)
    unreached = {drop_parameters(s) for s in defined - linked}

    allowed, errors = read_allowlist(args.allowlist)
    for name in sorted(unreached - allowed.keys()):
        errors.append(f"unreached and not allowlisted: {name}")
    for name in sorted(allowed.keys() - unreached):
        errors.append(f"allowlisted but reached (or gone): {name}")
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        print(
            f"unreached: clean ({len(unreached)} allowlisted of "
            f"{len({drop_parameters(s) for s in defined})} locald:: names)"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
