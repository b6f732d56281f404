#!/usr/bin/env python3
"""Fail on exports nothing calls.

Every `val NAME` declared in a `lib/**/*.mli` must have its NAME occur
(as a whole word) in some .ml/.mli outside its own module (the .ml/.mli
pair of the same name in the same directory) under lib/, bin/, bench/,
perfbench/ or examples/. Tests do not count as callers: an export only a
test reads is dead code, unless the doc comment just before its `val`
says "Test seam" — the one exemption.

The scan is textual, so a common name (say `create`) always finds a
caller somewhere; it catches the exports with a distinctive name that
nothing names.

    check_exports.py [ROOT]      (default: the current directory)

Prints each offender as `path:line: val NAME` and exits 1 if any."""

import os
import re
import sys

CALLER_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]
VAL = re.compile(r"^[ \t]*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def sources(root):
    for top in CALLER_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if not d.startswith((".", "_"))]
            for f in filenames:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def module_of(path):
    return os.path.splitext(path)[0]


def preceding_doc(text, pos):
    """The (** ... *) comment that ends right before [pos], or ""."""
    head = text[:pos].rstrip()
    if not head.endswith("*)"):
        return ""
    start = head.rfind("(**")
    return head[start:] if start >= 0 else ""


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    files = sorted(sources(root))
    texts = {}
    for path in files:
        with open(path, encoding="utf-8") as f:
            texts[path] = f.read()
    # word -> the modules whose files mention it
    users = {}
    for path, text in texts.items():
        mod = module_of(path)
        for word in set(WORD.findall(text)):
            users.setdefault(word, set()).add(mod)
    offenders = []
    for path, text in texts.items():
        if not (path.endswith(".mli") and os.path.relpath(path, root).startswith("lib" + os.sep)):
            continue
        mod = module_of(path)
        for m in VAL.finditer(text):
            name = m.group(1)
            if users.get(name, set()) - {mod}:
                continue
            if "Test seam" in " ".join(preceding_doc(text, m.start()).split()):
                continue
            line = text.count("\n", 0, m.start()) + 1
            offenders.append(f"{os.path.relpath(path, root)}:{line}: val {name}")
    for o in sorted(offenders):
        print(o)
    if offenders:
        print(f"{len(offenders)} export(s) with no caller outside their module "
              "(delete them, drop them from the .mli, or document a test seam)",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
