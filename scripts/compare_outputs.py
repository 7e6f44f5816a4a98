"""Compare two trees written by ``scripts/cli_outputs.py`` number by number.

    python3 scripts/compare_outputs.py OLD NEW

Files that are byte-identical are only counted. Every other pair is split
into numeric tokens and the text between them: the text must match
exactly and the token counts must agree, and for each such file the
largest relative difference |a - b| / max(|a|, |b|) over its numeric
tokens is printed. A pair of numbers both below 1e-12 in magnitude (a
residual column, say) is skipped, since its relative difference carries
no information.

Exit code 0 when the trees differ at most in numeric values, 1 on a file
present in one tree only, a different token count, or different
non-numeric text, 2 on bad usage.
"""

from __future__ import annotations

import pathlib
import re
import sys

NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")
NEGLIGIBLE = 1e-12


def _files(root):
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def compare_text(old, new):
    """(largest relative difference, its pair of numbers, number of numeric
    tokens) of two texts, or a string naming the first structural
    difference."""
    a, b = NUMBER.split(old), NUMBER.split(new)
    if len(a) != len(b):
        return "%d numeric tokens against %d" % (len(a) // 2, len(b) // 2)
    worst, pair = 0.0, (0.0, 0.0)
    for i, (x, y) in enumerate(zip(a, b)):
        if i % 2 == 0:
            if x != y:
                return "text %r against %r" % (x[:60], y[:60])
            continue
        u, v = float(x), float(y)
        scale = max(abs(u), abs(v))
        if scale >= NEGLIGIBLE and abs(u - v) / scale > worst:
            worst, pair = abs(u - v) / scale, (u, v)
    return worst, pair, len(a) // 2


def main(argv):
    if len(argv) != 2:
        print("usage: compare_outputs.py OLD NEW", file=sys.stderr)
        return 2
    old_root, new_root = (pathlib.Path(p) for p in argv)
    old_files, new_files = _files(old_root), _files(new_root)
    status = 0
    for path in sorted(old_files ^ new_files):
        print("%s: only in %s" % (path, old_root if path in old_files else new_root))
        status = 1
    identical = 0
    overall = (0.0, None)
    for path in sorted(old_files & new_files):
        old, new = (old_root / path).read_bytes(), (new_root / path).read_bytes()
        if old == new:
            identical += 1
            continue
        result = compare_text(old.decode(), new.decode())
        if isinstance(result, str):
            print("%s: %s" % (path, result))
            status = 1
            continue
        worst, pair, count = result
        print("%s: max relative difference %.3g over %d numbers (%.17g against %.17g)"
              % (path, worst, count, pair[0], pair[1]))
        if worst > overall[0]:
            overall = (worst, path)
    print("%d file(s) compared, %d byte-identical; largest relative difference %.3g%s"
          % (len(old_files & new_files), identical, overall[0],
             "" if overall[1] is None else " (%s)" % overall[1]))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
