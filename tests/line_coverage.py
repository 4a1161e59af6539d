"""Print every line of ``src/exposure_glm`` that a pytest run does not execute.

    python tests/line_coverage.py [pytest args]     # default: the tier-1 suite, ``tests``

A report, not a gate: it prints the lines, then how many of the executable lines ran, and exits with
pytest's status.  Pytest does not collect this file, as its name has no ``test_`` prefix.  It needs only
the standard library: ``sys.settrace`` and ``threading.settrace`` are started before the package is
imported, so that module-level lines count too, and the executable lines of each module are those that
``code.co_lines()`` gives for its code objects.

The tracer sees only its own process.  The lines that run only in the CSV workers that
``cli._render_in_order`` forks always appear, as does ``sys.exit(main())``, which runs only when
``cli.py`` is run as a script; so does any line that the suite runs only in a subprocess.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "exposure_glm"


def executable_lines(path):
    """The line numbers of ``path`` that some instruction of its compiled code belongs to."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(args):
    prefix = str(PACKAGE) + "/"
    ran = {}  # file name -> the set of its lines that ran

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return trace_lines

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    imported = getattr(sys.modules.get("exposure_glm"), "__file__", None)
    if imported is None or not imported.startswith(prefix):
        print(f"line_coverage: exposure_glm was imported from {imported}, not {PACKAGE}", file=sys.stderr)
        return 2
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, text = executable_lines(path), path.read_text(encoding="utf-8").splitlines()
        for line in sorted(lines - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
        total += len(lines)
    print(f"{total - missed} of {total} executable lines of {PACKAGE.relative_to(ROOT)} ran; {missed} did not")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
