"""Finding rendering for srbsg-analyze (text and JSON)."""

from __future__ import annotations

import json
import sys


def print_text(new: list[dict], baselined: list[dict], suppressed: list[dict],
               errors: list[str]) -> None:
    for finding in new:
        context = f" [in {finding['context']}]" if finding.get("context") else ""
        print(f"{finding['file']}:{finding['line']}: {finding['check']}: "
              f"{finding['message']}{context}")
        if finding.get("suggestion"):
            print(f"    fix: {finding['suggestion']}")
    for error in errors:
        print(f"srbsg-analyze: warning: {error}", file=sys.stderr)
    summary = (f"srbsg-analyze: {len(new)} new finding(s), "
               f"{len(baselined)} baselined, {len(suppressed)} suppressed")
    print(summary, file=sys.stderr if new else sys.stdout)


def print_json(new: list[dict], baselined: list[dict], suppressed: list[dict],
               errors: list[str]) -> None:
    print(json.dumps({
        "new": new,
        "baselined": baselined,
        "suppressed": suppressed,
        "errors": errors,
    }, indent=2))
