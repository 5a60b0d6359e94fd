"""Rewrite golden/audits.json from the chooselab sources of this checkout.

    python3 perfbench/regen_golden.py

The audits workload compares each audit's findings and counts with this
copy.  Regenerate it only when a change to the rule tables or audits is
meant to change their output, and review the diff.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.GOLDEN_AUDITS.write_text(
        json.dumps(workloads.audit_outputs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_AUDITS}")
