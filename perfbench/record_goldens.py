"""Record the answer of every call the benchmark can make into goldens.json.

    python3 perfbench/record_goldens.py

Run once at the commit whose answers are the reference; the benchmark then
fails any call whose answer differs.  Recording takes a few minutes.
"""

import json
import sys

from run import GOLDENS, git_revision, import_asnum, prepare_env

# the README's survey tally, kept beside the workload goldens as an anchor
README_TALLY = ("distribution", (3, 17, 10000, 1))


def main() -> int:
    prepare_env()
    import_asnum()
    import workloads as w

    answers = {}
    for workload in w.WORKLOADS.values():
        calls = workload.golden_calls()
        for i, call in enumerate(calls):
            answers[w.call_key(call)] = w.answer(call, w.run(call))
            if i % 100 == 0:
                print(f"{workload.name}: {i}/{len(calls)}", file=sys.stderr, flush=True)
    answers[w.call_key(README_TALLY)] = w.answer(README_TALLY, w.run(README_TALLY))
    doc = {"recorded_at": git_revision(), "answers": answers}
    GOLDENS.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(answers)} answers to {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
