"""Re-record the expected outputs the correctness gates compare against.

Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/record.py [paper_idct] [stat_arms_mult16]

Writes ``perfbench/expected.json``. The values are the current
program's outputs; the repo holds no silicon reference, so they pin
behaviour, not accuracy. Re-record only when a change is meant to alter
results, and say so in that change.
"""

import json
import sys

import harness

#: Seeds of the activity operand stream of Fig. 8(c) (``paper_idct``).
ACTIVITY_SEEDS = tuple(range(2017, 2033))


def record_paper_idct():
    import paper_idct

    state = paper_idct.child_setup({})
    by_seed = {}
    for seed in ACTIVITY_SEEDS:
        values = paper_idct.pipeline(state["repro"], state["library"], seed)
        by_seed[str(seed)] = {key: values["ratios"].pop(key)
                              for key in paper_idct.SEEDED_RATIOS}
    return {"common": values, "by_activity_seed": by_seed}


def record_stat_arms():
    import stat_arms_mult16 as arms

    state = arms.child_setup({})
    out = {}
    for size in arms.SIZES:
        campaigns, mcs = arms.pool_specs(size)
        out[size] = {
            "campaigns": [{"spec": spec, "digest": arms.digest(
                state["run_campaign"](state["CampaignSpec"].from_dict(spec),
                                      jobs=1).to_dict())}
                for spec in campaigns],
            "mc": [{"spec": spec, "digest": arms.digest(
                state["run_mc"](state["MCSpec"].from_dict(spec),
                                jobs=1).to_dict())}
                for spec in mcs],
        }
    return out


RECORDERS = {"paper_idct": record_paper_idct,
             "stat_arms_mult16": record_stat_arms}


def main(argv):
    """Re-record the sections named in *argv* (default: all)."""
    sys.path.insert(0, str(harness.SRC))
    try:
        expected = harness.load_expected()
    except FileNotFoundError:
        expected = {}
    for name in argv[1:] or sorted(RECORDERS):
        expected[name] = RECORDERS[name]()
    with open(harness.EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
