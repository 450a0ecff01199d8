"""Natural-language intent to validated configuration, with self-correction.

Pass an intent sentence as the argument (or use the default operator
prompt). The script resolves it with the rule engine, then replays the
same text through a deliberately flaky engine that returns a malformed
message on its first attempt, to show the validate-and-reprompt loop.
"""

import json
import sys

from r2xsim.orchestrator import RuleIntentEngine, correct_loop, rule_intent

DEFAULT = (
    "Robot 2 is carrying high-priority medical supplies. The minimum "
    "quality of communication for each robot has to be guaranteed. The "
    "communication of Robot 2 is much more important than Robot 1. "
    "They have to move very safely."
)


class FlakyEngine:
    """Wraps the rule engine; the first response is missing a section."""

    def __init__(self):
        self.inner = RuleIntentEngine()
        self.calls = 0

    def propose(self, intent_text, context, errors=None):
        self.calls += 1
        if self.calls == 1:
            msg = self.inner.propose(intent_text, context)
            del msg["ra_config"]
            return msg
        return self.inner.propose(intent_text, context, errors)


def main():
    text = sys.argv[1] if len(sys.argv) > 1 else DEFAULT
    ids = (1, 2)
    print(f"intent: {text!r}")
    print()
    print("rule engine message:")
    print(json.dumps(rule_intent(text, ids), indent=2))
    print()

    res = correct_loop(FlakyEngine(), text, {"robot_ids": list(ids)})
    print(f"correction loop: {res.attempts} attempts, fallback={res.fallback}")
    for i, errors in enumerate(res.error_history, 1):
        print(f"  attempt {i} rejected:")
        for e in errors:
            print(f"    {e}")
    cfg = res.config
    print()
    print("resolved configuration:")
    print(f"  planning  objective={cfg.pp.objective} priority={cfg.pp.priority_robot} "
          f"gap={cfg.pp.min_time_gap_at_conflict}")
    print(f"  radio     fairness={cfg.ra.fairness} weights={cfg.ra.priority_weights}")


if __name__ == "__main__":
    main()
