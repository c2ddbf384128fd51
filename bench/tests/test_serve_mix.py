"""The ``serve`` sequence reproduces the CI serve job's outcome split."""

import sys
from collections import Counter, namedtuple
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from serve_wl import CI_OUTCOMES, build_rounds  # noqa: E402

Request = namedtuple("Request", "benchmark index")


def test_rounds_follow_the_ci_split_and_draw_each_request_once():
    requests = [Request(f"b{i % 40}", i) for i in range(1012)]
    prefill, rounds = build_rounds(7, requests)
    kinds = Counter()
    seen = set()
    for round_ in rounds:
        if round_[0] == "pair":
            kinds["executed"] += 1
            kinds["coalesced"] += 1
            assert round_[1] not in seen
            seen.add(round_[1])
            continue
        for request in round_[1:]:
            if request in seen:
                kinds["cached"] += 1  # a repeat
            elif request in prefill:
                kinds["cached"] += 1  # a disk-cache hit
                seen.add(request)
            else:
                kinds["executed"] += 1
                seen.add(request)
    assert len(seen) >= len(requests) - 1
    total = sum(kinds.values())
    ci_total = sum(CI_OUTCOMES.values())
    for outcome, count in CI_OUTCOMES.items():
        assert abs(kinds[outcome] / total - count / ci_total) < 0.03, (outcome, kinds)
    assert kinds["cached"] > len(prefill) > 0


def test_the_seed_reorders_but_keeps_the_work():
    requests = [Request(f"b{i % 40}", i) for i in range(400)]
    _, first = build_rounds(1, requests)
    _, second = build_rounds(2, requests)
    assert first != second
    drawn = lambda rounds: {r for round_ in rounds for r in round_[1:]}  # noqa: E731
    assert len(drawn(first) ^ drawn(second)) <= 2
