"""Planted faults for the benchmark's self-check.

Each fault wraps one powerplan function so that it returns a wrong answer
the oracle must catch: ``selection`` returns the worst feasible pair instead
of the argmin, ``roundtrip`` drops the last cell line of a saved profile.
"""

from __future__ import annotations

import functools

from tracer import replace_everywhere

FAULTS = ("selection", "roundtrip")


def install(name: str) -> None:
    import powerplan.cli  # noqa: F401  (loads every module that holds the target)
    from powerplan import core, ingest

    if name == "selection":
        original = core.select_configuration_fast

        @functools.wraps(original)
        def tampered(profile, r, cap):
            sel = original(profile, r, cap)
            cells = [
                (float(profile.time_table[i, j] * r.entries[b]), b, f)
                for i, b in enumerate(profile.batch_sizes)
                for j, f in enumerate(profile.frequencies)
                if profile.power_table[i, j] < cap.p_max
            ]
            tt, b, f = max(cells)
            return core.SelectionResult(b, f, tt, sel.feasible_count, sel.policy_tag, sel.estimated_energy)

    elif name == "roundtrip":
        original = ingest.save_profile

        @functools.wraps(original)
        def tampered(profile):
            text = original(profile)
            return text[: text.rstrip("\n").rfind("\n") + 1]

    else:
        raise ValueError(f"unknown fault {name!r}; choose from {FAULTS}")
    replace_everywhere(original, tampered)
