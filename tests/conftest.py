"""Shared fixtures, hypothesis profiles, and the acceptance-criteria and
golden-output reports."""

from hypothesis import settings

# The dense-oracle properties (tests/test_dense_oracle.py) and the CAI
# scan's (tests/test_mrfm.py) run 25 examples each in tier-1;
# ``--hypothesis-profile=oracle-deep`` runs 300.
settings.register_profile("oracle-deep", max_examples=300, deadline=None)
# The command fuzz (tests/test_cli.py) draws cheap sizes in tier-1;
# ``--hypothesis-profile=cli-deep`` draws the full ranges, 1500 examples.
settings.register_profile("cli-deep", deadline=None)

# Populated by tests/test_acceptance.py: number -> (passed, description).
ACCEPTANCE_RESULTS = {}

# Populated by tests/test_golden.py: "case/file" -> None when the bytes
# match, else the largest relative deviation of its numbers.
GOLDEN_RESULTS = {}


def record_acceptance(number: int, description: str, passed: bool,
                      detail: str = ""):
    ACCEPTANCE_RESULTS[number] = (passed, description, detail)
    tag = "PASS" if passed else "FAIL"
    line = f"[{tag}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if GOLDEN_RESULTS:
        terminalreporter.section("golden outputs")
        for name in sorted(GOLDEN_RESULTS):
            dev = GOLDEN_RESULTS[name]
            terminalreporter.write_line(
                f"{name}: " + ("bytes identical" if dev is None
                               else f"max relative deviation {dev:.3g}"))
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        passed, desc, detail = ACCEPTANCE_RESULTS[num]
        tag = "PASS" if passed else "FAIL"
        line = f"[{tag}] criterion {num}: {desc}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
