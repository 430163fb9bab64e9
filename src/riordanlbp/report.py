"""Pass/fail bookkeeping for verification scenarios."""

from __future__ import annotations


class Check:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f"  ({self.detail})" if self.detail and not self.passed else ""
        return f"{status}  {self.name}{suffix}"


class ScenarioReport:
    __slots__ = ("scenario", "checks")

    def __init__(self, scenario: str, checks=()):
        self.scenario = scenario
        self.checks = tuple(checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"scenario {self.scenario}:"]
        out.extend("  " + c.line() for c in self.checks)
        verdict = "ok" if self.passed else "FAILED"
        out.append(f"  -> {sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed ({verdict})")
        return out

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def check_equal(name: str, got, expected) -> Check:
    """Compare sequences or matrices elementwise, reporting the first mismatch."""
    got_list = list(got) if not isinstance(got, (int, str)) else [got]
    exp_list = list(expected) if not isinstance(expected, (int, str)) else [expected]
    if len(got_list) != len(exp_list):
        return Check(name, False, f"length {len(got_list)} != {len(exp_list)}")
    for i, (g, e) in enumerate(zip(got_list, exp_list)):
        if isinstance(g, (list, tuple)) or isinstance(e, (list, tuple)):
            inner = check_equal(f"{name}[{i}]", g, e)
            if not inner.passed:
                return Check(name, False, f"index {i}: {inner.detail or 'mismatch'}")
        elif not g == e:
            return Check(name, False, f"index {i}: {g} != {e}")
    return Check(name, True)
