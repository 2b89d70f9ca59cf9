"""Exceptions shared across the package and mapped to CLI exit codes."""

# the most subspaces a sweep, or subspace members a verify sample, may enumerate
DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(Exception):
    """Enumeration refused: the count of ``unit`` is over the configured budget."""

    def __init__(self, count: int, budget: int, detail: str = "", unit: str = "subspaces"):
        self.count = count
        self.budget = budget
        msg = f"enumeration of {count} {unit} exceeds budget {budget}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class HypothesesNotMet(Exception):
    """The closed-form engine refused to run; lists the failing hypotheses."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("closed form unavailable: " + "; ".join(self.failures))
