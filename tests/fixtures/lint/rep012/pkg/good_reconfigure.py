"""REP012 good fixture: tuning changes routed through the sanctioned API."""


def shrink(tree):
    tree.reconfigure(k=2)  # the sanctioned reconfiguration entry point


def rebalance(ensemble, governor):
    ensemble.attach_governor(governor)  # control subsystem owns the tuning decisions


class Scheduler:
    """Not a summary: `k` here is an unrelated tuning knob."""

    def __init__(self, k):
        self.k = k

    def bump(self):
        self.k += 1  # Scheduler doesn't match the swat/node class heuristic


def unrelated_receiver(plan, positions):
    plan.positions = positions  # `plan` doesn't match the receiver heuristic
