"""Differential property test: the memoised reachability verdict.

``PartitionManager.connected`` keeps each pair's verdict until the next
mutator and asks again about a site its classifier labelled ``None``.  The
reference here is the rule it replaced, written out: consult the isolation
set and the classifier on every query.  A state machine drives every
mutator and both queries against the two; the classifier of a
``partition_by`` split learns sites while the split is in force (``None``
for a site until then, which also stands for a site left out of every
group), and a query may ask a site about itself.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.net.partitions import PartitionManager

SITES = ["a", "b", "c", "d", "e"]
LABELS = ["x", "y"]
sites = st.sampled_from(SITES)


class Learner:
    """A pure classifier that learns sites mid-split: ``None`` for a site
    until :meth:`learn` gives it its one label."""

    def __init__(self, labels):
        self.labels = dict(labels)

    def __call__(self, site):
        return self.labels.get(site)

    def learn(self, site, label):
        self.labels.setdefault(site, label)


class Reference:
    """Reachability as it was decided before verdicts were memoised."""

    def __init__(self):
        self.isolated = set()
        self.classifier = None

    def connected(self, a, b):
        if a == b or (self.classifier is None and not self.isolated):
            return True
        if a in self.isolated or b in self.isolated:
            return False
        if self.classifier is not None:
            group_a, group_b = self.classifier(a), self.classifier(b)
            if group_a is None or group_b is None or group_a != group_b:
                return False
        return True


class MemoisedVerdicts(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.manager = PartitionManager()
        self.reference = Reference()
        self.learner = None

    @rule(labels=st.dictionaries(sites, st.sampled_from(LABELS)))
    def partition_by(self, labels):
        self.learner = Learner(labels)
        self.manager.partition_by(self.learner)
        self.reference.classifier = self.learner

    @rule(site=sites, label=st.sampled_from(LABELS))
    def learn(self, site, label):
        """A site registered mid-split: no mutator runs."""
        if self.learner is not None:
            self.learner.learn(site, label)

    @rule(site=sites)
    def isolate(self, site):
        self.manager.isolate(site)
        self.reference.isolated.add(site)

    @rule(site=sites)
    def rejoin(self, site):
        self.manager.rejoin(site)
        self.reference.isolated.discard(site)

    @rule()
    def clear_partition(self):
        self.manager.clear_partition()
        self.reference.classifier = self.learner = None

    @rule(a=sites, b=sites)
    def connected(self, a, b):
        assert self.manager.connected(a, b) == self.reference.connected(a, b)

    @rule(site=sites, candidates=st.lists(sites, max_size=6))
    def reachable_from(self, site, candidates):
        expected = [c for c in candidates if self.reference.connected(site, c)]
        assert self.manager.reachable_from(site, candidates) == expected

    @invariant()
    def every_pair_agrees(self):
        for a in SITES:
            for b in SITES:
                assert self.manager.connected(a, b) == \
                    self.reference.connected(a, b), (a, b)

    @invariant()
    def one_verdict_per_pair_at_most(self):
        assert len(self.manager.verdicts) <= len(SITES) * (len(SITES) - 1)


MemoisedVerdicts.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None)
TestMemoisedVerdicts = MemoisedVerdicts.TestCase
