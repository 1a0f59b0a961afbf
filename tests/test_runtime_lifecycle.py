"""Model-based tests of the sharded service's request-lifecycle core.

:class:`~repro.runtime.lifecycle.LifecycleCore` is I/O-free, so a
``hypothesis`` :class:`RuleBasedStateMachine` can drive it with fake
workers (one FIFO of messages per shard) through generated
interleavings of submits, results, late duplicates, worker errors,
reaps, redeliveries, hot-swaps, cancels and stops — no processes, no
threads.  There is no dispatch rule: the core dispatches inside every
event that queues a task or frees a credit.  After every step the
machine checks the core's invariants against its own model of what
should be in flight.

Tier-1 runs the active hypothesis profile (the default one); the
nightly CI job reruns this module with ``--hypothesis-profile=nightly``
(registered in ``tests/conftest.py``) for many more and longer runs.
"""

from __future__ import annotations

from collections import Counter, deque

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.runtime.lifecycle import SHARD_CREDITS, LifecycleCore, ServiceError
from repro.runtime.registry import REQUEST_CLASSES

NAMES = ("a", "b")
TIMEOUT = 5.0
KEY = ("a", 1)
STANDARD = REQUEST_CLASSES["standard"]
#: Chunks of a 256-frame request at the served batch size of 16.
LARGE = 16


def _chunk(seq: int, size: int) -> dict:
    """A worker's result payload for one batch."""
    return {"seq": seq, "size": size, "seconds": 0.001, "stages": {}}


def _pool(shards: int = 1, restarts: int = 0, key=KEY):
    core = LifecycleCore(restarts)
    pool = [core.add_shard({key}, now=0.0) for _ in range(shards)]
    for shard in pool:
        assert core.ready(shard.shard_id, now=0.0).sends == []
    return core, pool


def _batches(fx):
    """(shard id, seq) of every batch ``fx`` sends, in order."""
    return [(sid, m[1]) for sid, m in fx.sends if m[0] == "batch"]


def _finish(core, sid, seq, now=1.0):
    return core.finish(sid, seq, _chunk(seq, 1), now)


class TestCoreEvents:
    def test_redelivered_copy_of_a_finished_seq_is_not_sent(self):
        """Redeliver while the credits are taken, then the original
        result arrives, then a credit frees: the queued copy belongs to
        a closed seq and must not reach a worker (after
        drain-and-replace it would hit an unloaded version)."""
        core, (shard,) = _pool()
        sid = shard.shard_id
        first, _ = core.submit(KEY, STANDARD, [[0, 0]], None, now=0.0)
        later = [
            core.submit(KEY, STANDARD, [[0]], None, now=10.0)[0]
            for _ in range(SHARD_CREDITS)
        ]
        # only seq 0 is overdue; its freed credit goes to the request
        # queued before the copy
        fx = core.redeliver(now=10.0, timeout=5.0)
        assert core.faults["redelivered_tasks"] == 1
        assert _batches(fx) == [(sid, later[-1].seqs[0])]
        fx = core.finish(sid, 0, _chunk(0, 2), now=11.0)
        assert fx.done == [first] and fx.sends == []
        for request in later:
            fx = _finish(core, sid, request.seqs[0], now=12.0)
            assert fx.done == [request] and fx.sends == []
        assert shard.inflight == {} and core.open_seqs == {}
        assert core._pending == []
        assert core.sent_batches == 1 + SHARD_CREDITS

    def test_reap_requeues_only_open_seqs(self):
        core, (shard,) = _pool(restarts=1)
        kept, _ = core.submit(KEY, STANDARD, [[0]], None, now=0.0)
        dropped, _ = core.submit(KEY, STANDARD, [[0]], None, now=0.0)
        assert sorted(shard.inflight) == [kept.seqs[0], dropped.seqs[0]]
        assert core.cancel(dropped).failed == [
            (dropped, "request cancelled by the caller")
        ]
        assert core.cancel(dropped) is None
        respawn, fx = core.reap(shard.shard_id, now=1.0)
        assert respawn and fx.sends == []  # budget allows one; no shard yet
        replacement = core.add_shard({KEY}, now=1.0)
        fx = core.ready(replacement.shard_id, now=1.0)
        assert _batches(fx) == [(replacement.shard_id, kept.seqs[0])]
        assert core._pending == []
        assert core.fault_stats()["dead_reaps"] == 1

    def test_worker_error_fails_the_whole_request(self):
        core, (shard,) = _pool()
        request, fx = core.submit(KEY, STANDARD, [[0], [0]], None, 0.0)
        first = _batches(fx)[0][1]
        fx = core.fail_seq(shard.shard_id, first, "boom", now=0.0)
        assert fx.failed == [
            (request, "worker failed processing batch: boom")
        ]
        # the second chunk's late result only releases its shard
        assert _finish(core, shard.shard_id, first + 1).done == []
        assert shard.inflight == {}

    def test_version_retires_only_when_drained(self):
        core, (shard,) = _pool(key=("a", 1))
        request, fx = core.submit(("a", 1), STANDARD, [[0]], None, now=0.0)
        (_, seq), = _batches(fx)
        assert core.load(("a", 2), ("payload",)).sends == [
            (shard.shard_id, ("load", ("a", 2), "payload"))
        ]
        assert core.load_pending(("a", 2)) == [shard.shard_id]
        core.loaded(shard.shard_id, ("a", 2), None)
        assert core.load_pending(("a", 2)) == []
        assert core.retire_when_drained(("a", 1)).retired == []
        with pytest.raises(ValueError, match="in-flight requests"):
            core.unload(("a", 1))
        fx = _finish(core, shard.shard_id, seq)
        assert fx.done == [request]
        assert fx.retired == [("a", 1)]
        assert fx.sends == [(shard.shard_id, ("unload", ("a", 1)))]

    def test_injection_targets_and_counts(self):
        core, (shard,) = _pool()
        target, fx = core.inject("crash", None)
        assert fx.sends == [(shard.shard_id, ("crash",))]
        assert core.shards[target].faulted
        target, fx = core.inject("slow down", shard.shard_id, 0.5)
        assert fx.sends == [(target, ("slow", 0.5))]
        with pytest.raises(ServiceError, match="no shard 9"):
            core.inject("hang", 9)
        core.stop(now=0.0)
        with pytest.raises(ServiceError, match="no live shard"):
            core.inject("hang", None)
        assert core.fault_stats()["injected_crashes"] == 1


class TestCredits:
    def test_chunks_go_to_the_shard_with_the_most_free_credits(self):
        """Ties go to the lowest id, so a burst alternates over the
        shards until every credit is taken; the rest wait in the
        core's queue and move as credits come back."""
        core, shards = _pool(shards=2)
        request, fx = core.submit(
            KEY, STANDARD, [[0]] * (2 * SHARD_CREDITS + 1), None, now=0.0
        )
        assert [sid for sid, _ in _batches(fx)] == [0, 1] * SHARD_CREDITS
        assert [len(s.inflight) for s in shards] == [SHARD_CREDITS] * 2
        fx = _finish(core, 1, _batches(fx)[1][1])
        assert _batches(fx) == [(1, request.seqs[-1])]

    def test_interactive_chunk_takes_the_next_free_credit(self):
        """An interactive chunk queued behind batch-class chunks is the
        next one sent when a credit frees."""
        core, (shard,) = _pool()
        bulk, fx = core.submit(
            KEY, REQUEST_CLASSES["batch"], [[0]] * (SHARD_CREDITS + 3),
            None, now=0.0,
        )
        assert len(fx.sends) == SHARD_CREDITS
        urgent, fx = core.submit(
            KEY, REQUEST_CLASSES["interactive"], [[0]], None, now=1.0
        )
        assert fx.sends == []
        fx = _finish(core, shard.shard_id, bulk.seqs[0], now=3.0)
        assert _batches(fx) == [(shard.shard_id, urgent.seqs[0])]
        assert list(core.class_waits["interactive"]) == [2.0]

    @pytest.mark.parametrize("finished", range(2 * SHARD_CREDITS))
    def test_small_request_overtakes_a_large_requests_queued_tail(
        self, finished
    ):
        """Head-of-line delay: once a 256-frame request's chunks hold
        every credit, the next dispatch after any finish is a later
        1-frame request's chunk, not the large request's next one."""
        core, _ = _pool(shards=2)
        large, fx = core.submit(KEY, STANDARD, [[0]] * LARGE, None, 0.0)
        inflight = _batches(fx)
        assert len(inflight) == 2 * SHARD_CREDITS
        small, fx = core.submit(KEY, STANDARD, [[0]], None, now=0.5)
        assert fx.sends == []
        sid, seq = inflight[finished]
        fx = _finish(core, sid, seq)
        assert _batches(fx) == [(sid, small.seqs[0])]
        # the large request's tail then resumes in order
        fx = _finish(core, sid, small.seqs[0])
        assert fx.done == [small]
        assert _batches(fx) == [(sid, large.seqs[2 * SHARD_CREDITS])]

    def test_stop_hands_every_queued_task_to_the_live_shards(self):
        """stop() sends the whole queue, credits aside, before the stop
        broadcast, so every accepted request can still complete."""
        core, shards = _pool(shards=2)
        waiting = core.add_shard({KEY}, now=0.0)  # never ready
        request, _ = core.submit(
            KEY, STANDARD, [[0]] * (2 * SHARD_CREDITS + 3), None, now=0.0
        )
        fx = core.stop(now=1.0)
        handed = _batches(fx)
        assert sorted(seq for _, seq in handed) == list(
            request.seqs[2 * SHARD_CREDITS:]
        )
        assert {sid for sid, _ in handed} == {0, 1}
        assert fx.sends[len(handed):] == [
            (sid, ("stop",)) for sid in (0, 1, waiting.shard_id)
        ]
        done = []
        for shard in shards:
            for seq in sorted(shard.inflight):
                fx = _finish(core, shard.shard_id, seq, now=2.0)
                assert fx.sends == []
                done += fx.done
        assert done == [request] and core.open_seqs == {}


class LifecycleMachine(RuleBasedStateMachine):
    """Fake workers around one core; see the module docstring."""

    def __init__(self):
        super().__init__()
        self.core = LifecycleCore(max_restarts=3)
        self.now = 0.0
        self.serving = {name: 1 for name in NAMES}
        self.models = {(name, 1) for name in NAMES}  # the service's set
        self.loading = {}  # name -> key of an unpromoted version
        self.retired = set()
        self.fifos = {}  # shard id -> messages the worker has not read
        self.held = {}  # shard id -> versions the worker holds
        self.owed = {}  # shard id -> seqs the core must count in flight
        self.requests = []
        self.outcome = {}  # request -> "done" / "failed"
        self.finalized = Counter()  # seq -> chunk results accepted
        self.reaps = self.hangs = self.redelivered = self.drops = 0
        self.injected = Counter()
        self._start_pool()

    # -- helpers ----------------------------------------------------------
    def _start_pool(self):
        for _ in range(2):
            self._apply(self.core.ready(self._spawn(), self.now))

    def _spawn(self):
        shard = self.core.add_shard(set(self.models), self.now)
        self.fifos[shard.shard_id] = deque()
        self.held[shard.shard_id] = set(self.models)
        self.owed[shard.shard_id] = set()
        return shard.shard_id

    def _apply(self, fx):
        """Carry out an event's effects.  Whatever a shard holds in
        flight beyond what it owes is an armed descriptor drop: the
        batch never reached the worker, yet its shard owes it until
        redelivery or a reap."""
        for sid, message in fx.sends:
            if message[0] == "batch":
                seq, key = message[1], message[2]
                assert seq in self.core.open_seqs  # never a stale copy
                # one version per request
                assert key == self.core.open_seqs[seq].key
                self.owed[sid].add(seq)
            self.fifos[sid].append(message)
        for request, _ in fx.failed:
            assert request not in self.outcome
            self.outcome[request] = "failed"
        for request in fx.done:
            assert request not in self.outcome
            self.outcome[request] = "done"
            # chunks reassemble in submission order
            assert [c["seq"] for c in request.chunks] == list(request.seqs)
        for key in fx.retired:
            assert key != (key[0], self.serving[key[0]])
            assert self.core.versions[key].open == 0
            assert not any(
                r.key == key and r not in self.outcome
                for r in self.requests
            )
            self.retired.add(key)
            self.models.discard(key)
        for sid, shard in self.core.shards.items():
            dropped = set(shard.inflight) - self.owed[sid]
            # never on a shard whose injected fault will reap it
            assert not (dropped and shard.faulted)
            self.drops += len(dropped)
            self.owed[sid] |= dropped

    def _busy(self):
        return [sid for sid, fifo in self.fifos.items() if fifo]

    def _deliver(self, sid, fail=False):
        message = self.fifos[sid].popleft()
        kind = message[0]
        if kind == "batch":
            seq, key, batch = message[1:]
            # a sent batch's version is always loaded on its worker
            assert key in self.held[sid]
            self.owed[sid].discard(seq)
            request = self.core.open_seqs.get(seq)
            before = request.remaining if request is not None else None
            if fail:
                fx = self.core.fail_seq(sid, seq, "boom", self.now)
            else:
                fx = self.core.finish(
                    sid, seq, _chunk(seq, len(batch)), self.now
                )
                if request is not None and request.remaining < before:
                    self.finalized[seq] += 1
            self._apply(fx)
        elif kind == "load":
            key = message[1]
            if fail:
                self.core.loaded(sid, key, "cannot build")
            else:
                self.held[sid].add(key)
                self.core.loaded(sid, key, None)
        elif kind == "unload":
            self.held[sid].discard(message[1])
        elif kind in ("crash", "hang"):
            if self.core.shards[sid].stopping:
                self.fifos[sid].clear()  # stop() joins it, no reap
                return
            if kind == "hang":  # the watchdog notices the silence
                self.core.mark_broken(sid, hung=True)
                self.hangs += 1
            self._reap(sid)

    def _redeliver(self):
        self.now += TIMEOUT + 1.0
        healthy = [
            sid for sid, s in self.core.shards.items()
            if not (s.stopping or s.broken)
        ]
        expected = sum(len(self.owed[sid]) for sid in healthy)
        fx = self.core.redeliver(self.now, TIMEOUT)
        self.redelivered += expected
        assert self.core.faults["redelivered_tasks"] == self.redelivered
        for sid in healthy:
            self.owed[sid] = set()
        self._apply(fx)
        return expected

    def _reap(self, sid):
        respawn, fx = self.core.reap(sid, self.now)
        self.reaps += 1
        for table in (self.fifos, self.held, self.owed):
            del table[sid]
        if respawn:
            self._spawn()
        self._apply(fx)
        if not self.core.shards:
            # the service's last-resort abort, then stop() and start()
            self._apply(self.core.abort("all workers died"))
            self._restart()

    def _restart(self):
        self._apply(self.core.shutdown("service stopped"))
        self.fifos, self.held, self.owed = {}, {}, {}
        self._start_pool()

    def _live(self):
        return sorted(
            sid for sid, s in self.core.shards.items() if not s.stopping
        )

    def _open_requests(self):
        return [
            r for r in self.requests if r not in self.outcome
        ]

    def _owes_a_dropped_batch(self):
        """A shard owes a seq whose batch message is not in its FIFO."""
        return any(
            owed - {m[1] for m in self.fifos[sid] if m[0] == "batch"}
            for sid, owed in self.owed.items()
        )

    # -- rules ------------------------------------------------------------
    @rule(
        name=st.sampled_from(NAMES),
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        cls=st.sampled_from(sorted(REQUEST_CLASSES)),
    )
    def submit(self, name, sizes, cls):
        key = (name, self.serving[name])
        self.now += 0.01
        request, fx = self.core.submit(
            key, REQUEST_CLASSES[cls], [[0] * n for n in sizes], None,
            self.now,
        )
        self.requests.append(request)
        self._apply(fx)

    @precondition(lambda self: self.core.drop_next < 2)
    @rule()
    def arm_drop(self):
        self.core.drop_next += 1

    @precondition(lambda self: self._live())
    @rule(data=st.data(), kind=st.sampled_from(["crash", "hang"]))
    def inject(self, data, kind):
        """An injected crash or hang: the worker dies (or goes silent)
        when it reads the message, and is reaped then."""
        sid = data.draw(st.sampled_from(self._live()))
        target, fx = self.core.inject(kind, sid)
        assert target == sid and self.core.shards[sid].faulted
        self.injected[kind] += 1
        self._apply(fx)

    @precondition(lambda self: self._busy())
    @rule(data=st.data(), fail=st.booleans())
    def deliver(self, data, fail):
        """The worker at the head of one FIFO answers: a chunk result,
        a per-batch error, or a load ack (or load failure)."""
        sid = data.draw(st.sampled_from(self._busy()))
        self._deliver(sid, fail=fail and data.draw(st.booleans()))

    @precondition(lambda self: self.finalized)
    @rule(data=st.data())
    def duplicate(self, data):
        """A late duplicate of an already-finalized seq changes
        nothing but (at most) its sender's in-flight accounting."""
        seq = data.draw(st.sampled_from(sorted(self.finalized)))
        senders = [s for s in self.fifos if seq not in self.owed[s]]
        if not senders:
            return
        sid = data.draw(st.sampled_from(senders))
        inflight = dict(self.core.shards[sid].inflight)
        fx = self.core.finish(sid, seq, _chunk(seq, 1), self.now)
        assert not (fx.sends or fx.done or fx.failed or fx.retired)
        assert self.core.shards[sid].inflight == inflight

    @precondition(lambda self: any(
        not s.ready for s in self.core.shards.values()
    ))
    @rule(data=st.data())
    def ready(self, data):
        sid = data.draw(st.sampled_from(sorted(
            sid for sid, s in self.core.shards.items() if not s.ready
        )))
        self._apply(self.core.ready(sid, self.now))

    @precondition(lambda self: self.core.shards)
    @rule(data=st.data(), hung=st.booleans())
    def reap(self, data, hung):
        """A crash (or a hang the watchdog caught): reap, requeue and
        respawn within the budget."""
        sid = data.draw(st.sampled_from(sorted(self.core.shards)))
        if hung:
            self.core.mark_broken(sid, hung=True)
            self.hangs += 1
        self._reap(sid)

    @rule()
    def redeliver(self):
        self._redeliver()

    @precondition(lambda self: len(self.loading) < len(NAMES))
    @rule(data=st.data())
    def load(self, data):
        name = data.draw(st.sampled_from(
            [n for n in NAMES if n not in self.loading]
        ))
        version = 1 + max(
            v for (n, v) in self.core.versions.keys() | self.models
            | self.retired if n == name
        )
        key = (name, version)
        self.models.add(key)
        self.loading[name] = key
        self._apply(self.core.load(key, ("payload",)))

    @precondition(lambda self: self.loading)
    @rule(data=st.data())
    def promote_or_roll_back(self, data):
        name = data.draw(st.sampled_from(sorted(self.loading)))
        key = self.loading[name]
        version = self.core.versions[key]
        if version.load_error is not None:
            del self.loading[name]
            self._apply(self.core.unload(key))
            assert key in self.retired
        elif not self.core.load_pending(key):
            del self.loading[name]
            old = (name, self.serving[name])
            self.serving[name] = key[1]
            self._apply(self.core.retire_when_drained(old))

    @precondition(lambda self: any(
        self.core.versions[key].retiring for key in self.core.versions
    ))
    @rule(data=st.data())
    def retire(self, data):
        """Explicit retire of a draining version is refused while it
        still has open requests."""
        key = data.draw(st.sampled_from(sorted(
            k for k, v in self.core.versions.items() if v.retiring
        )))
        assert self.core.versions[key].open > 0
        with pytest.raises(ValueError):
            self.core.unload(key)

    @precondition(lambda self: self.requests)
    @rule(data=st.data())
    def cancel(self, data):
        request = data.draw(st.sampled_from(self.requests))
        was_open = request not in self.outcome
        fx = self.core.cancel(request)
        assert (fx is not None) == was_open
        if fx is not None:
            self._apply(fx)
            assert self.outcome[request] == "failed"

    @rule(drain=st.booleans())
    def stop(self, drain):
        """stop(): the queue goes to the live shards, workers finish
        their queued batches (or not), then shutdown fails what is left
        and the pool restarts.  With the drain, a live shard, and no
        injected fault or drop in the way, every request accepted
        before the stop completes."""
        promised = drain and self.core.eligible() and not (
            self.core.drop_next or self._owes_a_dropped_batch()
            or any(s.faulted for s in self.core.shards.values())
        )
        self._apply(self.core.stop(self.now))
        while drain and self._busy():
            sid = self._busy()[0]
            if self.fifos[sid][0][0] == "stop":
                self.fifos[sid].clear()
            else:
                self._deliver(sid)
        if promised:
            assert not self._open_requests()
        self._restart()
        assert not self._open_requests()

    @rule()
    def settle(self):
        """Liveness: with every worker answering, everything queued
        completes and the core comes back to rest."""
        for _ in range(10_000):
            for sid, shard in list(self.core.shards.items()):
                if not shard.ready:  # respawns come up
                    self._apply(self.core.ready(sid, self.now))
            if self._busy():
                self._deliver(self._busy()[0])
            else:
                if not (self._open_requests() or any(self.owed.values())):
                    break
                # only dropped batches are left: redelivery recovers them
                assert self._redeliver() > 0, "stuck with nothing owed"
        else:
            raise AssertionError("settle made no progress")
        assert not self._open_requests()
        for key in self.loading.values():
            assert self.core.versions[key].load_error is not None \
                or not self.core.load_pending(key)
        self.quiescent()

    # -- invariants -------------------------------------------------------
    @invariant()
    def seqs_finalize_at_most_once(self):
        assert all(count == 1 for count in self.finalized.values())
        for request in self.requests:
            if self.outcome.get(request) == "done":
                assert all(self.finalized[s] == 1 for s in request.seqs)

    @invariant()
    def open_seqs_match_open_requests(self):
        expected = {
            seq
            for r in self._open_requests()
            for seq in r.seqs
            if not self.finalized[seq]
        }
        assert set(self.core.open_seqs) == expected

    @invariant()
    def version_open_counts_match(self):
        open_by_key = Counter(r.key for r in self._open_requests())
        for key, version in self.core.versions.items():
            assert version.open == open_by_key[key]
            if key in self.retired:
                assert version.open == 0 and not version.retiring

    @invariant()
    def inflight_matches_the_workers(self):
        for sid, shard in self.core.shards.items():
            assert set(shard.inflight) == self.owed[sid]

    @invariant()
    def credits_bound_what_is_in_flight(self):
        for shard in self.core.shards.values():
            if not shard.stopping:
                assert len(shard.inflight) <= SHARD_CREDITS

    @invariant()
    def no_open_task_waits_beside_a_free_credit(self):
        """Dispatch is work-conserving: after every event, either no
        open task is queued or no eligible shard has a free credit."""
        if any(t.seq in self.core.open_seqs for *_, t in self.core._pending):
            assert all(s.credits <= 0 for s in self.core.eligible())

    @invariant()
    def fault_counters_match(self):
        stats = self.core.fault_stats()
        assert stats["dead_reaps"] == self.reaps
        assert stats["hung_reaps"] == self.hangs
        assert stats["redelivered_tasks"] == self.redelivered
        assert stats["descriptor_drops"] == self.drops
        assert stats["injected_crashes"] == self.injected["crash"]
        assert stats["injected_hangs"] == self.injected["hang"]

    @invariant()
    def quiescent(self):
        """Nothing open and no message queued: no seq is open, and a
        shard holds nothing in flight unless it still owes a dropped
        descriptor of a closed request (redelivery releases those, as
        ``settle`` does before its own check)."""
        if self._open_requests() or self._busy():
            return
        assert self.core.open_seqs == {}
        for sid, shard in self.core.shards.items():
            if self.owed[sid]:
                continue  # inflight_matches_the_workers pins it to owed
            assert shard.inflight == {}


TestLifecycleMachine = LifecycleMachine.TestCase
# max_examples and stateful_step_count come from the active profile
TestLifecycleMachine.settings = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
