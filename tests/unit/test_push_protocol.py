"""Unit tests for the publish protocol's building blocks.

Below the lattice (``test_property_lattice.py``): the control
words (agreement, stamps, the ``REPRO_CHECK`` invariants), the spin wait
and what it says when it gives up, dead peers surfacing inside a wait,
segment hygiene after a killed parent, and the Env's pushed-row state.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import zlib

import numpy as np
import pytest

from repro import Platform
from repro.apps import JacobiSGrid
from repro.aspects.mpi_aspect import PushPlan, _copy_pushes
from repro.memory import BufferOnlyBlock, DataBlock, Env, MemoryPool, PoolGroup
from repro.memory.mmat import compile_offsets_plan
from repro.memory.page import PageKey
from repro.runtime import (
    CollectiveError,
    DeadRankError,
    NetworkStats,
    PageFetchError,
    SpmdFailure,
    create_world,
    get_backend,
)
from repro.runtime import shm
from repro.runtime.shm import ControlWords, spin_until
from repro.runtime.tracing import TaskCounters

from page_protocol import slotless

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

needs_process = pytest.mark.skipif(
    not get_backend("process").available() or not shm.shm_available(),
    reason="process backend with shared memory unavailable",
)


@pytest.fixture(params=[True])
def checks(request):
    previous = shm.set_protocol_checks(request.param)
    yield
    shm.set_protocol_checks(previous)


def waiter(timeout=5.0, poll=None):
    """A world's ``_halo_wait``; ``poll`` is handed the ranks still behind."""
    return lambda ready, late, behind: spin_until(
        ready, timeout=timeout, late=late, poll=poll and (lambda: poll(behind()))
    )


def posted(ready, late, behind):
    """Post the word and do not wait for anybody."""


# ----------------------------------------------------------------------
# spin_until
# ----------------------------------------------------------------------
class TestSpinUntil:
    def test_returns_the_first_value_that_is_not_none(self):
        values = iter([None, None, 0])
        assert spin_until(lambda: next(values), timeout=1.0, late=AssertionError) == 0

    def test_times_out_with_the_callers_error(self):
        started = time.monotonic()
        with pytest.raises(CollectiveError, match="gave up"):
            spin_until(lambda: None, timeout=0.05, late=lambda: CollectiveError("gave up"))
        assert time.monotonic() - started < 1.0

    def test_poll_raises_within_one_back_off_interval(self):
        def poll():
            raise DeadRankError(3, "gone")

        started = time.monotonic()
        with pytest.raises(DeadRankError):
            spin_until(lambda: None, timeout=30.0, late=AssertionError, poll=poll, busy_spins=8)
        assert time.monotonic() - started < 0.5


# ----------------------------------------------------------------------
# ControlWords
# ----------------------------------------------------------------------
def agree_on_threads(control, flags_of, rounds, timeout=10.0):
    """Every rank agrees ``rounds`` times; returns the per-rank result lists."""
    size = control.size
    results = [[] for _ in range(size)]
    errors = []

    def rank_main(rank):
        try:
            for round in range(1, rounds + 1):
                results[rank].append(
                    control.agree(rank, round, flags_of(rank, round), waiter(timeout))
                )
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=rank_main, args=(r,), daemon=True) for r in range(size)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout + 5.0)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    return results


class TestAgreement:
    def test_every_rank_gets_the_and_of_every_ranks_flags(self):
        control = ControlWords(3)
        flags = {0: 0b111, 1: 0b101, 2: 0b110}
        results = agree_on_threads(control, lambda rank, _round: flags[rank], rounds=1)
        assert results == [[0b100]] * 3

    def test_stress_more_ranks_than_cores_short_switch_interval(self):
        # A lost or torn word would show as ranks disagreeing on a round's
        # result, a rank stuck behind (timeout) or found ahead (error).
        size, rounds = 6, 300
        control = ControlWords(size)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = agree_on_threads(
                control, lambda rank, round: 0b11 if (rank + round) % 7 else 0b01, rounds
            )
        finally:
            sys.setswitchinterval(interval)
        expected = [
            0b11 if all((rank + round) % 7 for rank in range(size)) else 0b01
            for round in range(1, rounds + 1)
        ]
        assert all(result == expected for result in results)

    def test_timeout_names_the_ranks_behind_and_by_how_much(self):
        control = ControlWords(3)
        agree_on_threads(control, lambda *_: 1, rounds=2)  # everyone reached round 2
        control.agree(1, 3, 1, posted)  # rank 1 posts round 3, does not wait
        with pytest.raises(CollectiveError) as failure:
            control.agree(0, 4, 1, waiter(timeout=0.05))
        message = str(failure.value)
        assert "rank 0 timed out in the step agreement of round 4" in message
        assert "rank 1 is 2 round(s) behind" in message  # its word of this parity holds round 2
        assert "rank 2 is 2 round(s) behind" in message

    def test_a_rank_found_ahead_is_an_error_not_an_agreement(self):
        control = ControlWords(2)
        control.agree(1, 3, 1, posted)
        with pytest.raises(CollectiveError, match="found rank 1 at round 3"):
            control.agree(0, 1, 1, waiter(timeout=1.0))

    def test_words_are_two_deep_by_parity(self):
        control = ControlWords(2)
        # Rank 1 is already at round 2 while rank 0 still reads round 1.
        control.agree(1, 1, 0b11, posted)
        control.agree(1, 2, 0b01, posted)
        assert control.agree(0, 1, 0b11, waiter()) == 0b11
        assert control.agree(0, 2, 0b11, waiter()) == 0b01

    def test_the_liveness_poll_is_asked_about_the_ranks_behind_only(self):
        control = ControlWords(3)
        control.agree(1, 1, 1, posted)
        asked = []

        def poll(behind):
            asked.append(sorted(behind))
            control.agree(2, 1, 1, posted)  # the last word arrives

        assert control.agree(0, 1, 1, waiter(poll=poll)) == 1
        assert asked == [[2]]  # rank 1 stored its word: whether it left is nobody's business

    def test_checks_reject_a_word_that_does_not_advance(self, checks):
        control = ControlWords(1)
        control.agree(0, 2, 1, waiter())
        with pytest.raises(CollectiveError, match="not monotone"):
            control.agree(0, 2, 1, waiter())


class TestStamps:
    def test_wait_returns_once_every_named_owner_stamped_the_round(self):
        control = ControlWords(3)
        control.publish(1, 0, 5, None)
        threading.Timer(0.05, control.publish, args=(2, 0, 5, None)).start()
        control.await_stamps(0, [1, 2], 5, waiter())
        # Owners the consumer does not read are not waited for.
        control.await_stamps(1, [], 9, waiter(timeout=0.01))

    @pytest.mark.parametrize("checks", [False], indirect=True)
    def test_a_stamp_ahead_of_the_step_raises_even_without_checks(self, checks):
        control = ControlWords(2)
        control.publish(1, 0, 6, None)
        with pytest.raises(PageFetchError, match="already stamped round 6"):
            control.await_stamps(0, [1], 5, waiter())

    def test_timeout_names_the_owner_behind_and_by_how_much(self):
        control = ControlWords(3)
        control.publish(1, 0, 4, None)
        control.publish(2, 0, 2, None)
        with pytest.raises(PageFetchError) as failure:
            control.await_stamps(0, [1, 2], 4, waiter(timeout=0.05))
        message = str(failure.value)
        assert "rank 0 timed out waiting for the halo stamps of round 4" in message
        assert "rank 2 is 2 round(s) behind" in message and "rank 1" not in message

    def test_checks_catch_a_rewrite_before_the_consumer_acknowledged(self, checks):
        control = ControlWords(2)
        control.claim(1, 0)  # nothing published yet: free
        control.publish(1, 0, 1, crc=7)
        with pytest.raises(CollectiveError, match="only acknowledged round 0"):
            control.claim(1, 0)
        control.acknowledge(1, 0, 1, crc=7)
        control.claim(1, 0)

    def test_checks_catch_content_that_differs_from_the_owners_image(self, checks):
        control = ControlWords(2)
        control.publish(1, 0, 1, crc=7)
        with pytest.raises(PageFetchError, match="differs from what rank 1 read"):
            control.acknowledge(1, 0, 1, crc=8)

    def test_checks_catch_a_restamp_during_the_copy_and_a_stamp_going_back(self, checks):
        control = ControlWords(2)
        control.publish(1, 0, 2, crc=7)
        with pytest.raises(PageFetchError, match="was restamped"):
            control.acknowledge(1, 0, 1, crc=7)
        with pytest.raises(CollectiveError, match="not monotone"):
            control.publish(1, 0, 2, crc=7)

    def test_checks_catch_an_owner_restamping_before_the_consumer_copied(self, checks):
        """Round after round, as consecutive refreshes run it: the owner
        publishes, the consumer copies the slot and acknowledges inside the
        same refresh, and only then may the owner claim the slot again."""
        control = ControlWords(2)
        for round in (1, 2, 3):
            control.claim(0, 1)
            control.publish(0, 1, round, crc=round)
            with pytest.raises(CollectiveError, match=f"only acknowledged round {round - 1}"):
                control.claim(0, 1)
            control.acknowledge(0, 1, round, crc=round)
        control.claim(0, 1)

    def test_repro_check_is_read_from_the_environment_at_import(self):
        for value, expected in (("1", "True"), ("", "False")):
            done = subprocess.run(
                [sys.executable, "-c",
                 "from repro.runtime.shm import protocol_checks; print(protocol_checks())"],
                env=dict(os.environ, PYTHONPATH=SRC, REPRO_CHECK=value),
                capture_output=True, text=True, timeout=60,
            )
            assert done.stdout.strip() == expected, done.stderr


# ----------------------------------------------------------------------
# worlds: the agreement, dead peers, timeouts
# ----------------------------------------------------------------------
WORLDS = ["threads", pytest.param("process", marks=needs_process)]


class TestWorldAgreement:
    @pytest.mark.parametrize("backend", WORLDS)
    def test_bits_agreement_uses_the_words_and_counts_as_an_allreduce(self, backend):
        world = create_world(backend, 3, timeout=10.0)
        try:
            results = world.run_spmd(
                lambda ctx: [world.allreduce_bits(0b111 ^ (1 << ctx.mpi_rank)) for _ in range(4)]
            )
        finally:
            world.finalize()
        assert [r.value for r in results] == [[0] * 4] * 3
        summary = world.traffic_summary()
        assert summary["allreduces"] == 12
        # Shared words: nothing was sent but the processes' end-of-run drain.
        assert summary["messages"] == (6 if backend == "process" else 0)

    def test_a_world_without_slots_agrees_over_allreduce(self):
        world = create_world("serial", 1)
        assert world.control is None
        assert world.run_spmd(lambda ctx: world.allreduce_bits(0b101))[0].value == 0b101
        assert world.traffic_summary()["allreduces"] == 1

    def test_slotless_worlds_offer_no_slots(self):
        """A registered world without control words agrees over messages,
        computes what serial does and says why it never published."""
        world = create_world(slotless(), 2, timeout=10.0)
        bits = world.run_spmd(lambda ctx: (world.control, world.allreduce_bits(3 - ctx.mpi_rank)))
        world.finalize()
        assert [r.value for r in bits] == [(None, 2), (None, 2)]
        config = dict(region=16, block_size=4, page_elements=8, loops=3, init=lambda x, y: x - y)
        serial = np.asarray(Platform().run(JacobiSGrid, config=dict(config)).result)
        run = Platform.builder().mpi(2, backend=slotless()).mmat().run(JacobiSGrid, config=config)
        result = np.asarray(run.result)
        mine = ~np.isnan(result)
        assert mine.any() and np.array_equal(result[mine], serial[mine])
        assert "open: no slots x" in run.summary()

    def test_threads_survivor_sees_the_dead_rank_not_the_timeout(self):
        world = create_world("threads", 2, timeout=30.0)

        def body(ctx):
            if ctx.mpi_rank == 1:
                time.sleep(0.1)
                world.mark_dead(1, "test kill")
                return None
            return world.allreduce_bits(1)

        started = time.monotonic()
        with pytest.raises(SpmdFailure) as failure:
            world.run_spmd(body)
        world.finalize()
        assert time.monotonic() - started < 5.0
        error = failure.value.results[0].error
        assert isinstance(error, DeadRankError) and error.rank == 1

    @needs_process
    def test_process_survivor_sees_the_dead_rank_not_the_timeout(self):
        world = create_world("process", 2, timeout=30.0)

        def body(ctx):
            if ctx.mpi_rank == 1:
                time.sleep(0.1)
                os._exit(1)
            return world.allreduce_bits(1)

        started = time.monotonic()
        with pytest.raises(SpmdFailure) as failure:
            world.run_spmd(body)
        world.finalize()
        assert time.monotonic() - started < 10.0
        error = failure.value.results[0].error
        assert isinstance(error, DeadRankError) and error.rank == 1

    @needs_process
    def test_a_rank_that_finished_cleanly_fails_nobody(self):
        """Regression: the poll raised for *any* peer whose exit was queued,
        so a rank that stored its last word and left failed the ranks
        still waiting for somebody else's."""
        world = create_world("process", 3, timeout=30.0)

        def body(ctx):
            world.allreduce_bits(1)
            # Rank 0 is done and gone while rank 1 waits for rank 2's stamp.
            if ctx.mpi_rank == 1:
                world.control.await_stamps(1, [2], 1, world._halo_wait)
            elif ctx.mpi_rank == 2:
                time.sleep(0.4)
                world.control.publish(2, 1, 1, None)
            return ctx.mpi_rank

        try:
            results = world.run_spmd(body)
        finally:
            world.finalize()
        assert [r.value for r in results] == [0, 1, 2]

    @pytest.mark.parametrize("backend", WORLDS)
    def test_a_stuck_peer_times_the_wait_out_by_name(self, backend):
        world = create_world(backend, 2, timeout=0.3)

        def body(ctx):
            if ctx.mpi_rank == 1:
                time.sleep(1.0)  # never enters the agreement in time
                return None
            return world.allreduce_bits(1)

        with pytest.raises(SpmdFailure) as failure:
            world.run_spmd(body)
        world.finalize()
        error = failure.value.results[0].error
        assert isinstance(error, CollectiveError)
        assert "step agreement of round 1: rank 1 is 1 round(s) behind" in str(error)


# ----------------------------------------------------------------------
# segment hygiene
# ----------------------------------------------------------------------
def our_segments(pid=None):
    prefix = "repro_shm_" + (f"{pid}x" if pid is not None else "")
    return sorted(name for name in os.listdir("/dev/shm") if name.startswith(prefix))


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no listable /dev/shm")
@needs_process
class TestSegmentHygiene:
    def test_names_carry_the_creating_pid(self):
        uid = shm.new_shm_uid()
        assert uid.startswith(f"{os.getpid()}x")
        assert shm.segment_name(uid, 2, 5) == f"repro_shm_{uid}_2_5"
        assert shm.control_segment_name(uid) == f"repro_shm_{uid}_ctl"

    def test_sweep_unlinks_what_a_dead_pid_left_and_nothing_else(self):
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        stale = [f"repro_shm_{dead.pid}xdeadbeef_ctl", f"repro_shm_{dead.pid}xdeadbeef_1_0"]
        live = f"repro_shm_{os.getpid()}xfeedf00d_0_0"
        odd = "repro_shm_notapid_0_0"
        for name in stale + [live, odd]:
            with open(os.path.join("/dev/shm", name), "wb") as handle:
                handle.write(b"\0" * 64)
        try:
            assert shm.sweep_stale_segments() >= 2
            left = os.listdir("/dev/shm")
            assert not any(name in left for name in stale)
            assert live in left and odd in left
        finally:
            for name in stale + [live, odd]:
                try:
                    os.unlink(os.path.join("/dev/shm", name))
                except FileNotFoundError:
                    pass

    def test_sweep_is_a_no_op_where_shm_is_not_listable(self, tmp_path):
        assert shm.sweep_stale_segments(str(tmp_path / "missing")) == 0

    def test_control_segment_lives_from_launch_to_finalize(self):
        world = create_world("process", 2, timeout=10.0)
        seen = world.run_spmd(lambda ctx: our_segments(os.getppid() if ctx.mpi_rank else None))
        assert shm.control_segment_name(world.shm_uid) in seen[0].value
        world.finalize()
        assert our_segments(os.getpid()) == []

    def test_cleanup_rank_segments_unlinks_a_leaked_control_segment(self):
        uid = shm.new_shm_uid()
        control = ControlWords.shared(uid, 2)
        control.close(unlink=False)  # the creator died before unlinking
        assert shm.control_segment_name(uid) in our_segments(os.getpid())
        assert shm.cleanup_rank_segments(uid, 1) == 0  # rank 1 owns no control segment
        assert shm.cleanup_rank_segments(uid, 0) == 1
        assert our_segments(os.getpid()) == []

    def test_a_parent_killed_mid_run_leaves_nothing_behind_the_next_world(self):
        script = (
            "import sys, time\n"
            "from repro import Platform\n"
            "from repro.apps import JacobiSGrid\n"
            "class Slow(JacobiSGrid):\n"
            "    def processing(self):\n"
            "        self.warm_up(self.kernel)\n"
            "        for step in range(10000):\n"
            "            self.run(self.kernel)\n"
            "            if step == 3 and self.task.mpi_rank == 0:\n"
            "                print('running', flush=True)\n"
            "            time.sleep(0.01)\n"
            "config = dict(region=16, block_size=8, page_elements=16, init=lambda x, y: x + y)\n"
            "Platform.builder().mpi(2, backend='process').mmat().comm_timeout(5.0)"
            ".run(Slow, config=config)\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=SRC),
            # stderr: nothing of the killed run is under test; its orphaned
            # rank exits on its own once the parent's pipes close.
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            assert parent.stdout.readline().strip() == "running"
            # Mid-run: the control segment and both ranks' arenas exist.
            assert len(our_segments(parent.pid)) >= 3
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=30)
        finally:
            parent.kill()
            parent.stdout.close()
        world = create_world("process", 2, timeout=10.0)
        world.finalize()
        assert our_segments(parent.pid) == []


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
class TestPushAccounting:
    def test_a_push_is_one_message_of_its_bytes_on_its_link(self):
        stats = NetworkStats()
        stats.record_push(1, 0, sites=512, nbytes=4096)
        stats.record_push(1, 0, sites=512, nbytes=4096)
        assert (stats.halo_pushes, stats.halo_sites) == (2, 1024)
        assert (stats.messages, stats.bytes_moved) == (2, 8192)
        assert stats.per_neighbor == {"1->0": {"messages": 2, "bytes": 8192}}

    def test_open_reasons_merge_by_reason(self):
        one, other = NetworkStats(), NetworkStats()
        one.record_open("scalar halo read")
        other.record_open("scalar halo read")
        other.record_open("plan generation changed")
        one.merge(other)
        assert one.open_steps == {"scalar halo read": 2, "plan generation changed": 1}
        assert one.as_dict()["open_steps"] is not one.open_steps


# ----------------------------------------------------------------------
# the Env's pushed rows
# ----------------------------------------------------------------------
def halo_env():
    """One owned 4x4 Block at the origin, one Buffer-only Block right of it."""
    env = Env(allocator=PoolGroup([MemoryPool(1 << 20)]), mmat_enabled=True, name="push-env")
    kw = dict(components=1, page_elements=4, allocator=env.allocator)
    owned = env.add_data_block(DataBlock((0, 0), (4, 4), **kw))
    remote = env.add_data_block(BufferOnlyBlock((4, 0), (4, 4), **kw))
    owned.load_dense(np.arange(16.0).reshape(16, 1))
    plan = compile_offsets_plan(env, owned, ((0, 0), (1, 0)))
    env.mmat.plan_store(("test", "offsets"), plan)
    return env, owned, remote, plan


class TestPushedRows:
    def test_plan_halo_rows_are_the_distinct_remote_rows_by_block(self):
        env, _owned, remote, _plan = halo_env()
        ((image, rows),) = env.plan_halo_rows()
        assert rows.tolist() == [0, 1, 2, 3]  # x == 4: the remote Block's first row
        blocks, which, elements = env.halo_row_blocks(image, rows)
        assert blocks == [remote] and which.tolist() == [0] * 4
        assert elements.tolist() == [0, 1, 2, 3]

    def test_covered_tables_read_the_copied_slot_without_touching_pages(self):
        env, _owned, remote, plan = halo_env()
        env.invalidate_buffer_only()
        tables = env.plan_halo_rows()
        env.set_pushed_rows(tables)
        assert plan.covered()  # every row it reads is pushed ...
        image, _rows = tables[0]
        assert image.pushed == 4 and image.ghost_index(np.arange(4)).tolist() == [16, 17, 18, 19]
        plan.execute(env)  # ... but nothing arrived yet: the page path, pages invalid
        assert env.missing_pages == {PageKey(remote.block_id, 0)}
        env.missing_pages.clear()
        env.copy_pushes([np.full((4, 1), 7.0)], check=True)
        out = plan.execute(env).reshape(2, 4, 4)
        assert np.all(out[1][3] == 7.0) and not env.missing_pages
        assert not image.fresh  # no page was copied
        env.check_dense_image()
        env.check_pushed_rows()

    def test_a_swap_ends_the_pushes(self):
        env, _owned, _remote, plan = halo_env()
        env.invalidate_buffer_only()
        env.set_pushed_rows(env.plan_halo_rows())
        env.copy_pushes([np.zeros((4, 1))])
        assert env.refresh(warmup=True)  # no swap: the pushes stay
        plan.execute(env)
        assert not env.missing_pages
        assert env.refresh()
        plan.execute(env)
        assert env.missing_pages  # back on the pages, which are invalid

    def test_an_uncovered_table_falls_back_to_the_pages(self):
        env, owned, remote, plan = halo_env()
        env.invalidate_buffer_only()
        env.set_pushed_rows(env.plan_halo_rows())
        env.copy_pushes([np.full((4, 1), 7.0)])
        wider = compile_offsets_plan(env, owned, ((2, 0),))  # also reads the second remote row
        assert not wider.covered()
        wider.execute(env)
        assert env.missing_pages == {PageKey(remote.block_id, 0), PageKey(remote.block_id, 1)}
        # A repair installs one of the pages: the uncovered table reads it,
        # and the page still missing leaves the pushed rows as they were —
        # the covered table reads them.
        env.missing_pages.clear()
        env.page_install(PageKey(remote.block_id, 1), np.full((4, 1), 5.0))
        out = wider.execute(env).reshape(4, 4)
        assert env.missing_pages == {PageKey(remote.block_id, 0)}
        assert out[3].tolist() == [5.0] * 4
        env.missing_pages.clear()
        assert np.all(plan.execute(env).reshape(2, 4, 4)[1][3] == 7.0) and not env.missing_pages

    def test_a_late_buffer_only_block_keeps_the_tables_on_the_pushes(self):
        env, _owned, _remote, plan = halo_env()
        env.invalidate_buffer_only()
        env.set_pushed_rows(env.plan_halo_rows())
        env.copy_pushes([np.full((4, 1), 7.0)])
        late = BufferOnlyBlock(
            (100, 100), (4, 4), components=1, page_elements=4, allocator=env.allocator
        )
        late.load_dense(np.full((16, 1), 9.0))
        image = env.plan_halo_rows()[0][0]
        tail, grew = image.tail, env.stats.rehomes_class_grew
        env.add_data_block(late)  # the tail grows: the slabs move, its rows with them
        assert image.tail == tail + 16 and env.stats.rehomes_class_grew == grew + 1
        assert np.all(plan.execute(env).reshape(2, 4, 4)[1][3] == 7.0) and not env.missing_pages
        assert np.all(env.dense_read(late) == 9.0) and env.dense_read(late).shape == (16, 1)
        assert np.all(plan.execute(env).reshape(2, 4, 4)[1][3] == 7.0)

    def test_a_completed_push_is_copied_into_the_tail_once(self):
        env, _owned, remote, plan = halo_env()
        for page in range(remote.page_count()):  # an open step's pages
            env.page_install(PageKey(remote.block_id, page), np.full((4, 1), 3.0))
        assert np.all(plan.execute(env).reshape(2, 4, 4)[1][3] == 3.0)
        image, rows = env.plan_halo_rows()[0]
        assert not image.fresh  # the rows the plan reads were copied, not its Block
        env.invalidate_buffer_only()
        # The closed step: the owner (rank 1) stores its rows and stamps.
        world = create_world("threads", 2)
        link = world.open_halo_link(1, 0, nbytes=32)
        push = PushPlan(generation=env.plan_generation, pages=frozenset())
        push.inbound.append((link, [(image, rows, 0, 32)]))
        env.set_pushed_rows([(image, rows)])
        slot = link.slot.view(np.float64).reshape(4, 1)
        slot[:] = 7.0
        world._rounds[0] = world._rounds[1] = 1  # both ranks agreed round 1
        world.control.publish(1, 0, 1, zlib.crc32(link.slot[:32]))
        _copy_pushes(env, push, world, 0, TaskCounters())
        assert not image.fresh
        assert np.all(plan.execute(env).reshape(2, 4, 4)[1][3] == 7.0)
        slot[:] = 42.0  # the slot was copied when the wait completed
        assert np.all(plan.execute(env).reshape(2, 4, 4)[1][3] == 7.0)
        assert not env.missing_pages
        env.refresh()
        world.finalize()

    def _published(self, env, *, stamp: bool = True):
        """A one-owner push plan of ``env``'s halo rows, its slot filled with
        7.0 and, with ``stamp``, stamped round 1 by the owner (rank 1)."""
        image, rows = env.plan_halo_rows()[0]
        world = create_world("threads", 2, timeout=0.2)
        link = world.open_halo_link(1, 0, nbytes=32)
        push = PushPlan(generation=env.plan_generation, pages=frozenset())
        push.inbound.append((link, [(image, rows, 0, 32)]))
        push.inbound_sites = rows.size
        env.set_pushed_rows([(image, rows)])
        link.slot.view(np.float64)[:] = 7.0
        world._rounds[0] = world._rounds[1] = 1  # both ranks agreed round 1
        if stamp:
            world.control.publish(1, 0, 1, zlib.crc32(link.slot[:32]))
        return world, push

    def test_a_copied_push_is_counted_once_and_its_wait_timed(self):
        """The consumer counts the slot it copied; its message and bytes
        are the owner's ``NetworkStats.record_push``."""
        env, _owned, _remote, _plan = halo_env()
        world, push = self._published(env)
        trace = TaskCounters()
        _copy_pushes(env, push, world, 0, trace)
        assert trace.halo_pushes == 1
        assert trace.halo_wait_ns > 0 and trace.pages_fetched == 0
        world.finalize()

    def test_checks_acknowledge_the_copied_round(self, checks):
        env, _owned, _remote, _plan = halo_env()
        world, push = self._published(env)
        with pytest.raises(CollectiveError, match="only acknowledged round 0"):
            world.control.claim(1, 0)  # the owner may not rewrite before the copy
        _copy_pushes(env, push, world, 0, TaskCounters())
        world.control.claim(1, 0)  # ... and may once the refresh copied it
        world.finalize()

    def test_an_owner_that_never_stamps_fails_the_wait_by_name(self):
        env, _owned, _remote, _plan = halo_env()
        world, push = self._published(env, stamp=False)
        trace = TaskCounters()
        with pytest.raises(PageFetchError, match="halo stamps of round 1"):
            _copy_pushes(env, push, world, 0, trace)
        assert trace.halo_pushes == 0  # nothing accounted on failure
        world.finalize()

    def test_check_pushed_rows_rejects_plans_the_push_does_not_cover(self):
        env, owned, _remote, _plan = halo_env()
        env.set_pushed_rows(env.plan_halo_rows())
        env.mmat.plan_store(("test", "wider"), compile_offsets_plan(env, owned, ((2, 0),)))
        with pytest.raises(Exception, match="never asked to publish"):
            env.check_pushed_rows()

    def test_scalar_reads_of_remote_data_are_counted(self):
        env, owned, _remote, _plan = halo_env()
        before = env.stats.buffer_only_reads
        env.read_from(owned, (4, 1))
        env.read_from(owned, (1, 1))
        assert env.stats.buffer_only_reads == before + 1
