"""Asyncio-task isolation for metrics recorders (satellite regression).

Two handshake rooms sharing one event loop must account to their own
recorders — ``metrics.using`` covers tasks spawned inside the block,
``Recorder.bind_task`` pins tasks created elsewhere — and concurrent
activations of one scope must union, not double-book, wall time."""

import asyncio
import threading
import time

from repro import metrics
from repro.crypto.modmath import mexp


class TestTaskIsolation:
    def test_two_rooms_one_loop_separate_recorders(self):
        """The TestConcurrentRooms invariant, minimised: concurrent
        rooms on one loop, each under its own recorder via ``using`` at
        task-spawn time, see only their own operations."""
        rec_a, rec_b = metrics.Recorder(), metrics.Recorder()

        async def room(n_ops):
            with metrics.scope("room"):
                for _ in range(n_ops):
                    mexp(2, 100, 1009)
                    await asyncio.sleep(0)

        async def main():
            with metrics.using(rec_a):
                task_a = asyncio.ensure_future(room(3))
            with metrics.using(rec_b):
                task_b = asyncio.ensure_future(room(5))
            await asyncio.gather(task_a, task_b)

        asyncio.run(main())
        assert rec_a.snapshot()["room"].modexp == 3
        assert rec_b.snapshot()["room"].modexp == 5
        assert rec_a.total().modexp == 3
        assert rec_b.total().modexp == 5

    def test_bind_task_pins_a_preexisting_task(self):
        """A task created *before* ``using`` would inherit the shared
        per-thread recorder; ``bind_task`` inside the task body is the
        escape hatch."""
        rec = metrics.Recorder()
        ambient = metrics.Recorder()

        async def worker(gate):
            rec.bind_task()
            await gate.wait()
            with metrics.scope("pinned"):
                mexp(2, 100, 1009)

        async def main():
            gate = asyncio.Event()
            # Spawned under the ambient recorder — without bind_task its
            # counts would land there.
            with metrics.using(ambient):
                task = asyncio.ensure_future(worker(gate))
            gate.set()
            await task

        asyncio.run(main())
        assert rec.snapshot()["pinned"].modexp == 1
        assert "pinned" not in ambient.snapshot()

    def test_interleaved_tasks_do_not_cross_charge(self):
        recorders = [metrics.Recorder() for _ in range(4)]

        async def party(i):
            with metrics.scope(f"hs:{i}"):
                for _ in range(i + 1):
                    mexp(3, 50, 1009)
                    await asyncio.sleep(0)

        async def main():
            tasks = []
            for i, rec in enumerate(recorders):
                with metrics.using(rec):
                    tasks.append(asyncio.ensure_future(party(i)))
            await asyncio.gather(*tasks)

        asyncio.run(main())
        for i, rec in enumerate(recorders):
            snap = rec.snapshot()
            assert set(snap) == {f"hs:{i}", "total"}
            assert snap[f"hs:{i}"].modexp == i + 1


class TestWallTimeUnion:
    def test_concurrent_same_scope_tasks_union_wall_time(self):
        """Regression: two tasks holding the *same* scope of one recorder
        concurrently must charge the union of their open intervals once,
        not once per holder."""
        rec = metrics.Recorder()

        async def holder():
            with metrics.scope("shared"):
                await asyncio.sleep(0.05)

        async def main():
            with metrics.using(rec):
                await asyncio.gather(holder(), holder())

        asyncio.run(main())
        wall = rec.snapshot()["shared"].wall_time
        # Two fully-overlapping 50ms holds: union is ~50ms.  The old
        # per-stack exit check booked ~100ms.
        assert 0.04 <= wall <= 0.085, wall

    def test_concurrent_same_scope_threads_union_wall_time(self):
        rec = metrics.Recorder()
        start_gate = threading.Barrier(2)

        def holder():
            with metrics.using(rec):
                start_gate.wait()
                with metrics.scope("shared"):
                    time.sleep(0.05)

        threads = [threading.Thread(target=holder) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = rec.snapshot()["shared"].wall_time
        assert 0.04 <= wall <= 0.085, wall

    def test_sequential_holds_still_accumulate(self):
        rec = metrics.Recorder()
        with metrics.using(rec):
            with metrics.scope("s"):
                time.sleep(0.02)
            with metrics.scope("s"):
                time.sleep(0.02)
        assert rec.snapshot()["s"].wall_time >= 0.03

    def test_nested_reentry_of_same_scope_charges_once(self):
        rec = metrics.Recorder()
        with metrics.using(rec):
            with metrics.scope("s"):
                with metrics.scope("s"):
                    time.sleep(0.02)
                mexp(2, 10, 1009)
        snap = rec.snapshot()
        assert snap["s"].modexp == 1          # charged once, not twice
        assert 0.015 <= snap["s"].wall_time <= 0.06
