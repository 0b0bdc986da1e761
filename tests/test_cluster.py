"""Tests for a sweep spread over a cluster of local pool workers.

When a worker process dies the pool raises ``BrokenProcessPool`` for
every job it swallowed. The executor re-runs exactly those jobs
in-process, starts no second pool, and its rows match a clean run.
"""

import concurrent.futures
import concurrent.futures.process

from repro.config.defaults import baseline_config
from repro.core import ExperimentJob, SweepExecutor
from repro.core import executor as executor_module
from repro.core.experiment import WorkloadSpec

SPEC = WorkloadSpec("li", seed=1, scale=0.05)


def _jobs(sizes=(1, 8, 32)):
    base = baseline_config()
    return [ExperimentJob(SPEC, base.with_ras_entries(size), "frontend")
            for size in sizes]


class _FlakyPool:
    """Stand-in process pool: scripted per-instance breakage."""

    def __init__(self, plan, log):
        self.plan = plan  # instance index -> indices that break
        self.log = log
        self.instance = -1

    def __call__(self, max_workers=None, **kwargs):
        self.instance += 1
        self.log.append([])
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, job, *args):
        index = len(self.log[-1])
        self.log[-1].append(job)
        future = concurrent.futures.Future()
        if index in self.plan.get(self.instance, ()):
            future.set_exception(
                concurrent.futures.process.BrokenProcessPool("chaos"))
        else:
            future.set_result(fn(job, *args))
        return future


class TestBrokenPoolRetry:
    """A BrokenProcessPool re-runs only the jobs it swallowed."""

    def _executor(self, plan, log, ledger=None):
        executor = SweepExecutor(jobs=2, cache=None, ledger=ledger)
        executor._pool_factory = _FlakyPool(plan, log)
        return executor

    def test_only_failed_jobs_retried(self, tmp_path):
        log = []
        # the pool breaks the futures of jobs 1 and 2; the ledger makes
        # the sweep a traced one
        executor = self._executor({0: (1, 2)}, log,
                                  ledger=tmp_path / "ledger.jsonl")
        calls = executor_module.simulation_calls()
        results = executor.run(_jobs())
        assert all(r.instructions > 0 for r in results)
        # every job simulated exactly once: job 0 in the pool, the
        # two broken ones re-run in-process
        assert executor_module.simulation_calls() == calls + 3

    def test_rows_identical_to_clean_run(self):
        broken = self._executor({0: (0, 1, 2)}, [])
        clean = SweepExecutor(jobs=1, cache=None, ledger=None)
        assert [r.as_dict() for r in broken.run(_jobs())] \
            == [r.as_dict() for r in clean.run(_jobs())]

    def test_exhausted_budget_finishes_serially(self):
        log = []
        # the pool breaks everything and there is no retry budget: no
        # second pool is started, the stragglers complete in-process
        executor = self._executor({0: (0, 1, 2)}, log)
        results = executor.run(_jobs())
        assert all(r.instructions > 0 for r in results)
        assert len(log) == 1 and len(log[0]) == 3
