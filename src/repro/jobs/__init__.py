"""repro.jobs — the job-service execution API.

Where :class:`~repro.api.pipeline.Pipeline` runs one config,
:class:`JobService` runs *workloads*: :meth:`JobService.run` takes a
batch of configs (or a sweep's cells) and yields one :class:`Outcome`
per job, in order — with worker pools, per-worker stage stores
(:mod:`repro.store`) and summable cache counters.  The sweep engine,
the cluster worker and the ``repro batch`` CLI are all thin layers
over this service.

>>> from repro.api.config import PipelineConfig
>>> from repro.jobs import JobService
>>> with JobService() as service:
...     outcomes = list(service.run(
...         [PipelineConfig(topology="grid", n=9, power=mode).to_dict()
...          for mode in ("global", "uniform")]
...     ))
>>> [o.error for o in outcomes], len({o.value.config.power for o in outcomes})
([None, None], 2)
"""

from repro.jobs.service import JobService, Outcome

__all__ = ["JobService", "Outcome"]
