"""repro.jobs — the asynchronous job-service execution API.

Where :class:`~repro.api.pipeline.Pipeline` runs one config,
:class:`JobService` runs *workloads*: submit a config (or a batch, or a
sweep's cells) and collect :class:`JobHandle` results — with worker
pools, per-worker stage stores (:mod:`repro.store`) and summable cache
counters.  The sweep engine and the ``repro batch`` CLI are both thin
layers over this service.

>>> from repro.api.config import PipelineConfig
>>> from repro.jobs import JobService
>>> with JobService() as service:
...     handles = service.submit_many(
...         [PipelineConfig(topology="grid", n=9, power=mode).to_dict()
...          for mode in ("global", "uniform")]
...     )
...     slots = [h.result().num_slots for h in handles]
>>> len(slots)
2
"""

from repro.jobs.service import JobHandle, JobService, JobStatus

__all__ = ["JobHandle", "JobService", "JobStatus"]
