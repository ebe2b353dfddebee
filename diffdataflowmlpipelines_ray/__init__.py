"""diffdataflowmlpipelines_ray — a Ray-Data-native incremental dataflow engine.

A from-scratch reimplementation of the query/data-processing capabilities of
``e-strauss/DiffDataflowMLPipelines`` (differential-dataflow incremental
feature encoders) on idiomatic Ray Data:

- ``state``      — invertible mergeable accumulators (the monoid algebra) and
                   the sharded actor state store.
- ``stages``     — batch operators: feature encoders, dedup, windows,
                   relational and graph analytics.
- ``streaming``  — epoch/micro-batch driver, watermarks, incremental keyed
                   aggregation, stateful stream-stream join, exactly-once
                   Parquet sink with manifests + checkpoint/resume.
- ``sources``    — parquet readers / tokenized-sequence derivation / epoch
                   directory source.
- ``functions``  — stateless vectorized kernels (tokenize, hashing,
                   vectors).
- ``pipelines``  — end-to-end composed pipelines (flagship tokenized-sequence
                   stream).

Nothing in this package calls ``ray.init``/``ray.shutdown``; sessions are
owned by the caller (driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"
