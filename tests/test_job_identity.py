"""A SimJob is its own key.

Frozen-dataclass equality over every field is a job's only identity:
``run_jobs`` deduplicates and indexes results by it, and the result
cache addresses entries by ``repr(job)``.  So a job that differs from
another in any one field — or in any field of its mix — must be a
different job everywhere, and two separately built descriptions of one
simulation must be the same job.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import SimJob, dedupe_jobs, mix_job
from repro.harness.runner import HarnessConfig
from repro.obs.probe import ObsConfig
from repro.os.spec import GovernorSpec
from repro.workloads.mixes import DEFAULT_MIX_THREADS, attack_mixes

HCFG = HarnessConfig(scale=128.0, instructions_per_thread=1_000, warmup_ns=0.0)
MIX = attack_mixes(1)[0]
BASE = mix_job(HCFG, MIX, "none")

#: One changed value per SimJob field, each valid on its own.
JOB_VARIANTS = {
    "hcfg": dataclasses.replace(HCFG, seed=HCFG.seed + 1),
    "kind": "ablation",
    "mechanism": "blockhammer",
    "app": "403.gcc",
    "slot": 1,
    "pinned": 0,
    "threads": DEFAULT_MIX_THREADS + 1,
    "mix": dataclasses.replace(MIX, name=MIX.name + "-other"),
    "governor": GovernorSpec(policy="kill"),
    "obs": ObsConfig(metrics=True),
}

#: One changed value per WorkloadMix field.
MIX_VARIANTS = {
    "name": MIX.name + "-other",
    "app_names": MIX.app_names[::-1],
    "has_attack": not MIX.has_attack,
    "attack_seed": (MIX.attack_seed or 0) + 1,
    "pinned_channels": tuple(range(len(MIX.app_names))),
}


def _cache_path(job):
    return ResultCache("unused", fingerprint="fixed")._path(job)


def test_every_field_has_a_variant():
    """A field added to SimJob or WorkloadMix must get a case here."""
    assert set(JOB_VARIANTS) == {f.name for f in dataclasses.fields(SimJob)}
    assert set(MIX_VARIANTS) == {f.name for f in dataclasses.fields(MIX)}


def _assert_distinct(other):
    assert other != BASE
    assert dedupe_jobs([BASE, other]) == [BASE, other]
    assert _cache_path(other) != _cache_path(BASE)


@pytest.mark.parametrize("field", sorted(JOB_VARIANTS))
def test_job_differing_in_one_field_is_another_job(field):
    _assert_distinct(dataclasses.replace(BASE, **{field: JOB_VARIANTS[field]}))


@pytest.mark.parametrize("field", sorted(MIX_VARIANTS))
def test_mix_differing_in_one_field_is_another_job(field):
    mix = dataclasses.replace(MIX, **{field: MIX_VARIANTS[field]})
    _assert_distinct(mix_job(HCFG, mix, "none"))


def test_separately_built_jobs_are_one_job():
    a = mix_job(HCFG, attack_mixes(1)[0], "blockhammer")
    b = mix_job(dataclasses.replace(HCFG), attack_mixes(1)[0], "blockhammer")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.key is a
    assert dedupe_jobs([a, b]) == [a]
    assert _cache_path(a) == _cache_path(b)
