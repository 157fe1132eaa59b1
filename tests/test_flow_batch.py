"""run_many: ordering, dedup, the on-disk cache, and worker pools."""

import pickle

import pytest

import repro.core.scheduler as scheduler_module
import repro.flow.batch as batch_module
from repro.errors import FlowError
from repro.flow import clear_cache, iter_results, platform_spec, run_many, spec_hash


def sweep_specs():
    return [
        platform_spec(bench, policy=policy)
        for bench in ("Bm1", "Bm2")
        for policy in ("heuristic3", "thermal")
    ]


class TestRunMany:
    def test_results_in_input_order(self):
        specs = sweep_specs()
        results = run_many(specs)
        assert [r.spec for r in results] == specs
        assert [r.evaluation.benchmark for r in results] == [
            "Bm1", "Bm1", "Bm2", "Bm2",
        ]

    def test_duplicate_specs_share_one_result(self):
        spec = platform_spec("Bm1", policy="heuristic3")
        results = run_many([spec, spec, spec])
        assert results[0] is results[1] is results[2]

    def test_rejects_non_spec_items(self):
        with pytest.raises(FlowError):
            run_many([platform_spec("Bm1"), "Bm2"])

    def test_rejects_bad_worker_count(self):
        with pytest.raises(FlowError):
            run_many([platform_spec("Bm1")], workers=0)

    def test_pool_matches_serial(self):
        specs = sweep_specs()[:2]
        serial = run_many(specs)
        pooled = run_many(specs, workers=2)
        assert [r.evaluation for r in serial] == [r.evaluation for r in pooled]
        assert all(r.provenance["worker"] == "pool" for r in pooled)


class TestCache:
    def test_cache_roundtrip_and_hit_flags(self, tmp_path):
        specs = sweep_specs()[:2]
        first = run_many(specs, cache_dir=tmp_path)
        second = run_many(specs, cache_dir=tmp_path)
        assert all(not r.provenance["cache_hit"] for r in first)
        assert all(r.provenance["cache_hit"] for r in second)
        assert [r.evaluation for r in first] == [r.evaluation for r in second]

    def test_cache_hit_invokes_zero_scheduler_runs(self, tmp_path, monkeypatch):
        """Satellite acceptance: a warm cache never re-enters the ASP."""
        spec = platform_spec("Bm1", policy="thermal")
        run_many([spec], cache_dir=tmp_path)

        calls = {"n": 0}
        original = scheduler_module.ListScheduler.run

        def counting_run(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(scheduler_module.ListScheduler, "run", counting_run)
        results = run_many([spec], cache_dir=tmp_path)
        assert calls["n"] == 0
        assert results[0].provenance["cache_hit"]
        assert results[0].evaluation.benchmark == "Bm1"

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        spec = platform_spec("Bm1", policy="heuristic3")
        run_many([spec], cache_dir=tmp_path)
        [entry] = list(tmp_path.glob("*.flowresult.pkl"))
        entry.write_bytes(b"not a pickle")
        results = run_many([spec], cache_dir=tmp_path)
        assert not results[0].provenance["cache_hit"]

    def test_cache_keyed_by_spec_hash(self, tmp_path):
        spec = platform_spec("Bm1", policy="heuristic3")
        run_many([spec], cache_dir=tmp_path)
        assert (tmp_path / f"{spec_hash(spec)}.flowresult.pkl").is_file()

    def test_clear_cache(self, tmp_path):
        specs = sweep_specs()[:2]
        run_many(specs, cache_dir=tmp_path)
        assert clear_cache(tmp_path) == 2
        assert clear_cache(tmp_path) == 0

    def test_each_cache_hit_is_loaded_once(self, tmp_path, monkeypatch):
        """Each distinct digest is looked up once, as it enters the
        window: a warm pool run unpickles every hit exactly once."""
        specs = sweep_specs()
        run_many(specs, cache_dir=tmp_path)
        loads = []
        load_cached = batch_module._load_cached

        def counting(cache_dir, digest):
            loads.append(digest)
            return load_cached(cache_dir, digest)

        monkeypatch.setattr(batch_module, "_load_cached", counting)
        results = run_many(specs + specs[:1], workers=2, cache_dir=tmp_path)
        assert all(r.provenance["cache_hit"] for r in results)
        assert sorted(loads) == sorted(spec_hash(spec) for spec in specs)


class TestCacheVersionStamp:
    """Satellite: version-stamped pickles; mismatches are misses."""

    def _entry(self, tmp_path, spec):
        run_many([spec], cache_dir=tmp_path)
        return tmp_path / f"{spec_hash(spec)}.flowresult.pkl"

    def test_payload_carries_both_version_coordinates(self, tmp_path):
        import repro
        from repro.results import RECORD_SCHEMA_VERSION

        entry = self._entry(tmp_path, platform_spec("Bm1", policy="thermal"))
        payload = pickle.loads(entry.read_bytes())
        assert payload["stamp"] == {
            "repro_version": repro.__version__,
            "record_schema": RECORD_SCHEMA_VERSION,
        }

    def test_stale_library_version_is_a_miss(self, tmp_path):
        spec = platform_spec("Bm1", policy="thermal")
        entry = self._entry(tmp_path, spec)
        payload = pickle.loads(entry.read_bytes())
        payload["stamp"]["repro_version"] = "0.0.1"
        entry.write_bytes(pickle.dumps(payload))
        results = run_many([spec], cache_dir=tmp_path)
        assert not results[0].provenance["cache_hit"]

    def test_stale_record_schema_is_a_miss(self, tmp_path):
        spec = platform_spec("Bm1", policy="thermal")
        entry = self._entry(tmp_path, spec)
        payload = pickle.loads(entry.read_bytes())
        payload["stamp"]["record_schema"] = -1
        entry.write_bytes(pickle.dumps(payload))
        results = run_many([spec], cache_dir=tmp_path)
        assert not results[0].provenance["cache_hit"]

    def test_legacy_bare_result_pickle_is_a_miss(self, tmp_path):
        """Pre-versioning caches pickled the FlowResult directly; those
        payloads must never replay."""
        spec = platform_spec("Bm1", policy="thermal")
        entry = self._entry(tmp_path, spec)
        payload = pickle.loads(entry.read_bytes())
        entry.write_bytes(pickle.dumps(payload["result"]))  # the old format
        results = run_many([spec], cache_dir=tmp_path)
        assert not results[0].provenance["cache_hit"]

    def test_matching_stamp_still_hits(self, tmp_path):
        spec = platform_spec("Bm1", policy="thermal")
        self._entry(tmp_path, spec)
        results = run_many([spec], cache_dir=tmp_path)
        assert results[0].provenance["cache_hit"]

    def test_stale_entries_recompute_in_the_pool(self, tmp_path):
        """A cache full of stale pickles must classify as misses up
        front, so workers>1 still parallelises instead of silently
        recomputing the grid serially."""
        specs = sweep_specs()[:2]
        run_many(specs, cache_dir=tmp_path)
        for spec in specs:
            entry = tmp_path / f"{spec_hash(spec)}.flowresult.pkl"
            payload = pickle.loads(entry.read_bytes())
            payload["stamp"]["repro_version"] = "0.0.1"
            entry.write_bytes(pickle.dumps(payload))
        results = run_many(specs, workers=2, cache_dir=tmp_path)
        assert all(r.provenance["worker"] == "pool" for r in results)
        assert all(not r.provenance["cache_hit"] for r in results)


class TestIterResults:
    def test_yields_in_input_order_with_shared_duplicates(self):
        spec_a = platform_spec("Bm1", policy="heuristic3")
        spec_b = platform_spec("Bm1", policy="thermal")
        pairs = list(iter_results([spec_a, spec_b, spec_a]))
        assert [index for index, _ in pairs] == [0, 1, 2]
        assert pairs[0][1] is pairs[2][1]
        assert pairs[0][1] is not pairs[1][1]

    def test_retains_only_results_still_needed(self):
        """Distinct specs stream through without accumulating: after each
        yield, previously yielded results are no longer referenced by
        the generator (the bench contract, in miniature)."""
        import gc
        import weakref

        specs = [
            platform_spec(bench, policy=policy)
            for bench in ("Bm1", "Bm2")
            for policy in ("baseline", "heuristic3", "thermal")
        ]
        refs = []
        for _, result in iter_results(specs):
            refs.append(weakref.ref(result))
            del result
            gc.collect()
            alive = sum(1 for ref in refs if ref() is not None)
            assert alive <= 1

    def test_pool_streaming_matches_serial(self):
        specs = sweep_specs()
        serial = [r.evaluation for _, r in iter_results(specs)]
        pooled = [r.evaluation for _, r in iter_results(specs, workers=2)]
        assert serial == pooled
