"""Unit tests for the shared-nothing cluster simulation."""

import pytest

from repro.core.mining import CorpusMiner, EntityMiner, MinerPipeline
from repro.platform.cluster import Cluster
from repro.platform.datastore import DataStore
from repro.platform.entity import Annotation, Entity


class Marker(EntityMiner):
    name = "marker"
    provides = ("mark",)

    def process(self, entity):
        entity.annotate(Annotation.make("mark", 0, 0, label="x"))


class Summer(CorpusMiner):
    name = "summer"

    def map_partition(self, entities):
        return sum(1 for _ in entities)

    def reduce(self, partials):
        return sum(partials)


def loaded_store(n=64, partitions=8):
    store = DataStore(num_partitions=partitions)
    store.store_all(Entity(entity_id=f"d{i}", content=f"doc {i}") for i in range(n))
    return store


class TestConstruction:
    def test_partitions_assigned_round_robin(self):
        cluster = Cluster(loaded_store(partitions=8), num_nodes=4)
        for node in cluster.nodes:
            assert len(node.partition_ids) == 2

    def test_more_nodes_than_partitions_rejected(self):
        with pytest.raises(ValueError):
            Cluster(loaded_store(partitions=2), num_nodes=4)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            Cluster(loaded_store(), num_nodes=0)

    def test_status_service_registered(self):
        cluster = Cluster(loaded_store(), num_nodes=2)
        status = cluster.bus.request("cluster.status")
        assert status["nodes"] == 2
        assert status["entities"] == 64


class TestPipelineRuns:
    def test_all_entities_processed(self):
        store = loaded_store()
        cluster = Cluster(store, num_nodes=4)
        report = cluster.run_pipeline(MinerPipeline([Marker()]))
        assert report.pipeline.entities_processed == 64
        assert all(e.has_layer("mark") for e in store.scan())

    def test_makespan_decreases_with_more_nodes(self):
        def makespan(nodes):
            cluster = Cluster(loaded_store(), num_nodes=nodes)
            return cluster.run_pipeline(MinerPipeline([Marker()])).makespan

        assert makespan(8) < makespan(2) < makespan(1)

    def test_speedup_near_linear(self):
        cluster = Cluster(loaded_store(n=256), num_nodes=8)
        report = cluster.run_pipeline(MinerPipeline([Marker()]))
        assert report.speedup > 4  # 8 nodes, allowing overhead

    def test_work_split_across_nodes(self):
        cluster = Cluster(loaded_store(n=128), num_nodes=4)
        report = cluster.run_pipeline(MinerPipeline([Marker()]))
        assert len(report.per_node_work) == 4
        assert all(w > 0 for w in report.per_node_work)

    def test_messages_counted(self):
        cluster = Cluster(loaded_store(), num_nodes=4)
        report = cluster.run_pipeline(MinerPipeline([Marker()]))
        assert report.messages == 4


class TestPerRunAccounting:
    def test_messages_reset_between_runs(self):
        # Regression: report.messages used to be the bus-lifetime
        # cumulative count, so a second run reported double.
        cluster = Cluster(loaded_store(), num_nodes=4)
        first = cluster.run_pipeline(MinerPipeline([Marker()]))
        second = cluster.run_pipeline(MinerPipeline([Marker()]))
        assert first.messages == second.messages == 4

    def test_corpus_runs_also_reset_messages(self):
        cluster = Cluster(loaded_store(), num_nodes=4)
        _, first = cluster.run_corpus_miner(Summer())
        _, second = cluster.run_corpus_miner(Summer())
        assert first.messages == second.messages == 4

    def test_status_keeps_lifetime_total(self):
        cluster = Cluster(loaded_store(), num_nodes=4)
        cluster.run_pipeline(MinerPipeline([Marker()]))
        cluster.run_pipeline(MinerPipeline([Marker()]))
        assert cluster.status()["messages"] == 8


class TestReplication:
    def test_owner_lists_have_replication_size(self):
        cluster = Cluster(loaded_store(partitions=8), num_nodes=4, replication=2)
        for pid in range(8):
            owners = cluster.owners(pid)
            assert len(owners) == 2
            assert owners[0] == pid % 4  # primary stays round-robin
            assert len(set(owners)) == 2

    def test_replication_must_fit_cluster(self):
        with pytest.raises(ValueError):
            Cluster(loaded_store(), num_nodes=4, replication=5)
        with pytest.raises(ValueError):
            Cluster(loaded_store(), num_nodes=4, replication=0)

    def test_failover_charges_replica_owner(self):
        from repro.platform.faults import FaultPlan

        store = loaded_store(n=64, partitions=8)
        plan = FaultPlan().kill_node(0, after_partitions=0)
        cluster = Cluster(store, num_nodes=4, replication=2, fault_plan=plan)
        report = cluster.run_pipeline(MinerPipeline([Marker()]))
        assert report.coverage == 1.0
        assert report.failovers == 2  # node 0's two partitions
        assert report.dead_nodes == (0,)
        assert report.per_node_work[0] == 0.0
        assert report.per_node_work[1] > report.per_node_work[2]  # took the orphans

    def test_unreplicated_death_degrades(self):
        from repro.platform.faults import FaultPlan

        store = loaded_store(n=64, partitions=8)
        plan = FaultPlan().kill_node(1, after_partitions=0)
        cluster = Cluster(store, num_nodes=4, replication=1, fault_plan=plan)
        report = cluster.run_pipeline(MinerPipeline([Marker()]))
        assert report.degraded
        assert report.coverage < 1.0
        assert set(report.lost_partitions) == {1, 5}

    def test_fault_free_report_has_clean_degradation_fields(self):
        report = Cluster(loaded_store(), num_nodes=4).run_pipeline(
            MinerPipeline([Marker()])
        )
        assert report.retries == 0
        assert report.failovers == 0
        assert report.dead_nodes == ()
        assert report.coverage == 1.0
        assert not report.degraded


class TestCorpusRuns:
    def test_corpus_miner_result_matches_sequential(self):
        store = loaded_store(n=100)
        cluster = Cluster(store, num_nodes=4)
        result, report = cluster.run_corpus_miner(Summer())
        assert result == 100
        assert report.pipeline.entities_processed == 100

    def test_reduce_cost_included_in_makespan(self):
        store = loaded_store(n=16)
        only_map = Cluster(store, num_nodes=4).run_pipeline(MinerPipeline([Marker()]))
        _, with_reduce = Cluster(store, num_nodes=4).run_corpus_miner(Summer())
        assert with_reduce.makespan > 0
        assert with_reduce.makespan >= only_map.makespan - 1e-9
