"""Tests for the simulated cluster."""

import pytest

from repro.errors import ReproError
from repro.sim.cluster import WORKERS_PER_NODE, Cluster


def test_cluster_has_requested_nodes():
    cluster = Cluster(num_nodes=8)
    assert cluster.num_nodes == 8
    assert cluster.total_workers == 8 * WORKERS_PER_NODE == 128


def test_owner_partitioning_is_stable_and_total():
    cluster = Cluster(num_nodes=4)
    owners = {cluster.owner_of(vid) for vid in range(100)}
    assert owners == {0, 1, 2, 3}
    assert all(cluster.owner_of(v) == cluster.owner_of(v) for v in range(20))


def test_is_local_matches_owner():
    cluster = Cluster(num_nodes=3)
    for vid in range(12):
        owner = cluster.owner_of(vid)
        assert cluster.is_local(vid, owner)
        assert not cluster.is_local(vid, (owner + 1) % 3)


def test_kill_and_restart_node():
    cluster = Cluster(num_nodes=2)
    cluster.kill_node(1)
    assert len(cluster.alive_nodes()) == 1
    assert cluster.total_workers == WORKERS_PER_NODE
    cluster.restart_node(1)
    assert len(cluster.alive_nodes()) == 2


def test_bad_node_id_rejected():
    cluster = Cluster(num_nodes=2)
    with pytest.raises(ReproError):
        cluster.kill_node(5)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        Cluster(num_nodes=0)


def test_single_node_cluster_owns_everything():
    cluster = Cluster(num_nodes=1)
    assert all(cluster.owner_of(v) == 0 for v in range(50))
