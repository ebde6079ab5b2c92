"""The five-paper-matrix registry (Table 1 calibration)."""

import pytest

from repro.sparse import PAPER_MATRICES, big_names, load, names


class TestRegistry:
    def test_names_in_table1_order(self):
        assert names() == ["BUS1138", "CANN1072", "DWT512", "LAP30", "LSHP1009"]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="available"):
            load("NOSUCH")

    def test_the_package_loader_is_the_registry_loader(self):
        import repro
        from repro.sparse import registry

        assert load is registry.load and repro.load is registry.load

    def test_an_unknown_name_lists_both_tiers(self):
        with pytest.raises(KeyError) as info:
            load("NOSUCH")
        offered = info.value.args[0].split("available: ")[1].split(", ")
        assert offered == names() + list(big_names())
        assert "SOC100K" in offered

    def test_lap30_is_exact(self):
        tm = PAPER_MATRICES["LAP30"]
        g = tm.build()
        assert tm.exact
        assert g.n == tm.paper_n
        assert g.nnz_lower == tm.paper_nnz

    @pytest.mark.parametrize("name", ["BUS1138", "CANN1072", "DWT512", "LSHP1009"])
    def test_analogues_match_order_exactly(self, name):
        tm = PAPER_MATRICES[name]
        assert tm.build().n == tm.paper_n

    @pytest.mark.parametrize("name", names())
    def test_nnz_within_15_percent(self, name):
        tm = PAPER_MATRICES[name]
        g = tm.build()
        assert abs(g.nnz_lower - tm.paper_nnz) <= 0.15 * tm.paper_nnz

    @pytest.mark.parametrize("name", names())
    def test_deterministic(self, name):
        assert load(name) == load(name)

    @pytest.mark.parametrize("name", names())
    def test_connected(self, name):
        import networkx as nx

        g = load(name)
        u, v = g.edges()
        G = nx.Graph(zip(u.tolist(), v.tolist()))
        G.add_nodes_from(range(g.n))
        assert nx.is_connected(G)
