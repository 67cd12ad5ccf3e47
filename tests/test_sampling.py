from sampling import sample_small_cellulations

from cellqec import surface


class TestSampling:
    def test_deterministic_and_valid(self):
        a = sample_small_cellulations(12, seed=5)
        b = sample_small_cellulations(12, seed=5)
        assert len(a) == 12
        assert [c.to_json() for c in a] == [c.to_json() for c in b]
        for c in a:
            surface.validate(c)

    def test_oversampling_keeps_the_pool(self):
        pool = sample_small_cellulations(200, seed=1)
        assert len(pool) == 200
