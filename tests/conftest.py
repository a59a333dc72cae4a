import pytest


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """Shared automorphism cache for the whole test session."""
    return tmp_path_factory.mktemp("aut-cache")


@pytest.fixture
def tables_built(monkeypatch):
    """Orders of the tables built while the test runs, by either route:
    a table given whole (``groups._validate_table``) or one that a builder
    or the permutation closure makes from generator rows
    (``groups._from_generator_rows``, which ``builders`` imports by name).
    Each call is recorded and then runs as usual."""
    from cubeaut import builders, groups

    built = []

    def recording(real, order_of):
        def record(*args, **kwargs):
            built.append(order_of(*args, **kwargs))
            return real(*args, **kwargs)
        return record

    monkeypatch.setattr(groups, "_validate_table", recording(groups._validate_table,
                                                             lambda rows: len(rows)))
    from_rows = recording(groups._from_generator_rows, lambda order, *_, **__: order)
    monkeypatch.setattr(groups, "_from_generator_rows", from_rows)
    monkeypatch.setattr(builders, "_from_generator_rows", from_rows)
    return built
