"""DET004 bad fixture (scoped: lives under a ``configspace`` path part)."""


def sample_columns(space, n, rng):
    columns = {}
    for name in set(space.names):
        columns[name] = space[name].sample_column(n, rng)
    return columns
