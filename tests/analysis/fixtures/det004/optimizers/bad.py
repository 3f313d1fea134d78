"""DET004 bad fixture (scoped: lives under an ``optimizers`` path part)."""


def perturb(space, base, rng):
    return {name: space[name].neighbour(base[name], rng) for name in base.keys()}
