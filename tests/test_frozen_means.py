"""Frozen seeded ensemble means: a gate on the bits of the chain kernel.

Every realization mean below is the float.hex of ensemble_grid's output at
seed 11, computed before the chain draws were evaluated a chunk of draw
blocks at a time. The sizes straddle the draw block (1024 chains) and the
evaluation chunk (4096 chains), so a change to the draws, the displacement
mapping, the kernel or the summation order that moves a single bit of any
mean fails here. A change that means to move them must say so and refresh
the table.
"""
from donorpair import EnsembleConfig, ensemble_grid

SEED = 11
FROZEN_MEANS = {   # (law, K_n, num_chains): float.hex of the 2 realization means
    ('none', 700, 1): ('0x1.fa7947dccd4c0p-6', '0x1.a47148be2ef9cp-3'),
    ('none', 700, 1023): ('0x1.63b710aaeca79p-3', '0x1.610cc4c5c21e8p-3'),
    ('none', 700, 1024): ('0x1.638c9a772ada7p-3', '0x1.61613071f35f6p-3'),
    ('none', 700, 1025): ('0x1.63ca1b668115cp-3', '0x1.6151e7cb56392p-3'),
    ('none', 700, 2049): ('0x1.626928d63f716p-3', '0x1.62cdf0cd73910p-3'),
    ('none', 700, 4097): ('0x1.630babfcd52d7p-3', '0x1.65b4ce11838bep-3'),
    ('none', 700, 20000): ('0x1.642016899ed83p-3', '0x1.651ea44615c81p-3'),
    ('none', 2000, 1): ('0x1.14e94081c7258p-4', '0x1.13b3cc74616d8p-4'),
    ('none', 2000, 1023): ('0x1.39e6e2384f32fp-4', '0x1.3dba58e6fb41ap-4'),
    ('none', 2000, 1024): ('0x1.39ebfecbc92c0p-4', '0x1.3db397e2a99c2p-4'),
    ('none', 2000, 1025): ('0x1.39cb012c964b7p-4', '0x1.3d9b9f154f948p-4'),
    ('none', 2000, 2049): ('0x1.3c67be6d44fcep-4', '0x1.3d173e71511bdp-4'),
    ('none', 2000, 4097): ('0x1.3d04a02e918b2p-4', '0x1.3eb1784f50c6ap-4'),
    ('none', 2000, 20000): ('0x1.3f30825aec4d1p-4', '0x1.3e34e20354b99p-4'),
    ('A', 700, 1): ('0x1.7167cc6d5971cp-2', '0x1.4fdb0bfa70df0p-2'),
    ('A', 700, 1023): ('0x1.c493885c1aef3p-3', '0x1.c9c005e16fb68p-3'),
    ('A', 700, 1024): ('0x1.c4a6c58c7905ep-3', '0x1.c967cd34d97bap-3'),
    ('A', 700, 1025): ('0x1.c4b76f790ef78p-3', '0x1.c95447e1a3b60p-3'),
    ('A', 700, 2049): ('0x1.c70d44d3829f1p-3', '0x1.c906060ba6628p-3'),
    ('A', 700, 4097): ('0x1.c6c669b7e5544p-3', '0x1.c6e35e8663291p-3'),
    ('A', 700, 20000): ('0x1.c6d2a2d40a9a8p-3', '0x1.c63cfbccee02bp-3'),
    ('A', 2000, 1): ('0x1.b17628da5c7d0p-5', '0x1.d664943520220p-5'),
    ('A', 2000, 1023): ('0x1.4a09f932f4280p-4', '0x1.45afe61b7b8a1p-4'),
    ('A', 2000, 1024): ('0x1.49ff79d654dbdp-4', '0x1.459743339d76cp-4'),
    ('A', 2000, 1025): ('0x1.4a15248e6fee4p-4', '0x1.45b79ebf72e74p-4'),
    ('A', 2000, 2049): ('0x1.4a53cdf7b266ep-4', '0x1.486592401cfc5p-4'),
    ('A', 2000, 4097): ('0x1.474f67d25f7d8p-4', '0x1.4989876750daep-4'),
    ('A', 2000, 20000): ('0x1.4a3cba9619893p-4', '0x1.49a3c63eb9c9cp-4'),
    ('B', 700, 1): ('0x1.4d0cf7796126cp-2', '0x1.9132955a22f8cp-3'),
    ('B', 700, 1023): ('0x1.a05e466f13402p-3', '0x1.9b9a5642254f1p-3'),
    ('B', 700, 1024): ('0x1.a0212175f1dadp-3', '0x1.9bc5c2e904742p-3'),
    ('B', 700, 1025): ('0x1.9fd59782f1aa9p-3', '0x1.9ba3f6a6f3955p-3'),
    ('B', 700, 2049): ('0x1.a304713f3113bp-3', '0x1.9e73a55501c8fp-3'),
    ('B', 700, 4097): ('0x1.a3a86015a2104p-3', '0x1.9de7781a38c9fp-3'),
    ('B', 700, 20000): ('0x1.9f52b4dd74561p-3', '0x1.9f5926aa147bap-3'),
    ('B', 2000, 1): ('0x1.14697e251ff20p-4', '0x1.215addb049e78p-4'),
    ('B', 2000, 1023): ('0x1.41636b30caf84p-4', '0x1.446efc6b106bap-4'),
    ('B', 2000, 1024): ('0x1.414f1708068a1p-4', '0x1.446490ff944fep-4'),
    ('B', 2000, 1025): ('0x1.4175212801728p-4', '0x1.4446f181d4372p-4'),
    ('B', 2000, 2049): ('0x1.41f56f553ee9ap-4', '0x1.4206a358da762p-4'),
    ('B', 2000, 4097): ('0x1.42ae7281887b9p-4', '0x1.425b58c4233eep-4'),
    ('B', 2000, 20000): ('0x1.4196a6c3f3676p-4', '0x1.41af441c35f38p-4'),
}


def test_seeded_means_are_frozen():
    configs = [EnsembleConfig(num_chains=n, num_realizations=2, law=law, k_n=k_n, seed=SEED)
               for law, k_n, n in FROZEN_MEANS]
    got = {(c.law, c.k_n, c.num_chains): tuple(x.hex() for x in r.realization_means)
           for c, r in zip(configs, ensemble_grid(configs))}
    assert got == FROZEN_MEANS
