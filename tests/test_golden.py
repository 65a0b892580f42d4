"""Byte-level golden digests of the determinism contract.

Each test rebuilds a fixed set of outputs and compares the SHA-256 of
their bytes with a pinned value. The pinned values were taken from the
scalar per-element implementations (one ``next_u64`` per pixel, per fill
byte and per weight; 152 shifted reads per mask refinement), so any faster
kernel must reproduce those bytes exactly. Never edit a digest to make a
change pass: an intended output change is a format change and is made and
justified on its own.

Sizes cover both sides of the bulk-draw crossover: 16 px work draws a few
hundred values per call, 128 px work tens of thousands. Inputs come from
stdlib SHA-256 counter-mode noise and integer arithmetic, so they do not
depend on any generator under test.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fieldaug
from fieldaug import augment, tinytrain
from fieldaug.policy import AUGMENTATION_NAMES, Policy, PolicyEntry, apply_policy
from fieldaug.policy import default_policy, make_views
from fieldaug.rng import RandomStream
from fieldaug.vegmask import refine_mask

from conftest import make_soil_images

SEEDS = (0, 1, 2, 3, 4)


def _noise(tag: str, count: int) -> np.ndarray:
    """``count`` pseudo-random bytes from SHA-256 in counter mode."""
    blocks = (count + 31) // 32
    data = b"".join(hashlib.sha256(f"{tag}:{i}".encode()).digest() for i in range(blocks))
    return np.frombuffer(data[:count], dtype=np.uint8)


def _images(size: int) -> list[np.ndarray]:
    """A noisy plant image, a smooth gradient and full-range noise."""
    vv, uu = np.mgrid[0:size, 0:size]
    plant = np.empty((size, size, 3), dtype=np.uint8)
    plant[:] = (120, 90, 60)
    lo, hi = size // 3, 2 * size // 3
    plant[lo:hi, lo:hi] = (40, 190, 50)
    plant = plant + (_noise(f"plant{size}", size * size * 3) % 16).reshape(size, size, 3)
    gradient = np.stack(
        [uu * 255 // (size - 1), vv * 255 // (size - 1), (uu + vv) * 127 // (size - 1)],
        axis=2,
    ).astype(np.uint8)
    noise = _noise(f"image{size}", size * size * 3).reshape(size, size, 3)
    return [plant.astype(np.uint8), gradient, noise.copy()]


def _masks() -> list[np.ndarray]:
    """Square and non-square masks: per-pixel noise at 45% density, which
    mostly erodes away, and 4x4-block noise, which survives refinement."""
    shapes = [(16, 16), (128, 128), (512, 512), (1, 39), (39, 1), (7, 23), (37, 512), (300, 97)]
    masks = []
    for h, w in shapes:
        fine = _noise(f"mask{h}x{w}", h * w).reshape(h, w) < 115
        bh, bw = -(-h // 4), -(-w // 4)
        coarse = _noise(f"block{h}x{w}", bh * bw).reshape(bh, bw) < 128
        blocks = np.repeat(np.repeat(coarse, 4, axis=0), 4, axis=1)[:h, :w]
        masks += [fine, blocks]
    return masks


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


AUGMENT_DIGESTS = {
    ("affine", 16):
        "4b4b4bf08616a4456133b35514cfd7d2db2e739c314c0e004d82560aade818c3",
    ("affine", 128):
        "562e0190fd63bafbf8184754952e1a5ff742c58571916436be16ad6c2c704635",
    ("color_jitter", 16):
        "2cb158547c3a6bf9148f1bab81a9c9bac354de74fab30fc1f91218433428392b",
    ("color_jitter", 128):
        "cae783ce009aec838f58604929e47b07ef3b583d193fa436b7e625aad17a7112",
    ("gaussian_blur", 16):
        "f6a3c19a5fa6e70a04139c5c8e3cf533261020cf7ffa89a0fd9bb69dc0a408e2",
    ("gaussian_blur", 128):
        "630cfb9ab15d873cccafa2ef6f2ec9d28e56adf6faf537211965ee4b9afac722",
    ("mixing", 16):
        "22df7ea5e19c8e05ef007816fdc11a3f1754339385ad22448743027ed4b5d7a1",
    ("mixing", 128):
        "b02c4ccde65c19ead43283611d341023b820bd42683a0185cde9801bb236fb0e",
    ("random_erasing", 16):
        "1cb254a0b03abe6a5c0d047a3266f7c60c6b849bbecb3d46e5f882c75041038c",
    ("random_erasing", 128):
        "81ed192d4dd9f9243158a05ad92ebc4470a82aed8a5dcb1291e72e38b8639e3f",
    ("background_invariance", 16):
        "dfd7cb779d789a158bb0484d642318e7b2c5c46907aca0ea607dc0de3e4fac4b",
    ("background_invariance", 128):
        "ab7e20f81e9d5f9aac7cbfdad570ccbf0a893606079d67805e688ed361a8861b",
}


@pytest.mark.parametrize("name,size", sorted(AUGMENT_DIGESTS))
def test_each_augmentation(name, size):
    assert name in AUGMENTATION_NAMES
    bank = augment.build_soil_bank(make_soil_images())
    policy = Policy(entries=[PolicyEntry(name, 1.0)])
    outputs = [
        apply_policy(img, policy, RandomStream(seed), soil_bank=bank)
        for img in _images(size)
        for seed in SEEDS
    ]
    assert _digest(outputs) == AUGMENT_DIGESTS[(name, size)]


def _soil_bank():
    return augment.build_soil_bank(tinytrain.make_synthetic_soil(16, 16, seed=303))


def test_default_policy_views_desk_corpus():
    corpus = tinytrain.make_synthetic_corpus(64, 16, seed=101)
    policy, bank = default_policy(202), _soil_bank()
    views = [v for i, img in enumerate(corpus) for v in make_views(img, policy, i, bank)]
    assert _digest(views) == "9fbad9080df631e9dd3d4d3603df4a7a6848522073da26eedbb324d31300ff8a"


def test_default_policy_views_128px():
    images = _images(128) + tinytrain.make_synthetic_corpus(1, 128, seed=404)
    policy, bank = default_policy(505), _soil_bank()
    views = [v for i, img in enumerate(images) for v in make_views(img, policy, i, bank)]
    assert _digest(views) == "7cf15f14821438a18b391f230777c43ae92d0e0485b8dd83c9a4e8cc21a37552"


SYNTHETIC_DIGESTS = {
    ("init_model", 16):
        "e745f5702d34f9214303dc3f0cf0b7361d7ab87a701889b67f15a8fde1837334",
    ("init_model", 128):
        "7d7a8712a7fb43326af23bc3259977163249d48fa71b02cbdcc283274250cd66",
    ("make_synthetic_corpus", 16):
        "07a945aa595d5f9936fe70377c1077abfecd6da993120358fb434b47d3bc24c6",
    ("make_synthetic_corpus", 128):
        "56df45a6d0ba9e7e94511c762a0dfd32b51276c9c92a514218ef104ac54cf980",
    ("make_synthetic_soil", 16):
        "73e097bf7a1e014ef2a42973ec682e3c6619e0047376a04902c58c612e681891",
    ("make_synthetic_soil", 128):
        "1040040b3ff5ca2a724d8a5ea4e023a50be99ed3c7ba22f911d9624e8d476615",
}


@pytest.mark.parametrize("name,size", sorted(SYNTHETIC_DIGESTS))
def test_synthetic_generators(name, size):
    if name == "init_model":
        arrays = [tinytrain.init_model(size, 8, seed=seed).params for seed in (0, 9)]
    else:
        arrays = getattr(tinytrain, name)(4 if size == 16 else 2, size, seed=31)
    assert _digest(arrays) == SYNTHETIC_DIGESTS[(name, size)]


def test_refine_mask():
    assert _digest(refine_mask(m) for m in _masks()) == (
        "ae309cbdebc5168f992161be591d52c2f730251e296e6254566360ea7051b622"
    )


# Twenty desk-scale steps (the criterion-3 configuration and policy) in a
# child process whose BLAS and OpenMP pools are pinned to one thread, so
# the float reduction order of every matrix product is fixed.
_PRETRAIN_SCRIPT = """
import hashlib
from fieldaug import augment, tinytrain
from fieldaug.policy import load_policy

policy = load_policy('''
seed=5
background_invariance 0.2
affine 0.5 rotation_max=0.15 rotation_min=-0.15 scale_max=1.06 scale_min=0.97 shear_max=0.28 shear_min=0.25 translate_frac=0.03
mixing 0.2
gaussian_blur 0.9 sigma_max=0.6 sigma_min=0.1
color_jitter 1.0 brightness_max=1.05 brightness_min=0.95 contrast_max=1.05 contrast_min=0.95 saturation_max=1.05 saturation_min=0.95
random_erasing 1.0 min_fraction=0.03
''')
corpus = tinytrain.make_synthetic_corpus(512, size=16, seed=11)
bank = augment.build_soil_bank(tinytrain.make_synthetic_soil(24, size=16, seed=77))
cfg = tinytrain.TrainConfig(batch_size=64, learning_rate=0.4, lam=0.25, epochs=10 ** 6,
                            seed=3, embed_dim=8, input_size=16, max_steps=20)
ckpt, trace = tinytrain.pretrain(corpus, policy, cfg, soil_bank=bank)
rows = "".join(f"{s},{l!r},{d!r},{o!r}\\n" for s, l, d, o in trace)
print(hashlib.sha256(tinytrain.save_checkpoint(ckpt)).hexdigest())
print(hashlib.sha256(rows.encode()).hexdigest())
"""


def test_desk_pretrain_checkpoint_and_trace():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(Path(fieldaug.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PRETRAIN_SCRIPT],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    checkpoint, trace = done.stdout.split()
    assert checkpoint == "e8c78d4272baed097f190d32023f35144bb22ded90954f0d4a3048793be6aa33"
    assert trace == "66cf542938f91e3a8dc92c754fd871d04eb12615f60183bf2c3d299e7fefe045"
