"""
Desk-scale self-supervised pretraining
======================================

Runs the full loop on a synthetic corpus: two policy-drawn views per
image, tiny encoder + projector, cross-correlation loss, plain SGD. The
point of the demonstration is watching the cross-correlation matrix of a
held-out probe batch move toward the identity: diagonal up (view
invariance), off-diagonal down (decorrelated dimensions).

Takes about a minute on one CPU core.
"""

from pathlib import Path

from fieldaug import augment as au
from fieldaug import tinytrain as tt
from fieldaug import twins as tw
from fieldaug.policy import Policy, PolicyEntry
from fieldaug.rng import derive_seed

out_dir = Path("demo_output/pretrain")
out_dir.mkdir(parents=True, exist_ok=True)

corpus = tt.make_synthetic_corpus(512, size=16, seed=11)
bank = au.build_soil_bank(tt.make_synthetic_soil(24, size=16, seed=77))

# desk-scale policy: all six augmentations, gentle parameters, so a
# 2-layer encoder can become view-invariant within a short run
policy = Policy(
    entries=[
        PolicyEntry("background_invariance", 0.2),
        PolicyEntry("affine", 0.5, {"scale_min": 0.97, "scale_max": 1.06,
                                    "rotation_min": -0.15, "rotation_max": 0.15,
                                    "shear_min": 0.25, "shear_max": 0.28,
                                    "translate_frac": 0.03}),
        PolicyEntry("mixing", 0.2),
        PolicyEntry("gaussian_blur", 0.9, {"sigma_min": 0.1, "sigma_max": 0.6}),
        PolicyEntry("color_jitter", 1.0, {"brightness_min": 0.95, "brightness_max": 1.05,
                                          "contrast_min": 0.95, "contrast_max": 1.05,
                                          "saturation_min": 0.95, "saturation_max": 1.05}),
        PolicyEntry("random_erasing", 1.0, {"min_fraction": 0.03}),
    ],
    master_seed=5,
)

cfg = tt.TrainConfig(batch_size=64, learning_rate=0.4, lam=0.25,
                     epochs=10 ** 6, seed=3, embed_dim=8, input_size=16,
                     max_steps=200)

# fixed probe views, indices far outside the training range
x1, x2 = tt.view_batches(corpus, policy, range(10 ** 9, 10 ** 9 + 512), 16, bank)

model0 = tt.init_model(16, 8, seed=derive_seed(cfg.seed, 0))
c0 = tt.probe_cross_corr(model0, x1, x2)
print(f"at init:    diag {tw.diag_mean(c0):+.3f}   offdiag {tw.offdiag_mean_abs(c0):.4f}")

ckpt, trace = tt.pretrain(corpus, policy, cfg, soil_bank=bank)
for step, loss, dmean, omean in trace[:: len(trace) // 6]:
    print(f"  step {step:4d}  loss {loss:7.3f}  train-diag {dmean:+.3f}  train-offdiag {omean:.4f}")

model = tt.model_from_checkpoint(ckpt)
c1 = tt.probe_cross_corr(model, x1, x2)
print(f"after {ckpt.step} steps: diag {tw.diag_mean(c1):+.3f}   offdiag {tw.offdiag_mean_abs(c1):.4f}")

ckpt_path = out_dir / "demo.ckpt"
ckpt_path.write_bytes(tt.save_checkpoint(ckpt))
reloaded = tt.model_from_checkpoint(tt.load_checkpoint(ckpt_path.read_bytes()))
print("checkpoint written to", ckpt_path, "and reloads bit-exactly:",
      bool((reloaded.params == model.params).all()))
