"""advlab: a desk-scale adversarial-training laboratory.

Train small robust classifiers with plain adversarial training, with an
extragradient step that first lowers the model's certainty on self-generated
attacks, or with the single-step regularized variant, and measure the lot:
robust accuracy, certainty, predicted-label heatmaps, overfitting gaps and
step-size sweeps.
"""
