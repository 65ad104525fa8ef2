"""advlab: a desk-scale adversarial-training laboratory.

Train small robust classifiers with plain adversarial training, with an
extragradient step that first lowers the model's certainty on self-generated
attacks, or with the single-step regularized variant, and measure the lot:
robust accuracy, certainty, predicted-label heatmaps, overfitting gaps and
step-size sweeps.
"""

from .attack import AdversarialBatch, AttackConfig, fgsm, generate_batch, pgd
from .autodiff import finite_diff_grad
from .data import (
    Batch,
    Dataset,
    SplitSpec,
    batches,
    default_benchmark,
    load_idx_images,
    make_gaussian_mixture,
    split,
)
from .diagnostics import (
    Heatmap,
    MetricsRecord,
    SweepRow,
    certainty_gap,
    clean_accuracy,
    compute_heatmap,
    label_level_variance,
    overfitting_gap,
    robust_accuracy,
    stepsize_sweep,
)
from .errors import (
    AdvlabError,
    CheckpointError,
    ConfigError,
    DataFormatError,
    NumericError,
    ShapeError,
    TrainingAborted,
)
from .netcore import (
    DiffModel,
    ModelSpec,
    ModelState,
    ParamVector,
    backward,
    forward_logits,
    init_model,
    predict_label,
)
from .objective import (
    CertaintyReport,
    ObjectiveKind,
    adversarial_certainty,
    cross_entropy,
    robust_loss,
    trades_loss,
    var_functional,
)
from .train import (
    Checkpoint,
    OptState,
    StepReport,
    TrainConfig,
    at_update,
    certainty_descent_probe,
    edac_reg_update,
    edac_update,
    load_checkpoint,
    lr_at_epoch,
    save_checkpoint,
    sgd_step,
    train_run,
)

__version__ = "0.1.0"
